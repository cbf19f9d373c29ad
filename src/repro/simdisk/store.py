"""Chunked sector storage backing :class:`~repro.simdisk.disk.SimDisk`.

The disk model's original store was ``Dict[int, bytes]`` — one dict
entry per sector — which made every reference pay one dict lookup and
one ``bytes`` copy *per sector*, with a generator-fed ``b"".join`` on
top.  At million-reference campaign scale that bookkeeping dwarfs the
modelled service-time math.

:class:`SectorStore` keeps the same observable behaviour (sectors never
written read as zeros; writes may cover a prefix of a request — the
torn-write case) over a chunked ``bytearray`` layout:

* sectors live in fixed-size chunks (``chunk_sectors`` each), allocated
  lazily on first write — a sparse disk stays sparse;
* a contiguous read inside one chunk is a single O(1) slice;
* a read of never-written space returns zeros without touching any
  chunk (the *all-zero fast path*);
* writes splice payload bytes into chunks through one ``memoryview``,
  no per-sector slicing.

The original per-sector dict store survives in the test suite as the
behavioural oracle: the differential property test
(``tests/simdisk/test_store.py``) drives both stores with the same
operation sequences and requires byte-identical results.

The store is not a crash-point surface by itself: physical-write
discipline (``note_write`` before mutation) is enforced at the
:class:`SimDisk` call sites by the ``crash-point-discipline`` lint
rule, which knows the store's mutator names.
"""

from __future__ import annotations

from typing import Dict

#: Default sectors per chunk: 64 x 512-byte sectors = 32 KB chunks,
#: larger than any common request, smaller than a track on the big
#: geometries — most references touch exactly one chunk.
DEFAULT_CHUNK_SECTORS = 64


class SectorStore:
    """Sparse, chunked, ``bytearray``-backed sector storage.

    Args:
        sector_size: bytes per sector (fixed for the store's lifetime).
        chunk_sectors: sectors per lazily-allocated chunk.
    """

    __slots__ = ("sector_size", "chunk_sectors", "_chunk_bytes", "_chunks")

    def __init__(
        self, sector_size: int, *, chunk_sectors: int = DEFAULT_CHUNK_SECTORS
    ) -> None:
        if sector_size <= 0:
            raise ValueError("sector size must be positive")
        if chunk_sectors <= 0:
            raise ValueError("chunk size must be positive")
        self.sector_size = sector_size
        self.chunk_sectors = chunk_sectors
        self._chunk_bytes = sector_size * chunk_sectors
        self._chunks: Dict[int, bytearray] = {}

    # ----------------------------------------------------------- read

    def read_range(self, start: int, n_sectors: int) -> bytes:
        """The bytes of ``n_sectors`` contiguous sectors from ``start``.

        Never-written sectors read as zeros.  The common case — the run
        lies inside one chunk — is a single slice (or a single zero
        allocation when the chunk was never written).
        """
        size = self.sector_size
        chunk_sectors = self.chunk_sectors
        index = start // chunk_sectors
        if index == (start + n_sectors - 1) // chunk_sectors:
            chunk = self._chunks.get(index)
            if chunk is None:
                return bytes(n_sectors * size)  # all-zero fast path
            offset = (start - index * chunk_sectors) * size
            return bytes(chunk[offset : offset + n_sectors * size])
        parts = []
        sector, remaining = start, n_sectors
        while remaining > 0:
            index = sector // chunk_sectors
            in_chunk = min(remaining, (index + 1) * chunk_sectors - sector)
            chunk = self._chunks.get(index)
            if chunk is None:
                parts.append(bytes(in_chunk * size))
            else:
                offset = (sector - index * chunk_sectors) * size
                parts.append(chunk[offset : offset + in_chunk * size])
            sector += in_chunk
            remaining -= in_chunk
        return b"".join(parts)

    # ---------------------------------------------------------- write

    def write_range(self, start: int, data: bytes, n_sectors: int) -> None:
        """Write the first ``n_sectors`` sectors' worth of ``data``.

        ``data`` may be longer than ``n_sectors * sector_size`` — the
        torn-write case, where only a prefix of the payload reaches the
        platter.  ``n_sectors`` of zero writes nothing.
        """
        if n_sectors <= 0:
            return
        size = self.sector_size
        chunk_sectors = self.chunk_sectors
        chunks = self._chunks
        index = start // chunk_sectors
        if index == (start + n_sectors - 1) // chunk_sectors:
            # Single-chunk fast path: one splice, no memoryview.
            chunk = chunks.get(index)
            if chunk is None:
                chunk = bytearray(self._chunk_bytes)
                chunks[index] = chunk
            offset = (start - index * chunk_sectors) * size
            n_bytes = n_sectors * size
            if len(data) != n_bytes:  # torn write: only the prefix lands
                data = data[:n_bytes]
            chunk[offset : offset + n_bytes] = data
            return
        view = memoryview(data)
        sector, taken, remaining = start, 0, n_sectors
        while remaining > 0:
            index = sector // chunk_sectors
            in_chunk = min(remaining, (index + 1) * chunk_sectors - sector)
            chunk = chunks.get(index)
            if chunk is None:
                chunk = bytearray(self._chunk_bytes)
                chunks[index] = chunk
            offset = (sector - index * chunk_sectors) * size
            n_bytes = in_chunk * size
            chunk[offset : offset + n_bytes] = view[taken : taken + n_bytes]
            sector += in_chunk
            taken += n_bytes
            remaining -= in_chunk
        view.release()

    def xor_byte(self, sector: int, byte_offset: int, mask: int) -> None:
        """Flip bits of one stored byte in place (at-rest corruption)."""
        chunk_sectors = self.chunk_sectors
        index = sector // chunk_sectors
        chunk = self._chunks.get(index)
        if chunk is None:
            chunk = bytearray(self._chunk_bytes)
            self._chunks[index] = chunk
        offset = (sector - index * chunk_sectors) * self.sector_size
        chunk[offset + byte_offset] ^= mask

    # ------------------------------------------------------- analysis

    def chunk_count(self) -> int:
        """Chunks currently allocated (sparseness probe for tests)."""
        return len(self._chunks)

    def __repr__(self) -> str:
        return (
            f"SectorStore({len(self._chunks)} chunks of "
            f"{self.chunk_sectors} x {self.sector_size} B)"
        )

