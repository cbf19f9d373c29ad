"""The original per-sector store, kept as a test oracle.

:class:`LegacySectorStore` is the ``Dict[int, bytes]`` store the disk
model used before the chunked :class:`~repro.simdisk.store.SectorStore`
replaced it on the reference hot path.  No production path uses it;
the differential property test in ``test_store.py`` drives both stores
with the same operations and requires byte-identical results.
"""

from typing import Dict


class LegacySectorStore:
    """The original ``Dict[int, bytes]`` per-sector store."""

    __slots__ = ("sector_size", "_by_sector", "_zero")

    def __init__(self, sector_size: int) -> None:
        if sector_size <= 0:
            raise ValueError("sector size must be positive")
        self.sector_size = sector_size
        self._by_sector: Dict[int, bytes] = {}
        self._zero = bytes(sector_size)

    def read_range(self, start: int, n_sectors: int) -> bytes:
        zero = self._zero
        return b"".join(
            self._by_sector.get(sector, zero)
            for sector in range(start, start + n_sectors)
        )

    def write_range(self, start: int, data: bytes, n_sectors: int) -> None:
        size = self.sector_size
        for index in range(max(0, n_sectors)):
            offset = index * size
            self._by_sector[start + index] = bytes(data[offset : offset + size])

    def xor_byte(self, sector: int, byte_offset: int, mask: int) -> None:
        current = bytearray(self._by_sector.get(sector, self._zero))
        current[byte_offset] ^= mask
        self._by_sector[sector] = bytes(current)

    def chunk_count(self) -> int:
        return len(self._by_sector)

    def __repr__(self) -> str:
        return f"LegacySectorStore({len(self._by_sector)} sectors)"
