"""Sector stores: the chunked fast store against the legacy oracle.

:class:`SectorStore` replaced the original per-sector dict store on the
disk's reference hot path (PR 8); :class:`LegacySectorStore` keeps the
original implementation as a behavioural oracle.  The differential
property test drives both with the same operation sequences — writes,
torn-write prefixes, at-rest corruption, reads of written and of
never-written space — and requires byte-identical results throughout.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simdisk.store import SectorStore
from tests.simdisk.legacy_store import LegacySectorStore

SECTOR = 512
#: Small chunk size so sequences routinely cross chunk boundaries.
CHUNK_SECTORS = 4
#: Sector space the fuzzed operations roam over (spans many chunks).
SPACE = 64


def _payload(token: int, n_sectors: int) -> bytes:
    return bytes((token + i) % 256 for i in range(n_sectors * SECTOR))


@st.composite
def store_ops(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        kind = draw(st.sampled_from(["write", "torn", "read", "xor"]))
        start = draw(st.integers(min_value=0, max_value=SPACE - 1))
        n = draw(st.integers(min_value=1, max_value=min(9, SPACE - start)))
        token = draw(st.integers(min_value=0, max_value=255))
        written = draw(st.integers(min_value=0, max_value=n))
        offset = draw(st.integers(min_value=0, max_value=SECTOR - 1))
        mask = draw(st.integers(min_value=1, max_value=255))
        ops.append((kind, start, n, token, written, offset, mask))
    return ops


class TestDifferential:
    @given(store_ops())
    @settings(max_examples=200, deadline=None)
    def test_chunked_store_matches_legacy_oracle(self, ops):
        fast = SectorStore(SECTOR, chunk_sectors=CHUNK_SECTORS)
        oracle = LegacySectorStore(SECTOR)
        for kind, start, n, token, written, offset, mask in ops:
            if kind == "write":
                data = _payload(token, n)
                fast.write_range(start, data, n)
                oracle.write_range(start, data, n)
            elif kind == "torn":
                # The full payload is offered but only a prefix lands.
                data = _payload(token, n)
                fast.write_range(start, data, written)
                oracle.write_range(start, data, written)
            elif kind == "xor":
                fast.xor_byte(start, offset, mask)
                oracle.xor_byte(start, offset, mask)
            else:
                assert fast.read_range(start, n) == oracle.read_range(start, n)
        # Whatever the interleaving, the full space reads identically.
        assert fast.read_range(0, SPACE) == oracle.read_range(0, SPACE)


class TestSectorStore:
    def test_never_written_reads_zero(self):
        store = SectorStore(SECTOR)
        assert store.read_range(3, 5) == bytes(5 * SECTOR)

    def test_zero_read_allocates_nothing(self):
        store = SectorStore(SECTOR)
        store.read_range(0, 64)
        assert store.chunk_count() == 0

    def test_sparse_writes_stay_sparse(self):
        store = SectorStore(SECTOR, chunk_sectors=4)
        store.write_range(0, bytes(SECTOR), 1)
        store.write_range(400, bytes(SECTOR), 1)
        assert store.chunk_count() == 2

    def test_cross_chunk_round_trip(self):
        store = SectorStore(SECTOR, chunk_sectors=4)
        data = _payload(7, 10)  # spans three 4-sector chunks
        store.write_range(2, data, 10)
        assert store.read_range(2, 10) == data

    def test_torn_write_lands_prefix_only(self):
        store = SectorStore(SECTOR)
        store.write_range(0, _payload(1, 4), 2)
        assert store.read_range(0, 2) == _payload(1, 4)[: 2 * SECTOR]
        assert store.read_range(2, 2) == bytes(2 * SECTOR)

    def test_zero_sector_write_is_a_noop(self):
        store = SectorStore(SECTOR)
        store.write_range(0, _payload(1, 1), 0)
        assert store.chunk_count() == 0

    def test_xor_byte_flips_in_place(self):
        store = SectorStore(SECTOR)
        store.write_range(5, bytes(SECTOR), 1)
        store.xor_byte(5, 10, 0xFF)
        assert store.read_range(5, 1)[10] == 0xFF

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            SectorStore(0)
        with pytest.raises(ValueError):
            SectorStore(SECTOR, chunk_sectors=0)
        with pytest.raises(ValueError):
            LegacySectorStore(-1)
