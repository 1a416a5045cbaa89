"""Tests for the set-associative LRU cache."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.cache.sa_cache import SetAssociativeCache
from repro.cache.state import CacheLine, LineState
from repro.errors import CacheConfigError


def small_cache(assoc=2, sets=4, block=32):
    return SetAssociativeCache(size_bytes=block * assoc * sets, block_size=block, assoc=assoc)


class TestGeometry:
    def test_paper_geometry(self):
        # Section 6: 256 KB, 4-way, 32-byte blocks.
        c = SetAssociativeCache(256 * 1024, 32, 4)
        assert c.num_sets == 2048
        assert c.capacity_blocks == 8192

    def test_rejects_non_power_of_two_size(self):
        with pytest.raises(Exception):
            SetAssociativeCache(1000, 32, 4)

    def test_rejects_zero_assoc(self):
        with pytest.raises(CacheConfigError):
            SetAssociativeCache(1024, 32, 0)

    def test_rejects_too_small(self):
        with pytest.raises(CacheConfigError):
            SetAssociativeCache(32, 32, 4)

    def test_set_index_masks(self):
        c = small_cache(sets=4)
        assert c.set_index(0) == 0
        assert c.set_index(5) == 1
        assert c.set_index(7) == 3


class TestInsertLookup:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.lookup(10) is None
        c.insert(10, LineState.SHARED)
        line = c.lookup(10)
        assert line is not None and line.state is LineState.SHARED
        assert 10 in c

    def test_insert_existing_upgrades_in_place(self):
        c = small_cache()
        c.insert(10, LineState.SHARED)
        victim = c.insert(10, LineState.EXCLUSIVE, dirty=True)
        assert victim is None
        line = c.lookup(10)
        assert line.state is LineState.EXCLUSIVE and line.dirty
        assert len(c) == 1

    def test_lru_eviction_within_set(self):
        c = small_cache(assoc=2, sets=1, block=32)
        c.insert(0, LineState.SHARED)
        c.insert(1, LineState.SHARED)
        c.touch(0)  # 1 becomes LRU
        victim = c.insert(2, LineState.SHARED)
        assert victim is not None and victim.block == 1
        assert 0 in c and 2 in c and 1 not in c

    def test_eviction_only_within_same_set(self):
        c = small_cache(assoc=1, sets=4)
        c.insert(0, LineState.SHARED)
        assert c.insert(1, LineState.SHARED) is None  # different set
        victim = c.insert(4, LineState.SHARED)  # same set as block 0
        assert victim.block == 0


class TestInvalidateDowngradeFlush:
    def test_invalidate(self):
        c = small_cache()
        c.insert(3, LineState.EXCLUSIVE, dirty=True)
        removed = c.invalidate(3)
        assert removed.dirty
        assert c.invalidate(3) is None
        assert 3 not in c

    def test_downgrade_dirty(self):
        c = small_cache()
        c.insert(3, LineState.EXCLUSIVE, dirty=True)
        assert c.downgrade(3) is True
        line = c.lookup(3)
        assert line.state is LineState.SHARED and not line.dirty

    def test_downgrade_clean_or_shared(self):
        c = small_cache()
        c.insert(3, LineState.EXCLUSIVE, dirty=False)
        assert c.downgrade(3) is False
        assert c.downgrade(3) is False  # already SHARED
        assert c.downgrade(99) is False  # absent

    def test_flush_all_returns_everything(self):
        c = small_cache()
        c.insert(0, LineState.SHARED)
        c.insert(1, LineState.EXCLUSIVE, dirty=True)
        flushed = c.flush_all()
        assert {line.block for line in flushed} == {0, 1}
        assert len(c) == 0


class TestLineInvariants:
    def test_invalid_line_rejected(self):
        with pytest.raises(ValueError):
            CacheLine(block=0, state=LineState.INVALID)

    def test_dirty_shared_rejected(self):
        with pytest.raises(ValueError):
            CacheLine(block=0, state=LineState.SHARED, dirty=True)


class TestProperties:
    @given(st.lists(st.integers(0, 63), max_size=200))
    def test_occupancy_never_exceeds_capacity(self, blocks):
        c = small_cache(assoc=2, sets=4)
        for b in blocks:
            c.insert(b, LineState.SHARED)
        assert len(c) <= c.capacity_blocks
        for cset in c.sets:
            assert len(cset) <= c.assoc

    @given(st.lists(st.integers(0, 63), max_size=200))
    def test_resident_blocks_map_to_their_set(self, blocks):
        c = small_cache(assoc=2, sets=4)
        for b in blocks:
            c.insert(b, LineState.SHARED)
        for idx, cset in enumerate(c.sets):
            for b in cset:
                assert c.set_index(b) == idx

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 15)), max_size=100))
    def test_matches_reference_lru_model(self, ops):
        """Fully-associative single-set cache must behave as textbook LRU."""
        c = SetAssociativeCache(size_bytes=4 * 32, block_size=32, assoc=4)
        assert c.num_sets == 1
        model: list[int] = []  # LRU order, front = least recent
        for is_touch, b in ops:
            if is_touch:
                line = c.touch(b)
                assert (line is not None) == (b in model)
                if b in model:
                    model.remove(b)
                    model.append(b)
            else:
                victim = c.insert(b, LineState.SHARED)
                if b in model:
                    assert victim is None
                    model.remove(b)
                    model.append(b)
                else:
                    if len(model) == 4:
                        assert victim is not None and victim.block == model.pop(0)
                    else:
                        assert victim is None
                    model.append(b)
            assert sorted(line.block for line in c.lines()) == sorted(model)
