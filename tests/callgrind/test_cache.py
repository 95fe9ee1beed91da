"""Cache simulator tests: geometry, LRU, hierarchy."""

from __future__ import annotations

import pytest

from repro.callgrind import Cache, CacheConfig, CacheHierarchy


class TestConfig:
    def test_sets_computed(self):
        cfg = CacheConfig(size=32 * 1024, assoc=8, line_size=64)
        assert cfg.n_sets == 64

    def test_bad_line_size(self):
        with pytest.raises(ValueError):
            CacheConfig(line_size=48)

    def test_size_divisibility(self):
        with pytest.raises(ValueError):
            CacheConfig(size=1000, assoc=8, line_size=64)

    def test_non_power_of_two_set_count_rejected(self):
        """96 KiB / 8-way / 64 B lines gives 192 sets; indexing masks with
        n_sets - 1, so such a geometry would silently alias sets."""
        with pytest.raises(ValueError, match="power of two"):
            CacheConfig(size=96 * 1024, assoc=8, line_size=64)

    def test_near_miss_power_of_two_geometries_accepted(self):
        # The neighbouring valid geometries of the rejected 96 KiB one.
        assert CacheConfig(size=64 * 1024, assoc=8, line_size=64).n_sets == 128
        assert CacheConfig(size=128 * 1024, assoc=8, line_size=64).n_sets == 256
        # Non-power-of-two *associativity* is fine as long as sets are 2^k.
        assert CacheConfig(size=96 * 1024, assoc=12, line_size=64).n_sets == 128

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size=0, assoc=8, line_size=64)

    @pytest.mark.parametrize("assoc", [0, -8])
    def test_bad_assoc_rejected(self, assoc):
        with pytest.raises(ValueError, match="assoc must be at least 1"):
            CacheConfig(size=32 * 1024, assoc=assoc, line_size=64)


class TestLRU:
    def make(self, assoc=2, sets=2):
        return Cache(CacheConfig(size=assoc * sets * 64, assoc=assoc, line_size=64))

    def test_cold_miss_then_hit(self):
        c = self.make()
        assert c.access_line(0) is True
        assert c.access_line(0) is False

    def test_lru_eviction(self):
        c = self.make(assoc=2, sets=1)
        c.access_line(0)
        c.access_line(1)
        c.access_line(0)      # 1 becomes LRU
        assert c.access_line(2) is True   # evicts 1
        assert c.access_line(0) is False  # 0 retained
        assert c.access_line(1) is True   # 1 was evicted

    def test_sets_are_independent(self):
        c = self.make(assoc=1, sets=2)
        assert c.access_line(0) is True   # set 0
        assert c.access_line(1) is True   # set 1
        assert c.access_line(0) is False
        assert c.access_line(1) is False

    def test_lines_of_straddling_access(self):
        c = self.make()
        assert list(c.lines_of(60, 8)) == [0, 1]
        assert list(c.lines_of(0, 64)) == [0]
        assert list(c.lines_of(64, 1)) == [1]

    def test_counters(self):
        c = self.make()
        c.access_line(0)
        c.access_line(0)
        c.access_line(99)
        assert c.accesses == 3
        assert c.misses == 2


class TestHierarchy:
    def test_ll_filters_d1_misses(self):
        h = CacheHierarchy(
            d1=CacheConfig(size=128, assoc=1, line_size=64),
            ll=CacheConfig(size=4096, assoc=4, line_size=64),
        )
        r1 = h.access(0, 8)
        assert (r1.l1_misses, r1.ll_misses) == (1, 1)
        # Thrash D1 set 0 while LL retains both lines.
        h.access(128, 8)   # same D1 set, evicts line 0 from D1
        r3 = h.access(0, 8)
        assert r3.l1_misses == 1
        assert r3.ll_misses == 0

    def test_hit_reports_no_misses(self):
        h = CacheHierarchy()
        h.access(0, 8)
        r = h.access(0, 8)
        assert (r.l1_misses, r.ll_misses) == (0, 0)

    def test_mismatched_line_sizes_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy(
                d1=CacheConfig(line_size=32, size=1024, assoc=1),
                ll=CacheConfig(line_size=64),
            )

    def test_large_access_counts_every_line(self):
        h = CacheHierarchy()
        r = h.access(0, 640)
        assert r.l1_misses == 10
