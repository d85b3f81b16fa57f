"""Tests for the cache hierarchy.

The production levels are the containers the replay engine drives; the
lookup/fill rules live in the engine (inlined) and in the reference
interpreter's dict levels (``tests/oracle.py``), which these tests pin
and ``test_array_models.py`` diffs against the flat containers.
"""

import pytest

from repro.mem.cache import LINE_SIZE, CacheLevel

from ..oracle import DictCacheHierarchy, DictCacheLevel


class TestCacheLevel:
    def test_miss_then_hit(self):
        cache = DictCacheLevel(1 << 10, 4, latency=1)
        assert not cache.lookup(5)
        cache.fill(5)
        assert cache.lookup(5)

    def test_line_count_must_divide(self):
        with pytest.raises(ValueError):
            CacheLevel(64 * 5, 4)

    def test_lru_within_set(self):
        cache = DictCacheLevel(4 * LINE_SIZE, 4, latency=1)  # one set
        for line in range(4):
            cache.fill(line)
        cache.lookup(0)
        victim = cache.fill(77)
        assert victim == 1

    def test_capacity(self):
        cache = DictCacheLevel(1 << 10, 4, latency=1)  # 16 lines
        for line in range(100):
            cache.fill(line)
        assert len(cache) <= 16


class TestCacheHierarchy:
    """The reference interpreter's per-access path."""

    def make(self):
        return DictCacheHierarchy(l1_size=1 << 10, l1_ways=4, l1_latency=1,
                                  l2_size=1 << 14, l2_ways=4, l2_latency=8)

    def test_cold_miss_pays_memory_latency(self):
        caches = self.make()
        assert caches.access(0x1000, 360) == 1 + 8 + 360

    def test_second_access_is_l1_hit(self):
        caches = self.make()
        caches.access(0x1000, 360)
        assert caches.access(0x1000, 360) == 1

    def test_same_line_shares_hit(self):
        caches = self.make()
        caches.access(0x1000, 120)
        assert caches.access(0x1000 + LINE_SIZE - 1, 120) == 1

    def test_l2_hit_after_l1_eviction(self):
        caches = self.make()
        caches.access(0x0, 120)
        # Evict line 0 from tiny L1 with 4 conflicting lines (same L1 set,
        # different L2 sets is fine: L2 is bigger).
        n_l1_sets = caches.l1.n_sets
        for i in range(1, 5):
            caches.access(i * n_l1_sets * LINE_SIZE, 120)
        latency = caches.access(0x0, 120)
        assert latency == 1 + 8  # L2 hit

    def test_memory_access_counter(self):
        caches = self.make()
        caches.access(0x0, 120)
        caches.access(0x0, 120)
        caches.access(0x40000, 120)
        assert caches.mem_accesses == 2

    def test_dram_vs_nvm_latency_passthrough(self):
        caches = self.make()
        dram = caches.access(0x10000, 120)
        nvm = caches.access(0x20000, 360)
        assert nvm - dram == 240
