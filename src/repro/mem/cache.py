"""Set-associative data caches (L1D + L2) with LRU replacement.

Only hit/miss behaviour and latency matter to the study (the paper's
overheads are measured against a baseline run through the same caches), so
the caches track tags, not data.  Physical addresses index the caches; PMO
lines that miss all levels pay the NVM latency, others the DRAM latency.
"""

from __future__ import annotations

from typing import List

LINE_SHIFT = 6  # 64-byte lines
LINE_SIZE = 1 << LINE_SHIFT


class CacheLevel:
    """One set-associative, write-allocate cache level (tag-only).

    A modulo set index with per-set LRU, kept as a flat ``line -> slot``
    dict plus per-slot line/age lists mutated in place, so the replay
    engine (:mod:`repro.cpu.fast_timing`) can hoist the containers into
    locals.  Age stamps are strictly increasing; the minimum age in a
    set is the least recently touched line.  The engine inlines both
    rules: a hit restamps its slot with ``_age`` and bumps ``_age``; a
    miss installs into the set's first empty slot, else over its
    minimum-age victim.
    """

    __slots__ = ("ways", "n_sets", "slot_of", "lines", "ages", "_age",
                 "hits", "misses")

    def __init__(self, size_bytes: int, ways: int):
        lines = size_bytes // LINE_SIZE
        if lines % ways:
            raise ValueError("line count must be a multiple of ways")
        self.ways = ways
        self.n_sets = lines // ways
        self.slot_of: dict = {}
        self.lines: List[int] = [-1] * lines
        self.ages: List[int] = [0] * lines
        self._age = 1
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.slot_of)


class CacheHierarchy:
    """L1D + L2, plus the count of accesses that missed both levels.

    Table II: L1D 32KB/8-way; L2 1MB/16-way.  The replay engine
    classifies every access against its own copy of these levels,
    credits the counters here once per replay, and charges the
    latencies of ``config.cache``.
    """

    def __init__(self, *, l1_size: int = 32 << 10, l1_ways: int = 8,
                 l2_size: int = 1 << 20, l2_ways: int = 16):
        self.l1 = CacheLevel(l1_size, l1_ways)
        self.l2 = CacheLevel(l2_size, l2_ways)
        self.mem_accesses = 0

    def report_metrics(self, registry) -> None:
        """Report hit/miss counters into an obs MetricsRegistry
        (names are part of the ``docs/OBSERVABILITY.md`` contract)."""
        registry.counter("cache.l1d.hits").inc(self.l1.hits)
        registry.counter("cache.l1d.misses").inc(self.l1.misses)
        registry.counter("cache.l2.hits").inc(self.l2.hits)
        registry.counter("cache.l2.misses").inc(self.l2.misses)
        registry.counter("cache.mem_accesses").inc(self.mem_accesses)
