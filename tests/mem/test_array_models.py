"""Model equivalence: the array-backed TLB/cache vs the dict reference.

The replay engine's flat-array models (``repro.mem.tlb.TLBLevel``/
``TwoLevelTLB`` and ``repro.mem.cache.CacheLevel``/``CacheHierarchy``)
must make the *same decisions* (hit/miss, victim choice, invalidation
counts) as the reference interpreter's OrderedDict models
(``tests/oracle.py``) on any operation sequence.  The flat levels keep
only what the engine calls (``fill_rec``, ``invalidate_domain``,
``domain_flush``); the rules the engine inlines are spelled out here,
on the same containers: :func:`touch` (a hit restamps its slot) and
:func:`install` (a cache miss takes the set's first empty slot, else
its minimum-age line).  These tests drive both models with identical
randomized sequences and diff every observable after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import LINE_SHIFT, CacheHierarchy, CacheLevel
from repro.mem.tlb import TLBEntry, TLBLevel, TwoLevelTLB
from repro.permissions import Perm

from ..oracle import (DictCacheHierarchy, DictCacheLevel, DictTLBLevel,
                      DictTwoLevelTLB)


def _entry(vpn, pkey=0, domain=0):
    return TLBEntry(vpn=vpn, pfn=vpn + 1000, perm=Perm.RW, pkey=pkey,
                    domain=domain)


def _rec(entry):
    """The engine's record of a walk-filled entry."""
    return (entry.vpn, entry.pfn, entry.perm, entry.pkey, entry.domain,
            entry.pfn << 6, None)


def _fields(entry):
    return None if entry is None else \
        (entry.vpn, entry.pfn, entry.perm, entry.pkey, entry.domain)


def touch(level, key):
    """The engine's hit rule on a flat TLB or cache level: a hit
    restamps its slot with the level's age counter.  Returns the hit
    slot, or None on a miss; counts the outcome as the engine credits
    it."""
    slot = level.slot_of.get(key)
    if slot is None:
        level.misses += 1
        return None
    level.ages[slot] = level._age
    level._age += 1
    level.hits += 1
    return slot


def install(level: CacheLevel, line: int):
    """The engine's cache install of a missed line; returns the evicted
    victim line, if any."""
    base = (line % level.n_sets) * level.ways
    lines = level.lines
    ages = level.ages
    free = -1
    victim_slot = base
    victim_age = 1 << 62
    for s in range(base, base + level.ways):
        if lines[s] < 0:
            free = s
            break
        if ages[s] < victim_age:
            victim_age = ages[s]
            victim_slot = s
    victim = None
    if free < 0:
        free = victim_slot
        victim = lines[free]
        del level.slot_of[victim]
    lines[free] = line
    level.slot_of[line] = free
    ages[free] = level._age
    level._age += 1
    return victim


def _tlb_lookup(level: TLBLevel, vpn):
    slot = touch(level, vpn)
    return None if slot is None else level.recs[slot][:5]


# Operation encoding for the randomized driver: (op, operand) pairs on a
# deliberately tiny VPN space so sets collide, and long enough that a
# set evicts more than once (a victim rule that always took a set's
# first slot passed shorter lists).
_TLB_OPS = st.lists(
    st.tuples(st.sampled_from(["fill", "lookup", "inv_domain"]),
              st.integers(min_value=0, max_value=40)),
    min_size=40, max_size=120)


class TestArrayTLBLevelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=_TLB_OPS)
    def test_matches_reference(self, ops):
        ref = DictTLBLevel(16, 4)
        arr = TLBLevel(16, 4)
        for op, x in ops:
            if op == "fill":
                e = _entry(x, pkey=x % 5, domain=x % 3)
                victim = arr.fill_rec(_rec(e))
                assert _fields(ref.fill(e)) == \
                    (None if victim is None else victim[:5])
            elif op == "lookup":
                assert _fields(ref.lookup(x)) == _tlb_lookup(arr, x)
            else:
                assert ref.invalidate_domain(x % 3) == \
                    arr.invalidate_domain(x % 3)
            assert ref.hits == arr.hits
            assert ref.misses == arr.misses
            assert len(ref) == len(arr)
        assert sorted(e.vpn for e in ref) == sorted(arr.slot_of)

    def test_lru_victim_matches_after_touch(self):
        ref = DictTLBLevel(4, 4)
        arr = TLBLevel(4, 4)
        for vpn in range(4):
            ref.fill(_entry(vpn))
            arr.fill_rec(_rec(_entry(vpn)))
        ref.lookup(0)
        touch(arr, 0)
        assert ref.fill(_entry(99)).vpn == \
            arr.fill_rec(_rec(_entry(99)))[0] == 1

    def test_refill_existing_vpn_updates_in_place(self):
        ref = DictTLBLevel(4, 4)
        arr = TLBLevel(4, 4)
        assert ref.fill(_entry(1, pkey=2)) is None
        assert ref.fill(_entry(1, pkey=7)) is None
        assert arr.fill_rec(_rec(_entry(1, pkey=2))) is None
        assert arr.fill_rec(_rec(_entry(1, pkey=7))) is None
        assert ref.lookup(1).pkey == _tlb_lookup(arr, 1)[3] == 7
        assert len(ref) == len(arr) == 1


class TestArrayTwoLevelEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["access", "flush_domain"]),
                  st.integers(min_value=0, max_value=60)),
        min_size=40, max_size=150))
    def test_matches_reference(self, ops):
        ref = DictTwoLevelTLB(l1_entries=8, l1_ways=4, l2_entries=24,
                              l2_ways=6)
        arr = TwoLevelTLB(l1_entries=8, l1_ways=4, l2_entries=24,
                          l2_ways=6)
        for op, x in ops:
            if op == "access":
                re, rl = ref.lookup(x)
                # The engine's walk: an L2 hit is promoted into L1, a
                # full miss fills both levels.
                slot = touch(arr.l1, x)
                if slot is not None:
                    ae, al = arr.l1.recs[slot], "l1"
                else:
                    slot = touch(arr.l2, x)
                    if slot is not None:
                        ae, al = arr.l2.recs[slot], "l2"
                        arr.l1.fill_rec(ae)
                    else:
                        ae, al = None, "miss"
                assert (_fields(re), rl) == \
                    (None if ae is None else ae[:5], al)
                if re is None:
                    e = _entry(x, domain=x % 4)
                    ref.fill(e)
                    arr.l1.fill_rec(_rec(e))
                    arr.l2.fill_rec(_rec(e))
            else:
                assert ref.domain_flush(x % 4) == arr.domain_flush(x % 4)
            assert ref.hits == arr.hits
            assert ref.misses == arr.misses
            assert (ref.l1.hits, ref.l2.hits) == (arr.l1.hits, arr.l2.hits)


class TestArrayCacheEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(st.integers(min_value=0, max_value=64),
                          max_size=200))
    def test_level_matches_reference(self, lines):
        ref = DictCacheLevel(8 * 64, 4, latency=1)
        arr = CacheLevel(8 * 64, 4)
        for line in lines:
            hit = ref.lookup(line)
            assert hit == (touch(arr, line) is not None)
            if not hit:
                assert ref.fill(line) == install(arr, line)
            assert ref.hits == arr.hits
            assert ref.misses == arr.misses
            assert len(ref) == len(arr)

    @settings(max_examples=40, deadline=None)
    @given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 16),
                          max_size=200),
           mem_latency=st.sampled_from([120, 360]))
    def test_hierarchy_matches_reference(self, addrs, mem_latency):
        geometry = dict(l1_size=8 * 64, l1_ways=4, l2_size=32 * 64,
                        l2_ways=8)
        l1_latency, l2_latency = 2, 11
        ref = DictCacheHierarchy(**geometry, l1_latency=l1_latency,
                                 l2_latency=l2_latency)
        arr = CacheHierarchy(**geometry)
        l1, l2 = arr.l1, arr.l2
        for addr in addrs:
            # The engine's order: an L2 hit installs into L1; a line
            # that missed both levels installs into L2, then L1.
            line = addr >> LINE_SHIFT
            if touch(l1, line) is not None:
                latency = l1_latency
            elif touch(l2, line) is not None:
                install(l1, line)
                latency = l1_latency + l2_latency
            else:
                arr.mem_accesses += 1
                install(l2, line)
                install(l1, line)
                latency = l1_latency + l2_latency + mem_latency
            assert ref.access(addr, mem_latency) == latency
        assert (ref.l1.hits, ref.l1.misses) == (arr.l1.hits, arr.l1.misses)
        assert (ref.l2.hits, ref.l2.misses) == (arr.l2.hits, arr.l2.misses)
        assert ref.mem_accesses == arr.mem_accesses
