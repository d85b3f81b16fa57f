"""Model equivalence: the array-backed TLB/cache vs the dict reference.

The replay engine's flat-array models (``repro.mem.tlb.TLBLevel``/
``TwoLevelTLB`` and ``repro.mem.cache.CacheLevel``/``CacheHierarchy``)
must make the *same decisions* (hit/miss, victim choice, invalidation
counts) as the reference interpreter's OrderedDict models
(``tests/oracle.py``) on any operation sequence.  These tests drive
both models with identical randomized sequences and diff every
observable after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import CacheHierarchy, CacheLevel
from repro.mem.tlb import TLBEntry, TLBLevel, TwoLevelTLB
from repro.permissions import Perm

from ..oracle import (DictCacheHierarchy, DictCacheLevel, DictTLBLevel,
                      DictTwoLevelTLB, cache_access)


def _entry(vpn, pkey=0, domain=0):
    return TLBEntry(vpn=vpn, pfn=vpn + 1000, perm=Perm.RW, pkey=pkey,
                    domain=domain)


# Operation encoding for the randomized driver: (op, operand) pairs on a
# deliberately tiny VPN space so sets collide and evictions happen.
_TLB_OPS = st.lists(
    st.tuples(st.sampled_from(["fill", "lookup", "invalidate",
                               "inv_domain", "inv_all"]),
              st.integers(min_value=0, max_value=40)),
    max_size=120)


class TestArrayTLBLevelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=_TLB_OPS)
    def test_matches_reference(self, ops):
        ref = DictTLBLevel(16, 4)
        arr = TLBLevel(16, 4)
        for op, x in ops:
            if op == "fill":
                e = _entry(x, pkey=x % 5, domain=x % 3)
                assert ref.fill(e) == arr.fill(e)
            elif op == "lookup":
                assert ref.lookup(x) == arr.lookup(x)
            elif op == "invalidate":
                assert ref.invalidate(x) == arr.invalidate(x)
            elif op == "inv_domain":
                assert ref.invalidate_domain(x % 3) == \
                    arr.invalidate_domain(x % 3)
            else:
                assert ref.invalidate_all() == arr.invalidate_all()
            assert ref.hits == arr.hits
            assert ref.misses == arr.misses
            assert len(ref) == len(arr)
        assert sorted(e.vpn for e in ref) == sorted(e.vpn for e in arr)

    def test_lru_victim_matches_after_touch(self):
        ref = DictTLBLevel(4, 4)
        arr = TLBLevel(4, 4)
        for vpn in range(4):
            ref.fill(_entry(vpn))
            arr.fill(_entry(vpn))
        ref.lookup(0)
        arr.lookup(0)
        assert ref.fill(_entry(99)).vpn == arr.fill(_entry(99)).vpn == 1

    def test_refill_existing_vpn_updates_in_place(self):
        ref = DictTLBLevel(4, 4)
        arr = TLBLevel(4, 4)
        for level in (ref, arr):
            assert level.fill(_entry(1, pkey=2)) is None
            assert level.fill(_entry(1, pkey=7)) is None
            assert level.lookup(1).pkey == 7
            assert len(level) == 1


class TestArrayTwoLevelEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["access", "flush_domain", "flush_all"]),
                  st.integers(min_value=0, max_value=60)),
        max_size=150))
    def test_matches_reference(self, ops):
        ref = DictTwoLevelTLB(l1_entries=8, l1_ways=4, l2_entries=24,
                              l2_ways=6)
        arr = TwoLevelTLB(l1_entries=8, l1_ways=4, l2_entries=24,
                          l2_ways=6)
        for op, x in ops:
            if op == "access":
                re, rl = ref.lookup(x)
                ae, al = arr.lookup(x)
                assert (re, rl) == (ae, al)
                if re is None:
                    e = _entry(x, domain=x % 4)
                    ref.fill(e)
                    arr.fill(e)
            elif op == "flush_domain":
                assert ref.domain_flush(x % 4) == arr.domain_flush(x % 4)
            else:
                assert ref.invalidate_all() == arr.invalidate_all()
            assert ref.hits == arr.hits
            assert ref.misses == arr.misses
            assert (ref.l1.hits, ref.l2.hits) == (arr.l1.hits, arr.l2.hits)


class TestArrayCacheEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(st.integers(min_value=0, max_value=64),
                          max_size=200))
    def test_level_matches_reference(self, lines):
        ref = DictCacheLevel(8 * 64, 4, latency=1)
        arr = CacheLevel(8 * 64, 4, latency=1)
        for line in lines:
            assert ref.lookup(line) == arr.lookup(line)
            assert ref.fill(line) == arr.fill(line)
            assert ref.hits == arr.hits
            assert ref.misses == arr.misses
            assert len(ref) == len(arr)

    @settings(max_examples=40, deadline=None)
    @given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 16),
                          max_size=200),
           mem_latency=st.sampled_from([120, 360]))
    def test_hierarchy_matches_reference(self, addrs, mem_latency):
        geometry = dict(l1_size=8 * 64, l1_ways=4, l1_latency=1,
                        l2_size=32 * 64, l2_ways=8, l2_latency=8)
        ref = DictCacheHierarchy(**geometry)
        arr = CacheHierarchy(**geometry)
        for addr in addrs:
            assert ref.access(addr, mem_latency) == \
                cache_access(arr, addr, mem_latency)
        assert (ref.l1.hits, ref.l1.misses) == (arr.l1.hits, arr.l1.misses)
        assert (ref.l2.hits, ref.l2.misses) == (arr.l2.hits, arr.l2.misses)
        assert ref.mem_accesses == arr.mem_accesses
