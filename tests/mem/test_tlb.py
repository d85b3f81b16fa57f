"""Tests for the two-level TLB.

The production levels keep what the replay engine drives: ``fill_rec``,
``invalidate_domain`` and ``TwoLevelTLB.domain_flush``.  Lookups (the
hit rule and the L2-to-L1 promote) are the engine's inlined code and
the reference interpreter's :class:`~tests.oracle.DictTwoLevelTLB`;
``test_array_models.py`` diffs the two.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.permissions import Perm
from repro.mem.tlb import TLBEntry, TLBLevel, TwoLevelTLB

from ..oracle import DictTwoLevelTLB


def entry(vpn, pkey=0, domain=0, perm=Perm.RW):
    return TLBEntry(vpn=vpn, pfn=vpn + 1000, perm=perm, pkey=pkey,
                    domain=domain)


def rec(vpn, pkey=0, domain=0):
    """An engine record ``(vpn, pfn, perm, pkey, domain, line_base,
    mem_penalty)``."""
    pfn = vpn + 1000
    return (vpn, pfn, Perm.RW, pkey, domain, pfn << 6, None)


def live(tlb):
    """The records a flat level holds."""
    return [r for r in tlb.recs if r is not None]


class TestTLBLevel:
    def test_miss_then_hit(self):
        tlb = TLBLevel(64, 4)
        assert tlb.slot_of.get(5) is None
        assert tlb.fill_rec(rec(5)) is None
        assert tlb.recs[tlb.slot_of[5]][1] == 1005

    def test_entries_must_divide_into_ways(self):
        with pytest.raises(ValueError):
            TLBLevel(63, 4)

    def test_lru_eviction_within_set(self):
        tlb = TLBLevel(4, 4)  # one set
        for vpn in range(4):
            tlb.fill_rec(rec(vpn))
        tlb.fill_rec(rec(0))  # a refill restamps: 1 is now LRU
        victim = tlb.fill_rec(rec(99))
        assert victim[0] == 1

    def test_fill_existing_vpn_replaces_without_eviction(self):
        tlb = TLBLevel(4, 4)
        tlb.fill_rec(rec(1, pkey=2))
        victim = tlb.fill_rec(rec(1, pkey=7))
        assert victim is None
        assert tlb.recs[tlb.slot_of[1]][3] == 7
        assert len(tlb) == 1

    def test_capacity_bounded(self):
        tlb = TLBLevel(64, 4)
        for vpn in range(1000):
            tlb.fill_rec(rec(vpn))
        assert len(tlb) <= 64

    def test_invalidate_domain(self):
        tlb = TLBLevel(64, 4)
        for vpn in range(12):
            tlb.fill_rec(rec(vpn, domain=vpn % 3))
        killed = tlb.invalidate_domain(1)
        assert killed == 4
        assert all(r[4] != 1 for r in live(tlb))
        assert len(tlb) == 8

    def test_invalidate_domain_twice_is_zero(self):
        tlb = TLBLevel(64, 4)
        tlb.fill_rec(rec(1, domain=5))
        assert tlb.invalidate_domain(5) == 1
        assert tlb.invalidate_domain(5) == 0

    def test_domain_index_survives_lru_eviction(self):
        tlb = TLBLevel(4, 4)
        for vpn in range(4):
            tlb.fill_rec(rec(vpn, domain=9))
        tlb.fill_rec(rec(50, domain=9))  # evicts vpn 0
        # Flushing the domain must count only live entries.
        assert tlb.invalidate_domain(9) == 4

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=200))
    def test_domain_index_matches_contents(self, vpns):
        """After arbitrary fills, flush-by-domain kills exactly the
        entries whose domain matches."""
        tlb = TLBLevel(16, 4)
        for vpn in vpns:
            tlb.fill_rec(rec(vpn, domain=vpn % 5))
        expected = sum(1 for r in live(tlb) if r[4] == 2)
        assert tlb.invalidate_domain(2) == expected
        assert all(r[4] != 2 for r in live(tlb))


class TestTwoLevelTLB:
    def test_l2_hit_promotes_to_l1(self):
        tlb = DictTwoLevelTLB(l1_entries=4, l1_ways=4,
                              l2_entries=64, l2_ways=4)
        tlb.fill(entry(1))
        # Push vpn 1 out of tiny L1 with conflicting fills.
        for vpn in range(2, 10):
            tlb.fill(entry(vpn))
        got, level = tlb.lookup(1)
        assert got is not None
        assert level == "l2"
        got, level = tlb.lookup(1)
        assert level == "l1"

    def test_full_miss(self):
        tlb = DictTwoLevelTLB()
        got, level = tlb.lookup(42)
        assert got is None
        assert level == "miss"

    def test_domain_flush_covers_both_levels(self):
        tlb = TwoLevelTLB(l1_entries=4, l1_ways=4,
                          l2_entries=64, l2_ways=4)
        for vpn in range(8):
            tlb.l1.fill_rec(rec(vpn, domain=3))
            tlb.l2.fill_rec(rec(vpn, domain=3))
        killed = tlb.domain_flush(3)
        assert killed == 4 + 8  # both levels contribute
        assert len(tlb.l1) == len(tlb.l2) == 0

    def test_miss_counting(self):
        tlb = DictTwoLevelTLB()
        tlb.lookup(7)
        tlb.fill(entry(7))
        tlb.lookup(7)
        assert tlb.misses == 1
        assert tlb.hits >= 1
