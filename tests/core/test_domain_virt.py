"""Tests for hardware domain virtualization (DRT + PT + PTLB)."""

import pytest

from repro.permissions import Perm


@pytest.fixture
def h(harness):
    return harness("domain_virt")


class TestNoShootdowns:
    def test_many_domains_no_tlb_invalidations(self, h):
        """The design's headline property: no TLB shootdowns, ever."""
        domains = [h.add_pmo(size=1 << 20, initial=Perm.R)
                   for _ in range(64)]
        for domain in domains:
            h.access(domain)
        assert h.stats.evictions == 0
        assert h.stats.tlb_entries_invalidated == 0
        assert h.stats.buckets["tlb_invalidations"] == 0

    def test_tlb_entries_survive_domain_churn(self, h):
        domains = [h.add_pmo(size=1 << 20, initial=Perm.R)
                   for _ in range(64)]
        for domain in domains:
            h.access(domain)
        misses_before = h.tlb.misses
        for domain in domains[:8]:
            h.access(domain)  # translations are still cached
        assert h.tlb.misses == misses_before


class TestPTLBAccounting:
    def test_hit_costs_one_cycle_in_access_latency(self, h):
        domain = h.add_pmo(initial=Perm.R)
        h.access(domain)  # first access: PTLB miss
        before = h.stats.buckets["access_latency"]
        h.access(domain)
        assert h.stats.buckets["access_latency"] == before + 1

    def test_miss_costs_thirty_cycles(self, h):
        domain = h.add_pmo(initial=Perm.R)
        h.access(domain)
        assert h.stats.buckets["ptlb_misses"] == 30
        assert h.stats.ptlb_misses_count == 1

    def test_seventeen_domains_thrash_ptlb(self, h):
        domains = [h.add_pmo(size=1 << 20, initial=Perm.R)
                   for _ in range(17)]
        for _ in range(3):
            for domain in domains:
                h.access(domain)
        # Round-robin over 17 domains with 16 entries: every access a miss.
        assert h.stats.ptlb_misses_count > 17

    def test_domainless_access_skips_ptlb(self, h):
        from repro.mem.tlb import TLBEntry
        vma = h.kernel.map_volatile(h.process, 1 << 16)
        pte = h.kernel.ensure_mapped(h.process, vma.base)
        entry = TLBEntry(vpn=vma.base >> 12, pfn=pte.pfn, perm=pte.perm)
        before = h.stats.cycles
        assert h.scheme.check_access(h.tid, entry, False)
        assert h.stats.cycles == before


class TestSetperm:
    def test_setperm_completes_in_ptlb(self, h):
        domain = h.add_pmo(initial=Perm.R)
        h.access(domain)  # PTLB now caches the domain
        before = h.stats.ptlb_misses_count
        h.setperm(domain, Perm.RW)
        assert h.stats.ptlb_misses_count == before  # no PT lookup needed
        cached = h.scheme.ptlb.peek(domain)
        assert cached.dirty and cached.perm == Perm.RW

    def test_dirty_entry_written_back_on_eviction(self, h):
        target = h.add_pmo(initial=Perm.R)
        h.setperm(target, Perm.RW)  # dirty PTLB entry, PT still says R
        assert h.scheme.pt.get(target, h.tid) == Perm.R
        # Thrash the PTLB until the dirty entry is evicted.
        others = [h.add_pmo(size=1 << 20, initial=Perm.R)
                  for _ in range(20)]
        for domain in others:
            h.access(domain)
        assert h.scheme.pt.get(target, h.tid) == Perm.RW


class TestContextSwitch:
    def test_ptlb_flushed_but_tlb_kept(self, h):
        domain = h.add_pmo(initial=Perm.R)
        h.access(domain)
        tlb_misses_before = h.tlb.misses
        h.context_switch(h.tid, h.tid)
        assert len(h.scheme.ptlb) == 0
        h.access(domain)
        # Translation still cached: no new TLB miss after the switch.
        assert h.tlb.misses == tlb_misses_before

    def test_dirty_permissions_written_back_on_switch(self, h):
        t2 = h.spawn_thread()
        domain = h.add_pmo(initial=Perm.NONE)
        h.setperm(domain, Perm.RW)
        h.context_switch(h.tid, t2)
        assert h.scheme.pt.get(domain, h.tid) == Perm.RW

    def test_threads_see_their_own_pt_rows(self, h):
        t2 = h.spawn_thread()
        domain = h.add_pmo(initial=Perm.NONE)
        h.setperm(domain, Perm.RW)
        h.context_switch(h.tid, t2)
        assert not h.access(domain, tid=t2)
        h.context_switch(t2, h.tid)
        assert h.access(domain, is_write=True)


class TestDetach:
    def test_detach_clears_all_state(self, h):
        domain = h.add_pmo(initial=Perm.R)
        h.access(domain)
        assert h.scheme.pt.get(domain, h.tid) == Perm.R
        h.scheme.detach_domain(domain)
        assert domain not in h.scheme.attached
        assert h.scheme.pt.get(domain, h.tid) == Perm.NONE
        assert domain not in h.scheme.ptlb

    def test_fill_tags_is_domainless_after_detach(self, h):
        domain = h.add_pmo(initial=Perm.R)
        vma = h.vma(domain)
        assert h.scheme.fill_tags(vma, h.tid) == (0, domain)
        h.scheme.detach_domain(domain)
        assert h.scheme.fill_tags(vma, h.tid) == (0, 0)
