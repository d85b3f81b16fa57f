"""Tests for hardware MPK virtualization (DTT + DTTLB + key remapping)."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.permissions import Perm


@pytest.fixture
def h(harness):
    return harness("mpk_virt")


class TestUnlimitedDomains:
    def test_far_more_than_16_domains_attach(self, h):
        for _ in range(40):
            h.add_pmo(size=1 << 20, initial=Perm.R)
        assert len(h.scheme.dtt) == 40

    def test_all_domains_accessible_with_permission(self, h):
        domains = [h.add_pmo(size=1 << 20, initial=Perm.R)
                   for _ in range(40)]
        assert all(h.access(d) for d in domains)


class TestKeyAssignment:
    def test_first_16_domains_use_free_keys_without_eviction(self, h):
        domains = [h.add_pmo(size=1 << 20, initial=Perm.R)
                   for _ in range(16)]
        for domain in domains:
            h.access(domain)
        assert h.stats.evictions == 0
        assert not h.scheme.free_keys

    def test_17th_active_domain_evicts(self, h):
        domains = [h.add_pmo(size=1 << 20, initial=Perm.R)
                   for _ in range(17)]
        for domain in domains:
            h.access(domain)
        assert h.stats.evictions == 1

    def test_eviction_invalidates_victim_tlb_entries(self, h):
        domains = [h.add_pmo(size=1 << 20, initial=Perm.R)
                   for _ in range(17)]
        for domain in domains[:16]:
            h.access(domain)
        victim_counted_before = h.stats.tlb_entries_invalidated
        h.access(domains[16])
        assert h.stats.tlb_entries_invalidated > victim_counted_before

    def test_shootdown_cost_scales_with_threads(self, harness):
        single = harness("mpk_virt")
        domains = [single.add_pmo(size=1 << 20, initial=Perm.R)
                   for _ in range(17)]
        for domain in domains:
            single.access(domain)
        single_cost = single.stats.buckets["tlb_invalidations"]

        multi = harness("mpk_virt")
        multi.spawn_thread()
        multi.spawn_thread()
        domains = [multi.add_pmo(size=1 << 20, initial=Perm.R)
                   for _ in range(17)]
        for domain in domains:
            multi.access(domain)
        assert multi.stats.buckets["tlb_invalidations"] == 3 * single_cost

    def test_victim_revival_reassigns_a_key(self, h):
        domains = [h.add_pmo(size=1 << 20, initial=Perm.R)
                   for _ in range(17)]
        for domain in domains:
            h.access(domain)
        # The first victim must be accessible again (new key assigned).
        evicted = next(d for d in domains
                       if h.scheme.dtt.by_domain(d).key == 0)
        assert h.access(evicted)
        assert h.scheme.dtt.by_domain(evicted).key != 0


class TestSetpermSemantics:
    def test_setperm_does_not_assign_keys(self, h):
        """Section IV-D: key assignment happens on the TLB-miss path, so
        a SETPERM sweep over many unmapped domains causes no shootdowns."""
        domains = [h.add_pmo(size=1 << 20) for _ in range(32)]
        for domain in domains:
            h.setperm(domain, Perm.RW)
        assert h.stats.evictions == 0

    def test_setperm_on_keyed_domain_updates_pkru(self, h):
        domain = h.add_pmo(initial=Perm.R)
        h.access(domain)  # gives the domain a key
        h.setperm(domain, Perm.RW)
        assert h.access(domain, is_write=True)
        h.setperm(domain, Perm.R)
        assert not h.access(domain, is_write=True)

    def test_single_pmo_costs_match_default_mpk(self, harness):
        """Table V: with one PMO, MPK virtualization == default MPK."""
        mpk = harness("mpk")
        virt = harness("mpk_virt")
        for h in (mpk, virt):
            domain = h.add_pmo(initial=Perm.NONE)
            h.access(domain, offset=8192) if False else None
            for _ in range(50):
                h.setperm(domain, Perm.RW)
                h.access(domain, is_write=True)
                h.setperm(domain, Perm.NONE)
        assert (virt.stats.buckets["perm_change"]
                == mpk.stats.buckets["perm_change"])
        assert virt.stats.buckets["tlb_invalidations"] == 0

    def test_dtt_miss_charged_on_dttlb_miss(self, h):
        domains = [h.add_pmo(size=1 << 20) for _ in range(17)]
        for domain in domains:  # 17 domains thrash the 16-entry DTTLB
            h.setperm(domain, Perm.R)
        h.setperm(domains[0], Perm.RW)
        assert h.stats.buckets["dtt_misses"] >= 30


class TestContextSwitch:
    def test_dttlb_flushed(self, h):
        domain = h.add_pmo(initial=Perm.R)
        h.access(domain)
        assert len(h.scheme.dttlb) > 0
        h.context_switch(h.tid, h.tid)
        assert len(h.scheme.dttlb) == 0

    def test_dirty_key_mapping_written_back(self, h):
        domain = h.add_pmo(initial=Perm.R)
        h.access(domain)
        key_before = h.scheme.dtt.by_domain(domain).key
        h.context_switch(h.tid, h.tid)
        assert h.scheme.dtt.by_domain(domain).key == key_before

    def test_pkru_reconstructed_for_incoming_thread(self, h):
        t2 = h.spawn_thread()
        domain = h.add_pmo(initial=Perm.NONE)
        h.scheme.set_initial_perm(domain, t2, Perm.R)
        h.setperm(domain, Perm.RW)
        h.access(domain)  # key assigned under thread 1
        h.context_switch(h.tid, t2)
        assert h.access(domain, tid=t2)                 # R from the DTT
        assert not h.access(domain, tid=t2, is_write=True)


class TestDetach:
    def test_detach_releases_key(self, h):
        domain = h.add_pmo(initial=Perm.R)
        h.access(domain)
        free_before = len(h.scheme.free_keys)
        h.scheme.detach_domain(domain)
        assert len(h.scheme.free_keys) == free_before + 1


class TestMetrics:
    def test_dtt_walks_count_dttlb_misses(self, h):
        domains = [h.add_pmo(size=1 << 20, initial=Perm.R)
                   for _ in range(20)]
        for domain in domains:
            h.access(domain)
        h.context_switch(h.tid, h.tid)
        h.setperm(domains[0], Perm.RW)
        registry = MetricsRegistry()
        h.scheme.report_metrics(registry)
        walks = registry.value("dtt.walks")
        assert walks == registry.value("dttlb.misses")
        assert walks == h.stats.dttlb_misses == 21
