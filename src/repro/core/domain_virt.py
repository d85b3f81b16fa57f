"""Hardware Domain Virtualization — the paper's second proposed design.

Foregoes protection keys entirely.  TLB entries carry a domain ID filled
from the DRT (walked in parallel with the page table — no extra TLB-miss
cost, so the model keeps only the DRT's set of attached domains);
per-thread domain permissions live in the Permission Table, cached by a
16-entry PTLB.  SETPERM completes in the PTLB; key remapping and TLB
shootdowns disappear.  The price: a PTLB lookup on *every* domain access,
even when the data hits in L1 (Section IV-E, the "Access latency" row of
Table VII).

Charging map:

* SETPERM instruction                 → ``perm_change``   (27 cycles)
* PTLB add/modify, writebacks         → ``entry_changes`` (1 cycle each)
* PTLB miss → Permission Table lookup → ``ptlb_misses``   (30 cycles)
* PTLB lookup on a domain access      → ``access_latency`` (1 cycle)
"""

from __future__ import annotations

from typing import Set

from ..errors import DomainError
from ..permissions import Perm, strictest
from ..mem.tlb import TLBEntry
from ..os.address_space import VMA
from .lookaside import LookasideBuffer
from .permission_table import PermissionTable, PTLBEntry
from .schemes import CostDescriptor, ProtectionScheme, register_scheme


@register_scheme
class DomainVirtScheme(ProtectionScheme):
    """Hardware domain virtualization (DRT + PT + PTLB)."""

    name = "domain_virt"
    registry_tags = {"multi_pmo": 3, "single_pmo": 2}
    cost = CostDescriptor(switch="wrpkru", check="ptlb")
    config_section = "domain_virt"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        cfg = self.config.domain_virt
        #: The DRT, reduced to the domains it holds: a DRT walk only
        #: names the domain of the VMA a TLB miss resolved, and it is free.
        self.attached: Set[int] = set()
        self.pt = PermissionTable()
        self.ptlb = LookasideBuffer(cfg.ptlb_entries, "ptlb")
        self._current_tid: int = -1

    @classmethod
    def charge_cycles(cls, config) -> tuple:
        """Every cycle charge the hooks below book (the charging map)."""
        cfg = config.domain_virt
        return (config.mpk.wrpkru_cycles, cfg.ptlb_access_cycles,
                cfg.ptlb_miss_cycles, cfg.ptlb_entry_change_cycles)

    # -- setup hooks --------------------------------------------------------------

    def attach_domain(self, vma: VMA, intent: Perm) -> None:
        if vma.pmo_id in self.attached:
            raise DomainError(f"domain {vma.pmo_id} already attached")
        self.attached.add(vma.pmo_id)

    def detach_domain(self, domain: int) -> None:
        if domain not in self.attached:
            raise DomainError(f"domain {domain} not attached")
        self.attached.remove(domain)
        self.ptlb.invalidate(domain)
        self.pt.drop_domain(domain)

    def set_initial_perm(self, domain: int, tid: int, perm: Perm) -> None:
        self.pt.set(domain, tid, perm)

    # -- PTLB plumbing ----------------------------------------------------------------

    def _note_thread(self, tid: int) -> None:
        # The PTLB caches permissions of the running thread only; the
        # replay engine reports switches via context_switch, but guard
        # against direct driving in unit tests.
        if self._current_tid == -1:
            self._current_tid = tid

    def _ptlb_fetch(self, domain: int, tid: int) -> PTLBEntry:
        """PTLB lookup; on miss, fetch from the PT (30 cycles)."""
        cached = self.ptlb.lookup(domain)
        if cached is not None:
            return cached
        return self._ptlb_refill(domain, tid)

    def _ptlb_refill(self, domain: int, tid: int) -> PTLBEntry:
        """The PTLB miss path: PT fetch, insert, dirty-victim writeback.

        Callers have already taken (and counted) the missing lookup.
        """
        cfg = self.config.domain_virt
        self.stats.charge("ptlb_misses", cfg.ptlb_miss_cycles)
        self.stats.ptlb_misses_count += 1
        if self._ev is not None:
            self._ev.emit("pt_walk", domain=domain)
        cached = PTLBEntry(domain=domain, perm=self.pt.get(domain, tid))
        victim = self.ptlb.insert(cached)
        if victim is not None and victim.dirty:
            self.pt.set(victim.domain, tid, victim.perm)
            self.stats.charge("entry_changes",
                              cfg.ptlb_entry_change_cycles)
        return cached

    # -- measured hooks -------------------------------------------------------------------

    def perm_switch(self, tid: int, domain: int, perm: Perm) -> None:
        cfg = self.config.domain_virt
        self._note_thread(tid)
        self.stats.charge("perm_change", self.config.mpk.wrpkru_cycles)
        cached = self._ptlb_fetch(domain, tid)
        cached.perm = perm
        cached.dirty = True
        self.stats.charge("entry_changes", cfg.ptlb_entry_change_cycles)

    def fill_tags(self, vma: VMA, tid: int) -> tuple:
        # The DRT walk overlaps the page-table walk and the DRT is
        # shallower, so no extra cycles are charged (Section V).
        domain = vma.pmo_id
        return 0, (domain if domain in self.attached else 0)

    def check_access(self, tid: int, entry: TLBEntry,
                     is_write: bool) -> bool:
        if entry.domain == 0:
            return entry.perm.allows(is_write=is_write)
        cfg = self.config.domain_virt
        self._note_thread(tid)
        cached = self.ptlb.lookup(entry.domain)
        if cached is not None:
            self.stats.charge("access_latency", cfg.ptlb_access_cycles)
        else:
            cached = self._ptlb_refill(entry.domain, tid)
        return strictest(entry.perm, cached.perm).allows(is_write=is_write)

    def context_switch(self, old_tid: int, new_tid: int) -> None:
        """Write back dirty PTLB entries to the PT and flush; the TLB is
        untouched — the design's headline advantage."""
        cfg = self.config.domain_virt
        dirty = self.ptlb.flush()
        for entry in dirty:
            self.pt.set(entry.domain, old_tid, entry.perm)
            self.stats.charge("entry_changes",
                              cfg.ptlb_entry_change_cycles)
        self._current_tid = new_tid

    def report_metrics(self, registry) -> None:
        self.ptlb.report_metrics(registry)
        self.pt.report_metrics(registry)
