"""Shared harness for driving protection schemes directly in tests."""

from __future__ import annotations

import pytest

from repro.permissions import Perm
from repro.core.schemes import scheme_by_name
from repro.mem.tlb import TLBEntry
from repro.os.kernel import Kernel
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.stats import RunStats

from ..oracle import DictTwoLevelTLB


class SchemeHarness:
    """Drives one scheme the way the replay engine would, without traces,
    on the reference interpreter's TLB."""

    def __init__(self, name: str, config=None):
        self.config = config or DEFAULT_CONFIG
        self.kernel = Kernel()
        self.process = self.kernel.create_process()
        tlb_cfg = self.config.tlb
        self.tlb = DictTwoLevelTLB(
            l1_entries=tlb_cfg.l1_entries, l1_ways=tlb_cfg.l1_ways,
            l2_entries=tlb_cfg.l2_entries, l2_ways=tlb_cfg.l2_ways)
        self.stats = RunStats()
        self.scheme = scheme_by_name(name)(
            self.config, self.process, self.tlb, self.stats)
        self._pools = 0

    @property
    def tid(self) -> int:
        return self.process.main_thread.tid

    def spawn_thread(self) -> int:
        return self.process.spawn_thread().tid

    def add_pmo(self, size: int = 8 << 20, *, intent: Perm = Perm.RW,
                initial: Perm = None, name: str = None) -> int:
        """Create + attach a PMO; returns its domain ID."""
        self._pools += 1
        name = name or f"pmo-{self._pools}"
        self.kernel.pools.pool_create(name, size, (Perm.RW, Perm.NONE))
        attachment = self.kernel.attach(self.process, name, intent)
        self.scheme.attach_domain(attachment.vma, intent)
        if initial is not None:
            for thread in self.process.threads:
                self.scheme.set_initial_perm(
                    attachment.pmo_id, thread.tid, initial)
        return attachment.pmo_id

    def vma(self, domain: int):
        return self.process.attachment(domain).vma

    def setperm(self, domain: int, perm: Perm, *, tid: int = None) -> None:
        self.scheme.perm_switch(
            tid if tid is not None else self.tid, domain, perm)

    def access(self, domain: int, *, offset: int = 4096,
               is_write: bool = False, tid: int = None) -> bool:
        """One load/store at ``offset`` into the PMO, with TLB modelling."""
        tid = tid if tid is not None else self.tid
        vma = self.vma(domain)
        vaddr = vma.base + offset
        vpn = vaddr >> 12
        entry, _level = self.tlb.lookup(vpn)
        if entry is None:
            pte = self.kernel.ensure_mapped(self.process, vaddr)
            pkey, tag_domain = self.scheme.fill_tags(vma, tid)
            entry = TLBEntry(vpn=vpn, pfn=pte.pfn, perm=pte.perm,
                             pkey=pkey, domain=tag_domain)
            self.tlb.fill(entry)
        return self.scheme.check_access(tid, entry, is_write)

    def context_switch(self, old_tid: int, new_tid: int) -> None:
        self.scheme.context_switch(old_tid, new_tid)


@pytest.fixture
def harness():
    return SchemeHarness
