"""libmpk — the software MPK virtualization baseline [39].

libmpk caches up to 15 domains in protection keys.  Touching an unmapped
domain raises an exception; the user-space handler picks an LRU victim
and calls ``pkey_mprotect`` twice — once to strip the victim's key from
every PTE of its (possibly multi-MB) region and once to tag the new
domain's PTEs — followed by a TLB shootdown on all cores.  The PTE
rewrites are proportional to the *domain size*, which is why libmpk is an
order of magnitude slower than the hardware schemes whose shootdown cost
is proportional to the TLB size (Section IV-D, "Comparison with libmpk").

All eviction-path costs land in the ``libmpk`` bucket except the TLB
shootdown itself (``tlb_invalidations``) and the user-level PKRU writes
(``perm_change``), so the breakdown stays comparable across schemes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from ..permissions import Perm, strictest
from ..mem.tlb import TLBEntry
from ..os.address_space import VMA
from .mpk import PKRU
from .schemes import CostDescriptor, ProtectionScheme, register_scheme


@register_scheme
class LibmpkScheme(ProtectionScheme):
    """Software MPK virtualization: exceptions + pkey_mprotect + shootdowns."""

    name = "libmpk"
    registry_tags = {"multi_pmo": 1}
    cost = CostDescriptor(switch="wrpkru_virt", check="swtable",
                          key_space=16, collapse="evict",
                          broadcast_shootdown=True, invalidates_tlb=True)
    config_section = "libmpk"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pkru = PKRU()
        # Software domain cache: domain -> key, in LRU order (front = LRU).
        self._key_of: "OrderedDict[int, int]" = OrderedDict()
        self._free_keys = list(range(1, self.config.libmpk.usable_keys + 1))
        # Software per-domain, per-thread permissions (libmpk metadata).
        self._perms: Dict[int, Dict[int, Perm]] = {}
        self._vma_of: Dict[int, VMA] = {}
        self.evictions = 0

    # -- setup hooks -----------------------------------------------------------------

    def attach_domain(self, vma: VMA, intent: Perm) -> None:
        self._perms[vma.pmo_id] = {}
        self._vma_of[vma.pmo_id] = vma

    def detach_domain(self, domain: int) -> None:
        key = self._key_of.pop(domain, None)
        if key is not None:
            self._free_keys.append(key)
            self._free_keys.sort()
        self._perms.pop(domain, None)
        self._vma_of.pop(domain, None)

    def set_initial_perm(self, domain: int, tid: int, perm: Perm) -> None:
        self._perms[domain][tid] = perm

    # -- eviction path ----------------------------------------------------------------------

    def _mprotect_cost(self, vma: VMA, key: int) -> None:
        """One pkey_mprotect call: a syscall plus one write per mapped PTE."""
        cfg = self.config.libmpk
        rewritten = self.process.page_table.set_pkey_for_domain(
            vma.pmo_id, key)
        vma.pkey = key
        self.stats.pte_rewrites += rewritten
        self.stats.charge(
            "libmpk", cfg.syscall_cycles + rewritten * cfg.pte_write_cycles)

    def _fault_map(self, domain: int, tid: int) -> int:
        """Exception-driven mapping of an uncached domain to a key."""
        cfg = self.config.libmpk
        self.stats.charge("libmpk", cfg.exception_cycles)
        victim_vma: Optional[VMA] = None
        if self._free_keys:
            key = self._free_keys.pop(0)
        else:
            victim_domain, key = self._key_of.popitem(last=False)
            victim_vma = self._vma_of[victim_domain]
            self._mprotect_cost(victim_vma, 0)  # strip the victim's key
        new_vma = self._vma_of[domain]
        self._mprotect_cost(new_vma, key)
        # One batched TLB shootdown covers both ranges (IPIs to all cores).
        killed = self.tlb.domain_flush(domain)
        if victim_vma is not None:
            killed += self.tlb.domain_flush(victim_vma.pmo_id)
            self.stats.evictions += 1
            self.evictions += 1
            if self._ev is not None:
                self._ev.emit("eviction", victim=victim_vma.pmo_id, key=key)
        n_threads = self._shootdown_broadcast(cfg.tlb_invalidation_cycles,
                                              killed)
        if self._ev is not None:
            self._ev.emit("shootdown", domain=domain, killed=killed,
                          threads=n_threads)
        self._key_of[domain] = key
        # Restore the new domain's per-thread permission into the PKRU.
        self.pkru.set(tid, key, self._perms[domain].get(tid, Perm.NONE))
        return key

    # -- measured hooks ----------------------------------------------------------------------

    def perm_switch(self, tid: int, domain: int, perm: Perm) -> None:
        cfg = self.config.libmpk
        if domain in self._key_of:
            self._key_of.move_to_end(domain)
            key = self._key_of[domain]
        else:
            key = self._fault_map(domain, tid)
        self.stats.charge("perm_change", cfg.pkey_set_cycles)
        self._perms[domain][tid] = perm
        self.pkru.set(tid, key, perm)

    def fill_tags(self, vma: VMA, tid: int) -> tuple:
        domain = vma.pmo_id
        if domain == 0:
            return 0, 0
        if domain not in self._key_of:
            # Access to an unmapped domain: the stale PTE key faults and
            # the handler remaps — the access-triggered eviction path.
            self._fault_map(domain, tid)
        else:
            self._key_of.move_to_end(domain)
        return vma.pkey, domain

    def _swtable_probe(self, domain: int, tid: int) -> Perm:
        """The access-path software permission lookup (check="swtable").

        The replay engine's swtable kernel consults this directly
        (memoised per (domain, tid) between metadata mutations);
        :meth:`check_access`, the reference interpreter's probe, goes
        through it too.
        """
        if domain not in self._key_of:
            # TLB entries of unmapped domains were shot down; reaching
            # here means the invariant broke — treat as a fault+remap.
            self._fault_map(domain, tid)
        # libmpk keeps per-thread permissions in its metadata and lazily
        # syncs each thread's PKRU; the metadata is authoritative.
        return self._perms[domain].get(tid, Perm.NONE)

    def check_access(self, tid: int, entry: TLBEntry,
                     is_write: bool) -> bool:
        if entry.domain == 0:
            return entry.perm.allows(is_write=is_write)
        domain_perm = self._swtable_probe(entry.domain, tid)
        return strictest(entry.perm, domain_perm).allows(is_write=is_write)

    def context_switch(self, old_tid: int, new_tid: int) -> None:
        """libmpk reloads the PKRU for the incoming thread (thread state)."""

    def report_metrics(self, registry) -> None:
        registry.counter("libmpk.evictions").inc(self.evictions)
        registry.counter("libmpk.pte_rewrites").inc(self.stats.pte_rewrites)
