"""Hardware MPK Virtualization — the paper's first proposed design.

Builds on MPK: domains still map to the 16 protection keys, but the
mapping is virtualized.  The OS keeps it in the DTT, the DTTLB caches
it, and a hardware handler reassigns keys on demand (pseudo-LRU
victim).  Every key remap forces a ``Range_Flush`` TLB invalidation of the
victim domain's pages (286 cycles x threads, Table II); the invalidated
entries' re-walks are the dominant cost at high domain counts
(Table VII).

Charging map (Table VII rows):

* SETPERM instruction           → ``perm_change``   (27 cycles)
* DTTLB add/modify, free-key
  check, PKRU update            → ``entry_changes`` (1 cycle each)
* DTTLB miss → DTT walk         → ``dtt_misses``    (30 cycles)
* key-remap TLB shootdown       → ``tlb_invalidations`` (286 x threads)
"""

from __future__ import annotations

from typing import List, Optional

from ..permissions import Perm, strictest
from ..mem.tlb import TLBEntry
from ..os.address_space import VMA
from .dtt import NO_KEY, DTTEntry, DTTLBEntry, DomainTranslationTable
from .lookaside import LookasideBuffer
from .mpk import PKRU
from .plru import PseudoLRU
from .schemes import CostDescriptor, ProtectionScheme, register_scheme


def _pow2_at_least(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return max(power, 2)


@register_scheme
class MPKVirtScheme(ProtectionScheme):
    """Hardware MPK virtualization (DTT + DTTLB + key remapping)."""

    name = "mpk_virt"
    registry_tags = {"multi_pmo": 2, "single_pmo": 1}
    cost = CostDescriptor(switch="wrpkru_virt", check="pkru", key_space=16,
                          collapse="evict", broadcast_shootdown=True,
                          invalidates_tlb=True)
    config_section = "mpk_virt"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: The scheme's own config section; subclasses (pks_seal, poe2)
        #: re-point ``config_section`` and every cost below follows.
        cfg = self.cfg = getattr(self.config, self.config_section)
        #: Cycles one SETPERM's switch primitive costs — WRPKRU here;
        #: poe2's POR_EL0 write overrides it.  The fast engine's inlined
        #: SETPERM reads the same attribute.
        self._switch_cycles = self.config.mpk.wrpkru_cycles
        self.dtt = DomainTranslationTable()
        self.dttlb = LookasideBuffer(cfg.dttlb_entries, "dttlb")
        self.pkru = PKRU(cfg.usable_keys)
        # Keys are numbered 1..usable_keys (0 stays the NULL key value in
        # TLB entries of domainless pages); slot i of the PLRU tracks
        # key i+1.
        self.usable_keys = cfg.usable_keys
        self.key_of_slot: List[Optional[int]] = [None] * (self.usable_keys + 1)
        self.free_keys: List[int] = list(range(1, self.usable_keys + 1))
        self._key_plru = PseudoLRU(_pow2_at_least(self.usable_keys))
        self.key_remaps = 0

    # -- setup hooks ------------------------------------------------------------------

    def attach_domain(self, vma: VMA, intent: Perm) -> None:
        self.dtt.add(vma)

    def detach_domain(self, domain: int) -> None:
        entry = self.dtt.by_domain(domain)
        if entry.key != NO_KEY:
            self.key_of_slot[entry.key] = None
            self.free_keys.append(entry.key)
            self.free_keys.sort()
        self.dttlb.invalidate(domain)
        self.dtt.remove(domain)

    def set_initial_perm(self, domain: int, tid: int, perm: Perm) -> None:
        self.dtt.by_domain(domain).perms[tid] = perm

    # -- key management ----------------------------------------------------------------

    def _ensure_key(self, dtt_entry: DTTEntry, tid: int) -> int:
        """Give the domain a protection key, evicting a victim if needed."""
        cfg = self.cfg
        if dtt_entry.key != NO_KEY:
            self._key_plru.touch(dtt_entry.key - 1)
            return dtt_entry.key
        self.stats.charge("entry_changes", cfg.free_key_check_cycles)
        if self.free_keys:
            key = self.free_keys.pop(0)
        else:
            key = self._pick_victim_key()
            self._evict_key(key)
        self.key_of_slot[key] = dtt_entry.domain
        dtt_entry.key = key
        self._key_plru.touch(key - 1)
        # PKRU reflects the new domain's permission for the running thread.
        self.pkru.set(tid, key, dtt_entry.perm_for(tid))
        self.stats.charge("entry_changes", cfg.pkru_update_cycles)
        self.key_remaps += 1
        return key

    def _pick_victim_key(self) -> int:
        while True:
            slot = self._key_plru.victim()
            if slot < self.usable_keys:
                return slot + 1
            # Padding slots of a non-power-of-two key pool: skip them.
            self._key_plru.touch(slot)

    def _evict_key(self, key: int) -> None:
        """Unmap the victim domain: DTTLB invalidate + TLB range flush."""
        cfg = self.cfg
        victim_domain = self.key_of_slot[key]
        victim_entry = self.dtt.by_domain(victim_domain)
        victim_entry.key = NO_KEY
        cached = self.dttlb.peek(victim_domain)
        if cached is not None:
            cached.valid = False
            cached.key = NO_KEY
            cached.dirty = True
            self.stats.charge("entry_changes", cfg.dttlb_entry_change_cycles)
        killed = self.tlb.domain_flush(victim_domain)
        n_threads = self._shootdown_broadcast(cfg.tlb_invalidation_cycles,
                                              killed)
        self.stats.evictions += 1
        self.key_of_slot[key] = None
        if self._ev is not None:
            self._ev.emit("eviction", victim=victim_domain, key=key)
            self._ev.emit("shootdown", domain=victim_domain, killed=killed,
                          threads=n_threads)

    def _dttlb_fetch(self, domain: int, tid: int) -> DTTLBEntry:
        """DTTLB lookup; on miss, walk the DTT and install the entry."""
        cfg = self.cfg
        cached = self.dttlb.lookup(domain)
        if cached is not None:
            return cached
        self.stats.charge("dtt_misses", cfg.dttlb_miss_cycles)
        self.stats.dttlb_misses += 1
        if self._ev is not None:
            self._ev.emit("dtt_walk", domain=domain)
        dtt_entry = self.dtt.by_domain(domain)
        self.dtt.walk_count += 1
        cached = DTTLBEntry(domain=domain, key=dtt_entry.key,
                            perm=dtt_entry.perm_for(tid),
                            valid=dtt_entry.key != NO_KEY,
                            dtt_entry=dtt_entry)
        victim = self.dttlb.insert(cached)
        self.stats.charge("entry_changes", cfg.dttlb_entry_change_cycles)
        if victim is not None and victim.dirty:
            victim.write_back()
            self.stats.charge("entry_changes",
                              cfg.dttlb_entry_change_cycles)
        return cached

    # -- measured hooks ------------------------------------------------------------------

    def perm_switch(self, tid: int, domain: int, perm: Perm) -> None:
        # The SETPERM switch primitive (27-cycle WRPKRU here; poe2's MSR
        # write via ``_switch_cycles``) covers the register write itself,
        # exactly like WRPKRU in default MPK — which is why MPK
        # virtualization matches default MPK on single-PMO workloads
        # (Table V).
        #
        # SETPERM only updates the permission state (DTT/DTTLB, and the
        # PKRU when the domain currently holds a key).  It does NOT assign
        # a key to an unmapped domain — keys are assigned on the TLB-miss
        # path (Section IV-D), so a SETPERM burst over many domains does
        # not by itself trigger remap shootdowns.
        self.stats.charge("perm_change", self._switch_cycles)
        cached = self._dttlb_fetch(domain, tid)
        dtt_entry = cached.dtt_entry
        cached.perm = perm
        cached.dirty = True
        dtt_entry.perms[tid] = perm
        if cached.valid:
            self._key_plru.touch(cached.key - 1)
            self.pkru.set(tid, cached.key, perm)

    def fill_tags(self, vma: VMA, tid: int) -> tuple:
        domain = vma.pmo_id
        if domain == 0:
            return 0, 0
        cached = self._dttlb_fetch(domain, tid)
        if not cached.valid:
            key = self._ensure_key(cached.dtt_entry, tid)
            cached.key = key
            cached.valid = True
            cached.dirty = True
        else:
            self._key_plru.touch(cached.key - 1)
        return cached.key, domain

    def check_access(self, tid: int, entry: TLBEntry,
                     is_write: bool) -> bool:
        if entry.pkey == 0:
            return entry.perm.allows(is_write=is_write)
        domain_perm = self.pkru.get(tid, entry.pkey)
        return strictest(entry.perm, domain_perm).allows(is_write=is_write)

    def context_switch(self, old_tid: int, new_tid: int) -> None:
        """Flush the DTTLB (writing back dirty entries); PKRU is restored
        from the DTT when the new thread touches domains again."""
        cfg = self.cfg
        dirty = self.dttlb.flush()
        for entry in dirty:
            entry.write_back()
            self.stats.charge("entry_changes",
                              cfg.dttlb_entry_change_cycles)
        # Reconstruct the incoming thread's PKRU from the DTT: every
        # currently keyed domain contributes its permission for new_tid.
        for key, domain in enumerate(self.key_of_slot):
            if domain is not None:
                self.pkru.set(new_tid, key,
                              self.dtt.by_domain(domain).perm_for(new_tid))

    def report_metrics(self, registry) -> None:
        self.dttlb.report_metrics(registry)
        registry.counter("dtt.walks").inc(self.dtt.walk_count)
        registry.counter("mpkv.key_remaps").inc(self.key_remaps)
