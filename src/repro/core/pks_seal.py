"""Sealable protection keys — virtualized MPK with pinned key grants.

A PKS-style design (PAPERS.md): same DTT + DTTLB + key-remap machinery
as hardware MPK virtualization, but a key can be *sealed* when it is
granted.  A sealed key is never chosen as a remap victim, so the domain
holding it keeps it — and never pays a re-key shootdown — until the
domain detaches (which breaks the seal and returns the key).  The first
``pks_seal.sealable_keys`` grants seal their key; the unsealed remainder
of the pool absorbs all eviction churn.  With hot domains landing on
sealed keys, the shootdown bill concentrates on the cold tail instead of
recycling the whole working set.

Everything else — charging map, DTTLB behaviour, PKRU — is inherited
from :class:`~repro.core.mpk_virt.MPKVirtScheme`, reading the
``pks_seal`` config section.
"""

from __future__ import annotations

from .dtt import NO_KEY, DTTEntry
from .mpk_virt import MPKVirtScheme
from .schemes import CostDescriptor, register_scheme


@register_scheme
class PksSealScheme(MPKVirtScheme):
    """MPK virtualization with sealable keys (sealed domains never re-key)."""

    name = "pks_seal"
    registry_tags = {"multi_pmo": 5}
    cost = CostDescriptor(switch="wrpkru_virt", check="pkru", key_space=16,
                          collapse="evict", broadcast_shootdown=True,
                          invalidates_tlb=True)
    config_section = "pks_seal"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # At least one key must stay evictable or the victim search
        # could never terminate once every key is sealed.
        self._sealable = min(self.cfg.sealable_keys, self.usable_keys - 1)
        self._sealed: set = set()

    # -- setup ----------------------------------------------------------------------

    def detach_domain(self, domain: int) -> None:
        entry = self.dtt.by_domain(domain)
        if entry.key != NO_KEY:
            # Detaching breaks the seal; the key rejoins the free pool
            # through the parent and may be re-sealed on its next grant.
            self._sealed.discard(entry.key)
        super().detach_domain(domain)

    # -- key management ---------------------------------------------------------------

    def _ensure_key(self, dtt_entry: DTTEntry, tid: int) -> int:
        had_key = dtt_entry.key != NO_KEY
        key = super()._ensure_key(dtt_entry, tid)
        if not had_key and len(self._sealed) < self._sealable:
            self._sealed.add(key)
        return key

    def _pick_victim_key(self) -> int:
        sealed = self._sealed
        # Touching a rejected slot points the PLRU away from it, so the
        # walk converges on an unsealed slot; the bound is a safety net
        # against pathological bit states, with a deterministic scan
        # fallback (every key is in use when a victim is needed).
        for _ in range(4 * self._key_plru.n):
            slot = self._key_plru.victim()
            if slot < self.usable_keys and (slot + 1) not in sealed:
                return slot + 1
            self._key_plru.touch(slot)
        for key in range(1, self.usable_keys + 1):
            if key not in sealed and self.key_of_slot[key] is not None:
                return key
        raise RuntimeError("no evictable key (all keys sealed)")

    def report_metrics(self, registry) -> None:
        super().report_metrics(registry)
        registry.counter("pks.sealed_keys").inc(len(self._sealed))
