"""POE2 — Arm permission-overlay registers, virtualized at 64 overlays.

Arm's Permission Overlay Extension (FEAT_POE; PAPERS.md) indexes a field
of the unprivileged ``POR_EL0`` register from the PTE, so a permission
switch is a plain MSR write — cheaper than x86's WRPKRU — and this
"second-generation" model widens the overlay space to 64 entries.  The
overlay space virtualizes exactly like MPK keys (DTT + DTTLB + remap on
demand), but with two structural advantages: four times the key space
before any eviction happens, and remap shootdowns that ride the
hardware DVM broadcast (a TLBI instruction, no IPI round trip), so each
one costs well under half of x86's bill.

Charging map (differences from :class:`~repro.core.mpk_virt.MPKVirtScheme`):

* SETPERM (POR_EL0 MSR write)  → ``perm_change``       (``por_switch_cycles``)
* key-remap TLBI broadcast      → ``tlb_invalidations`` (``tlb_invalidation_cycles`` x threads)

Everything else is inherited, reading the ``poe2`` config section.
"""

from __future__ import annotations

from .mpk_virt import MPKVirtScheme
from .schemes import CostDescriptor, register_scheme


@register_scheme
class Poe2Scheme(MPKVirtScheme):
    """Permission-overlay registers: 64 virtualized overlays, POR switch."""

    name = "poe2"
    registry_tags = {"multi_pmo": 7}
    cost = CostDescriptor(switch="overlay", check="pkru", key_space=64,
                          collapse="evict", broadcast_shootdown=True,
                          invalidates_tlb=True)
    config_section = "poe2"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The switch primitive is the unprivileged POR_EL0 write, not a
        # WRPKRU; the inherited perm_switch (and the fast engine's
        # inlined SETPERM) charge through this attribute.
        self._switch_cycles = self.cfg.por_switch_cycles
