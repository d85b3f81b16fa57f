"""Simulation parameters — Table II of the paper, as configuration objects.

Every latency and structure size the paper lists is a field here, plus the
libmpk cost model constants (the paper reports libmpk's costs only through
its measured slowdown; the per-component constants below are calibrated so
the reproduced speedups land in the paper's reported bands).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class ProcessorConfig:
    """Core parameters (2.2 GHz, 4-way issue OoO, 128-entry ROB)."""

    frequency_hz: float = 2.2e9
    issue_width: int = 4
    rob_entries: int = 128
    #: Effective cycles per retired non-memory instruction.  A 4-way OoO
    #: core sustains close to its issue width on the pointer-chasing codes
    #: here; 0.5 approximates the observed IPC of such kernels on Sniper.
    base_cpi: float = 0.5
    #: Fraction of a memory stall that the OoO window fails to hide.
    #: A 4-wide, 128-entry-ROB core overlaps adjacent misses (MLP ~2.5 on
    #: pointer-chasing code), so only ~40% of raw miss latency is exposed.
    stall_overlap: float = 0.4


@dataclass(frozen=True)
class CacheConfig:
    """L1D 8-way 32KB 1 cycle; L2 16-way 1MB 8 cycles (Table II)."""

    l1_size: int = 32 << 10
    l1_ways: int = 8
    l1_latency: int = 1
    l2_size: int = 1 << 20
    l2_ways: int = 16
    l2_latency: int = 8


@dataclass(frozen=True)
class MemoryConfig:
    """DRAM 120 cycles; NVM 360 cycles (3x, per Optane characterization)."""

    dram_latency: int = 120
    nvm_latency: int = 360


@dataclass(frozen=True)
class TLBConfig:
    """L1 64-entry/4-way, L2 1536-entry/6-way, 30-cycle miss penalty."""

    l1_entries: int = 64
    l1_ways: int = 4
    l1_latency: int = 1
    l2_entries: int = 1536
    l2_ways: int = 6
    l2_latency: int = 4
    miss_penalty: int = 30


@dataclass(frozen=True)
class MPKConfig:
    """Default-MPK parameters: WRPKRU costs 27 cycles (Table II)."""

    wrpkru_cycles: int = 27


@dataclass(frozen=True)
class MPKVirtConfig:
    """Hardware MPK virtualization (Table II, 'MPK Virtualization' row)."""

    dttlb_entries: int = 16
    #: Protection keys available for domain mapping.  The paper's designs
    #: virtualize all 16 keys (the NULL/domainless case is signalled by a
    #: NULL *domain*, not by burning a key on it).
    usable_keys: int = 16
    free_key_check_cycles: int = 1
    dttlb_entry_change_cycles: int = 1
    dttlb_miss_cycles: int = 30
    pkru_update_cycles: int = 1
    tlb_invalidation_cycles: int = 286


@dataclass(frozen=True)
class DomainVirtConfig:
    """Hardware domain virtualization (Table II, 'Domain Virtualization')."""

    ptlb_entries: int = 16
    ptlb_access_cycles: int = 1
    ptlb_miss_cycles: int = 30
    ptlb_entry_change_cycles: int = 1


@dataclass(frozen=True)
class LibmpkConfig:
    """Cost model for the software MPK virtualization baseline [39].

    An eviction in libmpk is: a protection exception into the kernel, a
    handler that calls ``pkey_mprotect`` twice (victim pages back to the
    default key, new pages to the reassigned key) — each a syscall that
    rewrites one PTE per mapped page — and a TLB shootdown.
    """

    usable_keys: int = 16
    exception_cycles: int = 700
    syscall_cycles: int = 900
    pte_write_cycles: int = 6
    pkey_set_cycles: int = 27  #: user-space PKRU write (same as WRPKRU)
    tlb_invalidation_cycles: int = 286


@dataclass(frozen=True)
class ErimConfig:
    """ERIM-style call-gate isolation (Vahldiek-Oberwagner et al.).

    ERIM keeps WRPKRU as the only switch primitive but wraps it in a
    binary-inspected call gate, so a protected switch costs the gate
    sequence rather than a bare register write.  Domains map straight
    onto protection keys with no virtualization layer behind them, so
    the scheme hard-fails once the keys run out — the same scalability
    wall as default MPK, with a 16-domain budget (ERIM compartments are
    self-managed in user space; no key is ceded to the kernel).
    """

    #: Call-gate entry/exit sequence around the WRPKRU (the ERIM paper
    #: measures 55-99 cycles per protected switch; the low end models
    #: the inlined gate).
    call_gate_cycles: int = 55
    usable_keys: int = 16


@dataclass(frozen=True)
class PksSealConfig(MPKVirtConfig):
    """Sealable protection keys (PKS-style supervisor keys with seals).

    Same virtualized key pool and costs as :class:`MPKVirtConfig`, but
    the first ``sealable_keys`` key assignments *seal* their key: a
    sealed key is never picked as a remap victim, so its domain never
    re-keys (and never pays a shootdown) for the life of the
    attachment.  The unsealed remainder of the pool absorbs all churn.
    """

    #: Keys sealed on first assignment; must stay below ``usable_keys``
    #: (at least one key must remain evictable).
    sealable_keys: int = 8


@dataclass(frozen=True)
class DptiConfig:
    """Domain Page-Table Isolation: one page table per domain.

    Opening/closing a domain swaps the address-space view (a CR3 write
    with PCID), so a permission switch costs a pipeline-serializing
    CR3 load instead of key maintenance.  There are no keys to churn
    and no shootdown broadcasts; the recurring price is the TLB, which
    drops the domain's translations every time its window closes.
    """

    #: Serializing CR3 write + PCID bookkeeping per SETPERM.
    cr3_switch_cycles: int = 150


@dataclass(frozen=True)
class Poe2Config(MPKVirtConfig):
    """Arm permission-overlay registers (POE), widened to 64 overlays.

    The overlay index in the PTE selects a field of the POR_EL0
    register, so a switch is an unprivileged MSR write — cheaper than
    WRPKRU — and the 64-entry overlay space virtualizes exactly like
    MPK keys (descriptor cache + remap on demand, at
    :class:`MPKVirtConfig`'s costs).  Shootdowns ride the hardware DVM
    broadcast (TLBI), not IPIs, so the per-remap bill is well below
    x86's.
    """

    usable_keys: int = 64
    #: TLBI broadcast over the DVM fabric (no IPI round-trip).
    tlb_invalidation_cycles: int = 120
    #: Unprivileged POR_EL0 MSR write.
    por_switch_cycles: int = 12


@dataclass(frozen=True)
class SimConfig:
    """Top-level configuration — one object per simulated machine."""

    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    tlb: TLBConfig = field(default_factory=TLBConfig)
    mpk: MPKConfig = field(default_factory=MPKConfig)
    mpk_virt: MPKVirtConfig = field(default_factory=MPKVirtConfig)
    domain_virt: DomainVirtConfig = field(default_factory=DomainVirtConfig)
    libmpk: LibmpkConfig = field(default_factory=LibmpkConfig)
    erim: ErimConfig = field(default_factory=ErimConfig)
    pks_seal: PksSealConfig = field(default_factory=PksSealConfig)
    dpti: DptiConfig = field(default_factory=DptiConfig)
    poe2: Poe2Config = field(default_factory=Poe2Config)
    #: Raise ProtectionFault on illegal accesses during replay.  The
    #: instrumented workloads are permission-correct by construction, so
    #: replay enables this to *verify* the schemes rather than tolerate
    #: violations.
    enforce_protection: bool = True

    def with_overrides(self, **section_overrides) -> "SimConfig":
        """Return a copy with whole sections replaced, e.g.
        ``cfg.with_overrides(memory=MemoryConfig(nvm_latency=600))``."""
        return replace(self, **section_overrides)


def apply_override(config: SimConfig, field_path: str, value) -> SimConfig:
    """Return a config copy with ``section.field`` (or ``both.field``)
    replaced by ``value``.

    ``both`` applies the field to ``mpk_virt`` *and* ``libmpk`` (for
    parameters the two designs share, like shootdown cost).  This is
    the dotted-path override used by sensitivity sweeps and by scenario
    ``config:``/sweep sections.
    """
    section_name, _, field_name = field_path.partition(".")
    if not field_name:
        raise ValueError(f"field path {field_path!r} must be "
                         "'section.field'")
    sections = (["mpk_virt", "libmpk"] if section_name == "both"
                else [section_name])
    overrides = {}
    for name in sections:
        section = getattr(config, name, None)
        if section is None or not hasattr(section, field_name):
            raise ValueError(
                f"unknown configuration field {name}.{field_name}")
        overrides[name] = replace(section, **{field_name: value})
    return config.with_overrides(**overrides)


DEFAULT_CONFIG = SimConfig()
