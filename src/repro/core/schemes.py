"""Protection-scheme framework: the hooks the replay engine drives.

A scheme models one of the paper's evaluated mechanisms.  The replay
engine (``repro.cpu.fast_timing``) calls:

* :meth:`attach_domain` / :meth:`detach_domain` when the trace records an
  attach/detach system call (setup, not charged);
* :meth:`set_initial_perm` for attach-time default permissions (setup);
* :meth:`perm_switch` for every SETPERM/WRPKRU permission switch;
* :meth:`fill_tags` on a TLB miss, to produce the (pkey, domain) tags of
  the new TLB entry — this is where MPK-virtualization consults the
  DTTLB and may remap keys;
* :meth:`check_access` on every load/store, with the TLB entry's tags —
  this is where DV pays its PTLB lookup and every scheme enforces the
  strictest of page and domain permission.  The engine's kernels
  replay this check from the scheme's descriptor (its PTLB, PKRU or
  ``_swtable_probe``); the hook itself is the probe of the test
  suite's reference interpreter;
* :meth:`context_switch` when the scheduler swaps threads.

Schemes charge their extra cycles directly into the RunStats buckets, so
the replay engine stays scheme-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

from .. import obs
from ..permissions import Perm
from ..registry import Registry
from ..mem.tlb import TLBEntry, TwoLevelTLB
from ..os.address_space import VMA
from ..os.process import Process

if TYPE_CHECKING:  # sim imports core.schemes; keep the reverse type-only
    from ..sim.config import SimConfig
    from ..sim.stats import RunStats

#: CostDescriptor.switch vocabulary — the switch primitive a SETPERM pays.
SWITCH_KINDS = ("none", "wrpkru", "wrpkru_virt", "cr3", "overlay")
#: CostDescriptor.check vocabulary — how a load/store is authorized.
CHECK_KINDS = ("page", "pkru", "ptlb", "swtable")
#: CostDescriptor.collapse vocabulary — behavior past the key space.
COLLAPSE_KINDS = ("none", "evict", "fault")


@dataclass(frozen=True)
class CostDescriptor:
    """What a protection scheme *costs*, declared rather than inferred.

    Every consumer that used to pattern-match on scheme classes reads
    this instead: the replay engine picks a kernel family from
    ``check`` (``repro.cpu.fast_timing.kernel_for``),
    multicore replay attributes cross-core shootdown slices only to
    schemes with ``broadcast_shootdown``, and the serving layer derives
    which schemes are *fragile* — hard-collapse past their key space —
    from ``collapse``/``key_space`` (calibration refuses early, reports
    render a FAIL row).  A scheme declaring a capability promises the
    matching hook semantics:

    * ``check == "page"``: ``check_access`` never fails and charges
      nothing — accesses replay as pure page-permission traffic.
    * ``check == "pkru"``: ``fill_tags`` returns a key in ``[0,
      key_space]``, ``check_access`` is ``strictest(page, pkru[key])``
      via a :class:`~repro.core.mpk.PKRU`-compatible ``self.pkru``.
    * ``check == "ptlb"``: accesses consult a ``self.ptlb`` with
      :class:`~repro.core.domain_virt.DomainVirtScheme`'s refill
      protocol and a per-access charge; the class lists every cycle
      charge its hooks book in ``charge_cycles(config)``.
    * ``check == "swtable"``: accesses consult software metadata via
      ``self._swtable_probe(domain, tid) -> Perm`` (cold side effects —
      faults, remaps — included).
    """

    switch: str = "none"
    check: str = "page"
    #: Hardware key/overlay space domains map onto; ``None`` when the
    #: scheme tracks domains without consuming keys.
    key_space: Optional[int] = None
    #: Keys inside ``key_space`` the scheme cannot hand to domains
    #: (e.g. default MPK cedes key 0 to the kernel's default key).
    reserved_keys: int = 0
    #: Past the usable key space: ``evict`` virtualizes (remap + TLB
    #: shootdown), ``fault`` hard-collapses (PkeyError), ``none`` means
    #: the space is unbounded.
    collapse: str = "none"
    #: Key remaps broadcast TLB shootdowns to every core (the paper's
    #: ``286cy x cores`` bill); multicore replay attributes the remote
    #: slice per this flag.
    broadcast_shootdown: bool = False
    #: Whether any hook ever invalidates TLB entries.  A ``page`` or
    #: ``ptlb`` check must leave it False: their kernels replay the
    #: baseline-pure TLB radiograph.
    invalidates_tlb: bool = False

    def __post_init__(self):
        if self.switch not in SWITCH_KINDS:
            raise ValueError(f"unknown switch kind {self.switch!r} "
                             f"(expected one of {SWITCH_KINDS})")
        if self.check not in CHECK_KINDS:
            raise ValueError(f"unknown check kind {self.check!r} "
                             f"(expected one of {CHECK_KINDS})")
        if self.collapse not in COLLAPSE_KINDS:
            raise ValueError(f"unknown collapse kind {self.collapse!r} "
                             f"(expected one of {COLLAPSE_KINDS})")
        if self.collapse != "none" and self.key_space is None:
            raise ValueError(
                f"collapse={self.collapse!r} needs a key_space")
        if self.broadcast_shootdown and not self.invalidates_tlb:
            raise ValueError("a scheme cannot broadcast shootdowns "
                             "without invalidating TLB entries")
        if self.invalidates_tlb and self.check in ("page", "ptlb"):
            raise ValueError(
                f"check={self.check!r} replays the baseline TLB radiograph "
                f"and cannot invalidate TLB entries")

    @property
    def hard_domain_limit(self) -> Optional[int]:
        """Concurrent domains past which the scheme hard-fails, or None.

        Only ``collapse="fault"`` schemes have one; eviction-based
        schemes degrade instead of failing.
        """
        if self.collapse != "fault":
            return None
        return self.key_space - self.reserved_keys

    @property
    def fail_label(self) -> str:
        """Report-table cell for a run past the hard domain limit."""
        return f"FAIL ({self.key_space}-key limit)"


class ProtectionScheme:
    """Base class; the default implementation is the unprotected baseline."""

    name = "baseline"
    #: Evaluation sets this scheme belongs to, as ``{tag: rank}``; the
    #: rank orders members within a tag so the paper's scheme tuples
    #: (``repro.sim.simulator.MULTI_PMO_SCHEMES`` /
    #: ``SINGLE_PMO_SCHEMES``) are *derived* from the registry instead
    #: of hard-coded.  Known tags: ``multi_pmo`` (Figure 6/7, Table
    #: VII), ``single_pmo`` (Table V).
    registry_tags: Dict[str, int] = {}
    #: The scheme's declared cost model — see :class:`CostDescriptor`.
    #: The base default describes the unprotected baseline (free page
    #: checks, no switch primitive, no keys).
    cost: CostDescriptor = CostDescriptor()
    #: Name of the scheme's :class:`~repro.sim.config.SimConfig` section
    #: (``config.<config_section>``), or None for config-free schemes.
    #: The fast engine reads per-scheme envelope fields through it.
    config_section: Optional[str] = None
    #: Cores the surrounding machine runs — 1 for the classic whole-trace
    #: replay, the worker count for a sharded multi-core replay (set by
    #: ``ReplayEngine`` from its ``n_cores`` argument).  Key-remap TLB
    #: shootdowns already broadcast to every *thread* (the paper's
    #: ``286cy x cores`` bill); with ``n_cores > 1`` the schemes that pay
    #: it additionally attribute the remote slice to
    #: ``RunStats.cross_core_shootdowns`` / ``cross_core_shootdown_cycles``
    #: — pure attribution, never an extra charge, so single-core totals
    #: are untouched.
    n_cores: int = 1

    def __init__(self, config: SimConfig, process: Process,
                 tlb: TwoLevelTLB, stats: RunStats):
        self.config = config
        self.process = process
        self.tlb = tlb
        self.stats = stats
        stats.scheme = self.name
        #: Active event trace or None; schemes emit walk/eviction events
        #: through it behind a None check (free when tracing is off).
        self._ev = obs.active_events()

    # -- setup hooks (attach/detach system calls; not part of measured cost) --

    def attach_domain(self, vma: VMA, intent: Perm) -> None:
        """A PMO was attached; its VMA carries the domain ID."""

    def detach_domain(self, domain: int) -> None:
        """A PMO was detached."""

    def set_initial_perm(self, domain: int, tid: int, perm: Perm) -> None:
        """Attach-time default permission for one thread (setup cost)."""

    # -- measured hooks ----------------------------------------------------------

    def perm_switch(self, tid: int, domain: int, perm: Perm) -> None:
        """A SETPERM/WRPKRU-style user-level permission switch."""

    def fill_tags(self, vma: VMA, tid: int) -> tuple:
        """Tags for a new TLB entry: ``(pkey, domain)``."""
        return 0, 0

    def check_access(self, tid: int, entry: TLBEntry,
                     is_write: bool) -> bool:
        """Permission check for one load/store; True means legal."""
        return True

    def context_switch(self, old_tid: int, new_tid: int) -> None:
        """The core switched threads; flush thread-specific state."""

    # -- shared cost machinery ----------------------------------------------------

    def _shootdown_broadcast(self, cycles_per_core: int, killed: int) -> int:
        """Bill one key-remap TLB shootdown broadcast; returns n_threads.

        Charges ``cycles_per_core`` per thread into the
        ``tlb_invalidations`` bucket and credits the ``killed`` flushed
        entries.  When the descriptor declares
        ``broadcast_shootdown`` and the replay spans cores, the remote
        slice is *attributed* (never re-charged) to
        ``RunStats.cross_core_shootdowns`` / ``..._cycles``, so
        single-core totals are untouched.
        """
        stats = self.stats
        n_threads = len(self.process.threads)
        stats.charge("tlb_invalidations", cycles_per_core * n_threads)
        if self.cost.broadcast_shootdown and self.n_cores > 1:
            stats.cross_core_shootdowns += 1
            stats.cross_core_shootdown_cycles += \
                cycles_per_core * (self.n_cores - 1)
        stats.tlb_entries_invalidated += killed
        return n_threads

    # -- observability (never part of measured cost) -----------------------------

    def report_metrics(self, registry) -> None:
        """Report scheme-component counters into an obs MetricsRegistry.

        Called once at the end of a replay, and only when observability
        is enabled (``REPRO_METRICS``/``REPRO_EVENTS``); implementations
        harvest existing counters and must not perturb cycle accounting.
        The metric names are the ``docs/OBSERVABILITY.md`` contract.
        """


class NullProtection(ProtectionScheme):
    """The unprotected baseline — all hooks free, all accesses legal."""

    name = "baseline"

    def fill_tags(self, vma: VMA, tid: int) -> tuple:
        # Tag the domain (free) so PMO-access counts match other schemes.
        return 0, vma.pmo_id


class LowerboundScheme(NullProtection):
    """Ideal MPK virtualization: only the WRPKRU instruction cost remains.

    The paper's lowerbound executes the permission-granting/disabling
    instructions but models no DTTLB/DTT penalty at all (Section V).
    """

    name = "lowerbound"
    registry_tags = {"multi_pmo": 0}
    cost = CostDescriptor(switch="wrpkru", check="page")

    def perm_switch(self, tid: int, domain: int, perm: Perm) -> None:
        self.stats.charge("perm_change", self.config.mpk.wrpkru_cycles)


#: The scheme plugin registry.  Built-in schemes self-register on import
#: of their modules (listed in ``discover``); third-party schemes
#: register through ``REPRO_PLUGINS`` / entry points (see
#: :mod:`repro.registry`).
SCHEMES = Registry("scheme", discover=(
    "repro.core.libmpk",
    "repro.core.domain_virt",
    "repro.core.mpk",
    "repro.core.mpk_virt",
    "repro.core.erim",
    "repro.core.pks_seal",
    "repro.core.dpti",
    "repro.core.poe2",
))


def register_scheme(cls: Type[ProtectionScheme]) -> Type[ProtectionScheme]:
    """Class decorator adding a scheme to the registry.

    The scheme's ``name`` and ``registry_tags`` class attributes carry
    the registration metadata, so a scheme module is self-contained:
    defining + decorating the class is the whole integration.
    """
    return SCHEMES.register(cls.name, tags=cls.registry_tags)(cls)


def scheme_by_name(name: str) -> Type[ProtectionScheme]:
    """The scheme class registered as ``name``.

    Unknown names raise a ``KeyError`` listing every registered scheme.
    """
    return SCHEMES.get(name)


def available_schemes() -> List[str]:
    return SCHEMES.names()


def schemes_tagged(tag: str) -> Tuple[str, ...]:
    """Scheme names carrying ``tag``, in registry-rank order — the
    source of the paper's evaluation tuples."""
    return SCHEMES.tagged(tag)


def scheme_descriptor(name: str) -> CostDescriptor:
    """The :class:`CostDescriptor` of a scheme (aliases accepted)."""
    return scheme_by_name(resolve_scheme(name)).cost


def hard_domain_limit(name: str) -> Optional[int]:
    """Concurrent domains past which ``name`` hard-fails, or None."""
    return scheme_descriptor(name).hard_domain_limit


def supports_domain_count(name: str,
                          n_domains: Optional[int]) -> bool:
    """Whether ``name`` can hold ``n_domains`` concurrent domains.

    ``None`` (unknown domain count) is treated as supported — callers
    that cannot bound the count let the replay fail organically.
    """
    if n_domains is None:
        return True
    limit = scheme_descriptor(name).hard_domain_limit
    return limit is None or n_domains <= limit


#: Short scheme aliases accepted by the serving layer, the scenario
#: compiler and every CLI (-> canonical registry names).  The four 2026
#: additions (erim/pks_seal/dpti/poe2) register under names short
#: enough to use directly; ``pks`` is kept as the colloquial short form.
SCHEME_ALIASES = {
    "mpkv": "mpk_virt",
    "dv": "domain_virt",
    "pks": "pks_seal",
}


def resolve_scheme(name: str) -> str:
    """Canonical scheme-registry name for a CLI/serving alias."""
    return SCHEME_ALIASES.get(name, name)


register_scheme(NullProtection)
register_scheme(LowerboundScheme)
