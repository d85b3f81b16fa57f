"""Cycle accounting: the overhead buckets of Table VII plus event counters.

Every protection scheme charges its extra cycles into named buckets so the
harness can reproduce the paper's overhead breakdown:

* ``perm_change``      — SETPERM / WRPKRU instruction latency
* ``entry_changes``    — DTTLB/PTLB add/remove/modify micro-ops
* ``dtt_misses``       — DTT walks on DTTLB misses (MPK virtualization)
* ``ptlb_misses``      — permission-table lookups on PTLB misses (DV)
* ``tlb_invalidations``— key-remap TLB shootdown broadcasts (per thread).
                         The re-walks of the TLB entries they killed are
                         not charged here: they land in the machine
                         cycles as TLB L2-hit and miss penalties (the
                         paper's Table VII counts them as invalidations)
* ``access_latency``   — PTLB lookup added to every domain access (DV)
* ``libmpk``           — exception + syscalls + PTE rewrites (libmpk only)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

OVERHEAD_BUCKETS = (
    "perm_change",
    "entry_changes",
    "dtt_misses",
    "ptlb_misses",
    "tlb_invalidations",
    "access_latency",
    "libmpk",
)


@dataclass
class RunStats:
    """Statistics of one trace replay under one protection scheme."""

    scheme: str = "baseline"
    #: Cycles of the unprotected execution of the same trace (set by the
    #: harness so overhead percentages can be derived).
    baseline_cycles: float = 0.0
    cycles: float = 0.0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    pmo_accesses: int = 0
    perm_switches: int = 0
    tlb_l1_hits: int = 0
    tlb_l2_hits: int = 0
    tlb_misses: int = 0
    context_switches: int = 0
    #: Domain-to-key remappings / libmpk evictions / PTLB refills.
    evictions: int = 0
    dttlb_misses: int = 0
    ptlb_misses_count: int = 0
    tlb_entries_invalidated: int = 0
    pte_rewrites: int = 0
    protection_faults: int = 0
    #: Shootdown broadcasts that had to cross core boundaries (multi-core
    #: replay only: schemes with ``n_cores > 1`` count each key-remap
    #: TLB-invalidation broadcast here).  Attribution, not extra cost —
    #: the cycles below are the slice of the ``tlb_invalidations`` bucket
    #: spent on *other* cores, already charged there.
    cross_core_shootdowns: int = 0
    cross_core_shootdown_cycles: float = 0.0
    buckets: Dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in OVERHEAD_BUCKETS})
    #: Observability payload (``repro.obs``): a MetricsRegistry export
    #: harvested at the end of the replay.  ``None`` whenever obs is
    #: disabled, so cycle accounting and ``to_dict`` output stay
    #: bit-identical to an uninstrumented run.
    metrics: Optional[Dict[str, object]] = None
    #: Elapsed-cycle snapshots at the caller's marked event indices
    #: (``ReplayEngine.run(marks=...)``): machine cycles plus scheme
    #: charges accumulated before each mark.  ``None`` for unmarked
    #: replays; the service layer turns these into per-request latency.
    mark_cycles: Optional[List[float]] = None

    # -- charging -------------------------------------------------------------

    def charge(self, bucket: str, cycles: float) -> None:
        """Add protection-overhead cycles into a named bucket."""
        self.buckets[bucket] += cycles
        self.cycles += cycles

    # -- derived quantities ------------------------------------------------------

    @property
    def overhead_cycles(self) -> float:
        return sum(self.buckets.values())

    def overhead_percent(self, baseline: float = 0.0) -> float:
        """Total overhead as a percentage of the baseline execution time."""
        base = baseline or self.baseline_cycles
        if base <= 0:
            raise ValueError("baseline cycles unknown")
        return 100.0 * (self.cycles - base) / base

    def bucket_percent(self, bucket: str, baseline: float = 0.0) -> float:
        base = baseline or self.baseline_cycles
        if base <= 0:
            raise ValueError("baseline cycles unknown")
        return 100.0 * self.buckets[bucket] / base

    def seconds(self, frequency_hz: float) -> float:
        return self.cycles / frequency_hz

    def switches_per_second(self, frequency_hz: float,
                            baseline: float = 0.0) -> float:
        """Permission switches per second of *baseline* execution time.

        Table V/VI define switch frequency against the unprotected run.
        """
        base = baseline or self.baseline_cycles or self.cycles
        return self.perm_switches * frequency_hz / base

    def to_dict(self, *, baseline: float = 0.0) -> Dict[str, object]:
        """Machine-readable export (JSON-safe) for result archiving."""
        base = baseline or self.baseline_cycles
        out: Dict[str, object] = {
            "scheme": self.scheme,
            "cycles": self.cycles,
            "baseline_cycles": base,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "pmo_accesses": self.pmo_accesses,
            "perm_switches": self.perm_switches,
            "tlb": {"l1_hits": self.tlb_l1_hits,
                    "l2_hits": self.tlb_l2_hits,
                    "misses": self.tlb_misses},
            "evictions": self.evictions,
            "dttlb_misses": self.dttlb_misses,
            "ptlb_misses": self.ptlb_misses_count,
            "tlb_entries_invalidated": self.tlb_entries_invalidated,
            "pte_rewrites": self.pte_rewrites,
            "protection_faults": self.protection_faults,
            "context_switches": self.context_switches,
            "cross_core_shootdowns": self.cross_core_shootdowns,
            "cross_core_shootdown_cycles": self.cross_core_shootdown_cycles,
            "buckets": dict(self.buckets),
        }
        if base:
            out["overhead_percent"] = 100.0 * (self.cycles - base) / base
        if self.metrics is not None:
            out["metrics"] = self.metrics
        if self.mark_cycles is not None:
            out["mark_cycles"] = list(self.mark_cycles)
        return out

    def summary(self) -> str:
        lines = [
            f"scheme={self.scheme} cycles={self.cycles:.0f} "
            f"instructions={self.instructions}",
            f"  loads={self.loads} stores={self.stores} "
            f"pmo_accesses={self.pmo_accesses} switches={self.perm_switches}",
            f"  tlb: l1_hits={self.tlb_l1_hits} l2_hits={self.tlb_l2_hits} "
            f"misses={self.tlb_misses}",
            f"  evictions={self.evictions} dttlb_misses={self.dttlb_misses} "
            f"ptlb_misses={self.ptlb_misses_count} "
            f"invalidated={self.tlb_entries_invalidated}",
        ]
        if self.baseline_cycles:
            lines.append(
                f"  overhead={self.overhead_percent():.2f}% over baseline")
        nonzero = {k: v for k, v in self.buckets.items() if v}
        if nonzero:
            lines.append("  buckets: " + ", ".join(
                f"{k}={v:.0f}" for k, v in sorted(nonzero.items())))
        return "\n".join(lines)


#: Integer event counters summed field-by-field by :func:`merge_run_stats`.
_MERGE_COUNTERS = (
    "instructions", "loads", "stores", "pmo_accesses", "perm_switches",
    "tlb_l1_hits", "tlb_l2_hits", "tlb_misses", "context_switches",
    "evictions", "dttlb_misses", "ptlb_misses_count",
    "tlb_entries_invalidated", "pte_rewrites", "protection_faults",
    "cross_core_shootdowns",
)


def merge_run_stats(shards: List[RunStats]) -> RunStats:
    """Fold per-shard replay statistics into one whole-run total.

    Multi-core replay runs each worker slot's trace shard on its own
    simulated core; the merged view sums every event counter, cycle total
    and overhead bucket across the shards **in slot order** — a fixed
    float-addition order, so the merge is deterministic.  Per-shard obs
    metrics merge through the same :class:`~repro.obs.metrics`
    machinery the fork executor uses.  ``mark_cycles`` stays unset: the
    per-shard mark clocks live on per-core timelines and only make sense
    shard by shard (the service layer consumes them per slot before
    merging).
    """
    if not shards:
        raise ValueError("merge_run_stats needs at least one shard")
    merged = RunStats(scheme=shards[0].scheme)
    registry = None
    for stats in shards:
        if stats.scheme != merged.scheme:
            raise ValueError(
                f"cannot merge shards of different schemes "
                f"({merged.scheme!r} vs {stats.scheme!r})")
        merged.cycles += stats.cycles
        merged.baseline_cycles += stats.baseline_cycles
        merged.cross_core_shootdown_cycles += \
            stats.cross_core_shootdown_cycles
        for name in _MERGE_COUNTERS:
            setattr(merged, name, getattr(merged, name) + getattr(stats,
                                                                  name))
        for bucket, cycles in stats.buckets.items():
            merged.buckets[bucket] = merged.buckets.get(bucket, 0.0) + cycles
        if stats.metrics is not None:
            if registry is None:
                from ..obs.metrics import MetricsRegistry
                registry = MetricsRegistry()
            registry.merge(stats.metrics)
    if registry is not None:
        merged.metrics = registry.as_dict()
    return merged
