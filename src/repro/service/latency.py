"""Per-request latency accounting from marked replays.

One marked replay (``replay_one`` with ``marks`` from
:func:`~repro.service.server.batch_boundaries`, or one shard's replay
from :meth:`~repro.engine.core.Engine.replay_served`) yields the
elapsed-cycle clock at every batch completion under one scheme.  This
module re-times that replay onto the arrival wall clock and distributes
batch completions back to individual requests:

* a replay is one core executing its scheduled batches (the whole
  interleaving for :func:`account`, one worker slot's shard for
  :func:`account_sharded`), so the k-th inter-mark delta
  ``C_k - C_{k-1}`` is batch k's *service duration* under the scheme
  (including its share of permission-switch, DTTLB/PTLB and shootdown
  overhead);
* the wall clock is kept **per worker slot**: batch k on worker w
  cannot start before that worker is free nor before its members have
  arrived, so its completion is
  ``W_w = max(W_w, latest arrival in batch) + (C_k - C_{k-1})``
  — exact for any worker count, and bit-identical to the old serial
  recurrence when ``workers == 1``;
* every member request's latency is ``W_w - arrival``.

Which worker served which batch is carried by the trace's batch markers
(:func:`~repro.service.server.batch_markers`), not inferred from the
order workers first close a window — a worker idle through its first
scheduling quantum no longer shifts the attribution.

The walk itself is columnar (:func:`_walk_marks`): only the per-worker
wall-clock recurrence runs as a scalar loop over *batches*; member
gathers, the latest-arrival reduction, the latency distribution and the
per-client folds operate on the plan's column store
(:class:`~repro.service.batching.PlanColumns`) in whole-array steps —
same float ops in the same order, so the accounting of a million-request
run matches the historical per-object walk bit for bit while doing none
of its per-request Python work.

Percentiles come from :class:`repro.obs.metrics.Histogram` — the obs
layer's exact-sample histogram — so the summary's p50/p95/p99 match
what an external metrics consumer would compute from the exported
``service.latency_cycles`` samples.  (Past
``Histogram.RESERVOIR_SIZE`` samples the histogram degrades to a
bounded deterministic reservoir and bumps the
``service.latency_reservoir_engaged`` obs counter.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import SimulationError
from ..cpu.trace import Trace
from ..obs.metrics import Histogram
from ..sim.stats import RunStats, merge_run_stats
from .batching import PlanColumns, ServicePlan
from .sched.accounting import SchedAccounting, fold_shed
from .sched.profile import profile_tenants
from .server import batch_markers


def _partition_order(cols: PlanColumns):
    """Plan indices grouped by worker slot, plan order within a slot.

    Returns ``(order, slots, offsets, counts)``: ``order`` holds plan
    batch indices sorted by slot (stable, so each slot's subsequence
    stays in plan order); slot ``slots[i]``'s partition is
    ``order[offsets[i]:offsets[i] + counts[i]]``.
    """
    order = np.argsort(cols.batch_workers, kind="stable")
    slots, counts = np.unique(cols.batch_workers, return_counts=True)
    offsets = np.zeros(len(slots), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return order, slots, offsets, counts


def _served_plan_order(trace: Trace, cols: PlanColumns) -> np.ndarray:
    """Plan batch indices in the order the trace actually served them.

    With one worker this is plan order.  With several, the round-robin
    scheduler interleaves the per-worker partitions; each batch marker
    carries the serving worker's slot (recovered from the trace's
    INIT_PERM roster), and within one worker batches complete in
    partition order.
    """
    markers = batch_markers(trace)
    if len(markers) != cols.n_batches:
        raise SimulationError(
            f"trace closed {len(markers)} permission windows but the "
            f"plan has {cols.n_batches} batches — trace/plan mismatch")
    if not markers:
        return np.empty(0, dtype=np.int64)
    order, slots, offsets, counts = _partition_order(cols)
    marker_slots = np.fromiter((marker.worker for marker in markers),
                               dtype=np.int64, count=len(markers))
    # Each marker consumes the next batch of its slot's partition: its
    # occurrence rank among same-slot markers is the partition cursor.
    by_slot = np.argsort(marker_slots, kind="stable")
    grouped = marker_slots[by_slot]
    fresh = np.r_[True, grouped[1:] != grouped[:-1]]
    group_start = np.flatnonzero(fresh)
    rank_sorted = np.arange(len(grouped), dtype=np.int64) - \
        group_start[np.cumsum(fresh) - 1]
    rank = np.empty(len(markers), dtype=np.int64)
    rank[by_slot] = rank_sorted
    position = np.searchsorted(slots, marker_slots)
    known = (position < len(slots)) & \
        (slots[np.minimum(position, len(slots) - 1)] == marker_slots)
    overrun = ~known | (rank >= counts[np.minimum(position,
                                                  len(slots) - 1)])
    if overrun.any():
        slot = int(marker_slots[int(np.flatnonzero(overrun)[0])])
        raise SimulationError(
            f"trace serves more batches on worker slot {slot} than "
            f"the plan assigns it — trace/plan mismatch")
    return order[offsets[position] + rank]


@dataclass
class ServiceSummary:
    """One scheme's serving performance over one plan."""

    scheme: str
    n_offered: int
    n_served: int
    n_rejected: int
    #: Requests the scheduling policy's SLO valve shed (always 0 under
    #: the ``static`` policy).
    n_shed: int
    n_batches: int
    #: Served requests that shared a window with an earlier one.
    coalesced: int
    perm_switches: int
    #: Replayed execution cycles (busy time on the core).
    cycles: float
    #: Wall-clock cycles from first arrival to last completion (the
    #: latest of the per-worker wall clocks).
    wall_cycles: float
    #: Served requests per second of simulated wall time.
    throughput_rps: float
    latency: Histogram = field(default_factory=Histogram)
    #: Worker slot -> replayed cycles spent serving its batches.
    worker_busy: Dict[int, float] = field(default_factory=dict)
    #: Dispatch-simulation iterations behind the plan (see
    #: :class:`~repro.service.batching.ServicePlan`).
    loop_iterations: int = 0
    #: Key-remap shootdown broadcasts that crossed core boundaries, and
    #: the cycles those broadcasts spent on *other* cores — nonzero only
    #: for multi-core (sharded) replays of schemes that interrupt every
    #: core on a remap (MPKV/libmpk); always zero for domain
    #: virtualization.  Attribution, not extra cost: the cycles are part
    #: of the ``tlb_invalidations`` bucket already inside ``cycles``.
    cross_core_shootdowns: int = 0
    cross_core_shootdown_cycles: float = 0.0
    #: Per-client scheduling accounting (latency histograms, busy
    #: cycles, shed/migration counters, fairness, SLO attainment) —
    #: populated by :func:`account`/:func:`account_sharded`; feed it to
    #: :func:`repro.service.sched.profile.profile_tenants` for tenant
    #: classification.
    sched: Optional[SchedAccounting] = None
    stats: Optional[RunStats] = None

    @property
    def fairness(self) -> float:
        """Jain's index over per-client mean latency (1 = equal)."""
        return self.sched.fairness() if self.sched is not None else 1.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of served requests meeting ``slo_p99_cycles``."""
        return self.sched.attainment() if self.sched is not None else 1.0

    @property
    def p50(self) -> float:
        return self.latency.percentile(50.0) or 0.0

    @property
    def p95(self) -> float:
        return self.latency.percentile(95.0) or 0.0

    @property
    def p99(self) -> float:
        return self.latency.percentile(99.0) or 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency.mean

    @property
    def busy_fraction(self) -> float:
        """Mean worker utilization: busy cycles over wall cycles."""
        if not self.worker_busy or self.wall_cycles <= 0:
            return 0.0
        return sum(self.worker_busy.values()) / (
            len(self.worker_busy) * self.wall_cycles)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe export (results archive, bench harness)."""
        return {
            "scheme": self.scheme,
            "offered": self.n_offered,
            "served": self.n_served,
            "rejected": self.n_rejected,
            "shed": self.n_shed,
            "batches": self.n_batches,
            "coalesced": self.coalesced,
            "perm_switches": self.perm_switches,
            "cycles": self.cycles,
            "wall_cycles": self.wall_cycles,
            "throughput_rps": self.throughput_rps,
            "worker_busy_cycles": {str(slot): self.worker_busy[slot]
                                   for slot in sorted(self.worker_busy)},
            "loop_iterations": self.loop_iterations,
            "cross_core_shootdowns": self.cross_core_shootdowns,
            "cross_core_shootdown_cycles": self.cross_core_shootdown_cycles,
            "latency_cycles": {"mean": self.mean_latency, "p50": self.p50,
                               "p95": self.p95, "p99": self.p99,
                               "max": self.latency.max},
            "sched": self.sched.to_dict() if self.sched is not None
            else None,
        }


def _walk_marks(cols: PlanColumns, plan_idx: np.ndarray, marks,
                latency: Histogram, sched: SchedAccounting,
                walls: Dict[int, float], busy: Dict[int, float]) -> None:
    """Fold one mark sequence over the given batches (served order).

    The per-worker wall-clock recurrence —
    ``W_w = max(W_w, latest member arrival) + (C_k - C_{k-1})`` —
    stays a scalar loop (each step feeds the next), but it runs over
    *batches* only; everything per *request* (member gathers, latest-
    arrival reduction, latency distribution, per-client folds) operates
    on the plan's column store in whole-array steps.  Every float op is
    the same op in the same order as the historical per-object walk, so
    the resulting samples are bit-identical (pinned by
    ``tests/service/test_latency.py``).
    """
    n = len(plan_idx)
    if n == 0:
        return
    marks_arr = np.asarray(marks, dtype=np.float64)
    deltas = np.empty(n, dtype=np.float64)
    deltas[0] = marks_arr[0] - 0.0
    np.subtract(marks_arr[1:], marks_arr[:-1], out=deltas[1:])

    starts = cols.batch_starts
    sizes = np.diff(starts)[plan_idx]
    csr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=csr[1:])
    rows = cols.member_rows[
        np.repeat(starts[plan_idx], sizes) +
        (np.arange(int(csr[-1]), dtype=np.int64) -
         np.repeat(csr[:-1], sizes))]
    arrivals = cols.requests.arrivals[rows]
    ready = np.maximum.reduceat(arrivals, csr[:-1])

    done_list = [0.0] * n
    for i, (slot, client, batch_ready, delta) in enumerate(zip(
            cols.batch_workers[plan_idx].tolist(),
            cols.batch_clients[plan_idx].tolist(),
            ready.tolist(), deltas.tolist())):
        finish = max(walls.get(slot, 0.0), batch_ready) + delta
        walls[slot] = finish
        busy[slot] = busy.get(slot, 0.0) + delta
        sched.observe_window(client, delta)
        done_list[i] = finish
    done = np.asarray(done_list, dtype=np.float64)

    latencies = np.repeat(done, sizes) - arrivals
    latency.observe_many(latencies)
    sched.observe_requests(cols.requests.clients[rows], latencies,
                           cols.requests.is_write[rows])


def account(plan: ServicePlan, trace: Trace, stats: RunStats, *,
            frequency_hz: float) -> ServiceSummary:
    """Turn one marked replay into a :class:`ServiceSummary`.

    The single-core case of :func:`account_sharded`: one walk over the
    plan's batches in the order the trace served them.  Also publishes
    the run into the active obs registry/event stream (``service.*``
    names, see :mod:`repro.obs.schema`) when observability is enabled.
    """
    if stats.mark_cycles is None and plan.columns.n_batches:
        raise SimulationError(
            "RunStats has no mark_cycles; replay with "
            "marks=batch_boundaries(trace)")
    order = _served_plan_order(trace, plan.columns)
    return _summarize(plan, [(order, stats.mark_cycles or [], "trace")],
                      stats, frequency_hz)


def account_sharded(plan: ServicePlan, shards, shard_stats, *,
                    frequency_hz: float) -> ServiceSummary:
    """Turn per-shard marked replays into one :class:`ServiceSummary`.

    ``shards`` is the slot-ordered output of
    :func:`repro.service.shard.shard_by_worker` and ``shard_stats`` the
    slot-aligned :class:`RunStats` list one scheme got back from
    :meth:`repro.engine.core.Engine.replay_served`.  Each shard's mark
    clock runs on its own simulated core, so the k-th inter-mark delta
    of slot w is directly the service duration of that slot's k-th batch
    — the wall-clock recurrence is the same as :func:`account`'s, just
    walked once per slot instead of once through the interleaved marker
    order:

    ``W_w = max(W_w, latest member arrival) + (C_k - C_{k-1})``

    With one worker the shard *is* the whole trace and the recurrence
    walks the identical batch/mark sequence with the identical float
    operations, so the summary (and the merged ``RunStats``) is
    bit-identical to the unsharded path — the differential anchor.  At
    ``workers > 1`` latency samples arrive grouped by slot rather than
    in marker-interleaved order; the histogram's percentiles are
    order-independent, so only the raw sample order differs.

    The merged replay statistics (``summary.stats``) sum the per-core
    runs in slot order (:func:`~repro.sim.stats.merge_run_stats`);
    busy-cycle conservation — per-slot busy sums equal each shard's
    final mark clock, and their total equals the merged totals' share —
    is pinned by ``tests/service/test_multicore.py``.
    """
    shards = list(shards)
    shard_stats = list(shard_stats)
    if len(shards) != len(shard_stats):
        raise SimulationError(
            f"{len(shard_stats)} shard replays for {len(shards)} shards")
    order, slots, offsets, counts = _partition_order(plan.columns)
    slot_index = {int(slot): i for i, slot in enumerate(slots.tolist())}
    walks = []
    for shard, stats in zip(shards, shard_stats):
        at = slot_index.get(shard.slot)
        partition = order[offsets[at]:offsets[at] + counts[at]] \
            if at is not None else np.empty(0, dtype=np.int64)
        if stats.mark_cycles is None and len(partition):
            raise SimulationError(
                f"shard {shard.slot} RunStats has no mark_cycles; replay "
                f"with the shard's marks")
        walks.append((partition, stats.mark_cycles or [],
                      f"shard {shard.slot}"))
    return _summarize(plan, walks, merge_run_stats(shard_stats),
                      frequency_hz)


def _summarize(plan: ServicePlan,
               walks: Sequence[Tuple[np.ndarray, Sequence[float], str]],
               stats: RunStats, frequency_hz: float) -> ServiceSummary:
    """The accounting core: fold every ``(plan indices in served order,
    marks, label)`` walk onto the per-worker wall clocks and summarize
    against the run's (merged) ``stats``."""
    cols = plan.columns
    latency = Histogram()
    sched = SchedAccounting(slo_target=plan.params.slo_p99_cycles)
    walls: Dict[int, float] = {}
    busy: Dict[int, float] = {}
    for order, marks, label in walks:
        if len(marks) != len(order):
            raise SimulationError(
                f"{label}: {len(marks)} marks for {len(order)} planned "
                f"batches")
        _walk_marks(cols, order, marks, latency, sched, walls, busy)
    wall = max(walls.values()) if walls else 0.0
    fold_shed(sched, plan)

    served = plan.n_served
    shed = len(plan.shed)
    throughput = served * frequency_hz / wall if wall > 0 else 0.0
    summary = ServiceSummary(
        scheme=stats.scheme,
        n_offered=served + plan.n_rejected + shed,
        n_served=served,
        n_rejected=plan.n_rejected,
        n_shed=shed,
        n_batches=cols.n_batches,
        coalesced=plan.coalesced,
        perm_switches=stats.perm_switches,
        cycles=stats.cycles,
        wall_cycles=wall,
        throughput_rps=throughput,
        latency=latency,
        worker_busy={slot: busy[slot] for slot in sorted(busy)},
        loop_iterations=plan.loop_iterations,
        cross_core_shootdowns=stats.cross_core_shootdowns,
        cross_core_shootdown_cycles=stats.cross_core_shootdown_cycles,
        sched=sched,
        stats=stats)
    _publish(summary, plan)
    return summary


def _publish(summary: ServiceSummary, plan: ServicePlan) -> None:
    registry = obs.metrics()
    sched = summary.sched
    if registry is not None:
        registry.counter("service.requests.offered").inc(summary.n_offered)
        registry.counter("service.requests.served").inc(summary.n_served)
        registry.counter("service.requests.rejected").inc(summary.n_rejected)
        registry.counter("service.requests.coalesced").inc(summary.coalesced)
        registry.counter("service.batches").inc(summary.n_batches)
        registry.counter("service.loop_iterations").inc(
            summary.loop_iterations)
        registry.counter("service.cross_core_shootdowns").inc(
            summary.cross_core_shootdowns)
        registry.counter("service.cross_core_shootdown_cycles").inc(
            int(round(summary.cross_core_shootdown_cycles)))
        registry.histogram("service.latency_cycles").merge(
            summary.latency.as_dict())
        engaged = int(summary.latency.sampling) + (
            sum(1 for histogram in sched.latency.values()
                if histogram.sampling) if sched is not None else 0)
        if engaged:
            registry.counter(
                "service.latency_reservoir_engaged").inc(engaged)
        busy = registry.histogram("service.worker_busy_cycles")
        for slot in sorted(summary.worker_busy):
            busy.observe(summary.worker_busy[slot])
        registry.gauge("service.throughput_rps").set(summary.throughput_rps)
        if sched is not None:
            registry.counter("service.sched.shed").inc(summary.n_shed)
            registry.counter("service.sched.migrations").inc(
                sched.migrations)
            registry.counter("service.sched.epochs").inc(sched.epochs)
            registry.gauge("service.sched.fairness").set(sched.fairness())
            registry.gauge("service.sched.slo_attainment").set(
                sched.attainment())
            p99s = registry.histogram("service.sched.client_p99_cycles")
            for client in sched.clients:
                p99s.observe(sched.client_percentile(client, 99.0))
    ev = obs.active_events()
    if ev is not None:
        ev.emit("service.run", scheme=summary.scheme,
                clients=plan.params.n_clients, served=summary.n_served,
                rejected=summary.n_rejected,
                throughput_rps=round(summary.throughput_rps, 3),
                p99_cycles=round(summary.p99, 1))
        if sched is not None:
            for profile in profile_tenants(plan, sched,
                                           summary.wall_cycles):
                ev.emit("service.client", scheme=summary.scheme,
                        client=profile.client, served=profile.served,
                        shed=profile.shed,
                        busy_fraction=round(profile.busy_fraction, 4),
                        mean_cycles=round(profile.mean_cycles, 1),
                        p99_cycles=round(profile.p99_cycles, 1),
                        classes=",".join(profile.classes))
