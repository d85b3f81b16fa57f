"""Latency accounting: re-timing, summary invariants, error handling."""

import dataclasses
import json

import pytest

from repro.engine import replay_one
from repro.errors import SimulationError
from repro.service import (ServiceParams, account, batch_boundaries,
                           build_plan, generate_service_trace)
from repro.service.server import ServiceWorkload, batch_markers
from repro.sim.config import DEFAULT_CONFIG

from .legacy import (Batch, Request, columnar_plan, object_view,
                     serve_batch, served_batches)

PARAMS = ServiceParams(n_clients=8, n_requests=150)
FREQ = DEFAULT_CONFIG.processor.frequency_hz


@pytest.fixture(scope="module")
def accounted():
    trace, _ws = generate_service_trace(PARAMS)
    plan = build_plan(PARAMS)
    marks = batch_boundaries(trace)
    stats = replay_one(trace, "domain_virt", marks=marks)
    return plan, trace, stats, account(plan, trace, stats, frequency_hz=FREQ)


class TestSummaryInvariants:
    def test_counts(self, accounted):
        plan, _trace, _stats, summary = accounted
        assert summary.n_served == plan.n_served
        assert summary.n_rejected == plan.n_rejected
        assert summary.n_offered == PARAMS.n_requests
        assert summary.n_batches == plan.columns.n_batches
        assert summary.latency.count == plan.n_served

    def test_latencies_are_positive_and_bounded_by_wall(self, accounted):
        _plan, _trace, stats, summary = accounted
        assert summary.latency.min > 0
        assert summary.latency.max <= summary.wall_cycles
        # The wall clock covers at least the busy time of every batch.
        assert summary.wall_cycles >= stats.mark_cycles[-1]

    def test_percentiles_are_ordered(self, accounted):
        summary = accounted[3]
        assert 0 < summary.p50 <= summary.p95 <= summary.p99 \
            <= summary.latency.max

    def test_throughput_consistent_with_wall(self, accounted):
        summary = accounted[3]
        assert summary.throughput_rps == pytest.approx(
            summary.n_served * FREQ / summary.wall_cycles)

    def test_to_dict_is_json_safe(self, accounted):
        exported = json.loads(json.dumps(accounted[3].to_dict()))
        assert exported["scheme"] == "domain_virt"
        assert exported["served"] == accounted[0].n_served
        assert exported["latency_cycles"]["p50"] <= \
            exported["latency_cycles"]["p99"]


class TestSchemeSensitivity:
    def test_slower_scheme_means_worse_tail_and_throughput(self, accounted):
        plan, trace, _stats, fast = accounted
        marks = batch_boundaries(trace)
        slow = account(plan, trace, replay_one(trace, "libmpk", marks=marks),
                       frequency_hz=FREQ)
        assert slow.p99 > fast.p99
        assert slow.throughput_rps < fast.throughput_rps
        # Same schedule: serving counts are scheme-independent.
        assert (slow.n_served, slow.n_batches, slow.coalesced) == \
            (fast.n_served, fast.n_batches, fast.coalesced)


class TestPerWorkerAccounting:
    """Differential checks of the per-worker wall-clock recurrence."""

    @pytest.fixture(scope="class")
    def multi(self):
        params = dataclasses.replace(PARAMS, workers=3)
        trace, _ws = generate_service_trace(params)
        plan = build_plan(params)
        stats = replay_one(trace, "domain_virt",
                           marks=batch_boundaries(trace))
        return plan, trace, stats, account(plan, trace, stats,
                                           frequency_hz=FREQ)

    def test_busy_cycles_conserve_replay_total(self, multi):
        # Inter-mark deltas telescope: however batches are attributed
        # to workers, their busy cycles must sum to the replay's last
        # mark (the cycles spent serving, in total).
        _plan, _trace, stats, summary = multi
        assert sum(summary.worker_busy.values()) == \
            pytest.approx(stats.mark_cycles[-1], rel=1e-12)

    def test_every_planned_slot_is_accounted(self, multi):
        plan, trace, stats, summary = multi
        assert set(summary.worker_busy) == \
            set(plan.columns.batch_workers.tolist()) == {0, 1, 2}
        assert 0.0 < summary.busy_fraction <= 1.0
        # Three workers draining the same load finish sooner than one
        # shared wall clock would (the pre-per-worker recurrence).
        order = served_batches(trace, plan)
        assert summary.wall_cycles < serial_wall(order, stats)

    def test_workers1_degenerates_to_serial_recurrence(self, accounted):
        # With one worker the per-slot map holds a single clock; the
        # result must be bit-identical (==, not approx) to the serial
        # recurrence computed independently here.
        plan, _trace, stats, summary = accounted
        wall = 0.0
        expected = []
        previous = 0.0
        for batch, elapsed in zip(object_view(plan).batches,
                                  stats.mark_cycles):
            delta = elapsed - previous
            previous = elapsed
            ready = max(request.arrival for request in batch.requests)
            wall = max(wall, ready) + delta
            for request in batch.requests:
                expected.append(wall - request.arrival)
        assert summary.wall_cycles == wall
        assert summary.latency.samples == expected
        assert summary.worker_busy == {0: pytest.approx(
            stats.mark_cycles[-1], rel=1e-12)}

    def test_idle_first_quantum_worker_attribution(self):
        # Worker slot 1 closes the FIRST window of the trace while slot
        # 0 is still idle — inferring slots from whichever tid closes a
        # window first (the old scheme) would swap the attribution; the
        # INIT_PERM roster in the markers must not.
        params = ServiceParams(n_clients=2, n_requests=4, workers=2)
        workload = ServiceWorkload(params)
        requests = [Request(rid=i, client=i % 2, arrival=10.0 * i,
                            is_write=False) for i in range(3)]
        batches = [
            Batch(index=0, client=0, requests=(requests[0],), worker=1),
            Batch(index=1, client=1, requests=(requests[1],), worker=0),
            Batch(index=2, client=0, requests=(requests[2],), worker=1),
        ]
        plan = columnar_plan(params, batches)
        tids = workload.worker_tids
        serve_batch(workload, batches[0], tids[1])
        serve_batch(workload, batches[1], tids[0])
        serve_batch(workload, batches[2], tids[1])
        trace = workload.finish()

        assert [marker.worker for marker in batch_markers(trace)] == \
            [1, 0, 1]
        assert [batch.index for batch in served_batches(trace, plan)] == \
            [0, 1, 2]
        stats = replay_one(trace, "domain_virt",
                           marks=batch_boundaries(trace))
        summary = account(plan, trace, stats, frequency_hz=FREQ)
        assert set(summary.worker_busy) == {0, 1}
        # Slot 1 served two of the three (equal-sized) batches.
        assert summary.worker_busy[1] > summary.worker_busy[0]

    def test_all_rejected_run_accounts_cleanly(self):
        # A run that served nothing: empty plan, trace with only the
        # deny-by-default prologue, unmarked replay.  The summary must
        # degrade to zeros, not raise.
        params = ServiceParams(n_clients=2, n_requests=4)
        workload = ServiceWorkload(params)
        trace = workload.finish()
        rejected = [Request(rid=i, client=i % 2, arrival=float(i),
                            is_write=False) for i in range(4)]
        plan = columnar_plan(params, [], rejected)
        stats = replay_one(trace, "domain_virt")
        summary = account(plan, trace, stats, frequency_hz=FREQ)
        assert summary.n_served == 0
        assert summary.n_rejected == 4
        assert summary.n_offered == 4
        assert summary.wall_cycles == 0.0
        assert summary.throughput_rps == 0.0
        assert summary.p50 == summary.p99 == 0.0
        assert summary.busy_fraction == 0.0
        json.dumps(summary.to_dict())  # stays JSON-safe


def serial_wall(order, stats):
    """The old single-clock recurrence, for the multi-worker contrast."""
    wall = 0.0
    previous = 0.0
    for batch, elapsed in zip(order, stats.mark_cycles):
        delta = elapsed - previous
        previous = elapsed
        ready = max(request.arrival for request in batch.requests)
        wall = max(wall, ready) + delta
    return wall


class TestErrors:
    def test_unmarked_stats_are_rejected(self, accounted):
        plan, trace, _stats, _summary = accounted
        unmarked = replay_one(trace, "domain_virt")
        with pytest.raises(SimulationError):
            account(plan, trace, unmarked, frequency_hz=FREQ)

    def test_mark_count_mismatch_is_rejected(self, accounted):
        plan, trace, stats, _summary = accounted
        truncated = dataclasses.replace(
            stats, mark_cycles=stats.mark_cycles[:-1])
        with pytest.raises(SimulationError):
            account(plan, trace, truncated, frequency_hz=FREQ)
