"""Micro-benchmarks of the service layer (multi-round timings).

Times the three stages a service experiment pays for — trace generation
(traffic + batching + server execution), marked replay under the paper's
schemes, and latency accounting — at a fixed 64-client configuration.

Cell sizes are chosen so each entry measures its pipeline's streaming
throughput rather than fixed setup cost: generation cells run tens of
thousands of requests (the columnar synthesis and the chunked trace
emitter amortize workspace setup within the first few thousand), and
``generate:service-1m`` drives the full million-request, 256-worker
configuration the scale work targets (``REPRO_SMOKE=1`` shrinks it for
constrained runs; docs/PERFORMANCE.md "Streaming generation").

Besides the pytest-benchmark output, every timing lands in
``benchmarks/out/BENCH_service.json`` together with the serving-level
results (p99 latency, throughput) so CI can track both simulator speed
and modelled server performance from one artifact.
"""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.engine import replay_one
from repro.scenario import smoke_active
from repro.service import (ServiceParams, account, account_sharded,
                           batch_boundaries, build_plan,
                           generate_service_trace,
                           generate_service_trace_keyed, shard_by_worker)
from repro.sim.config import DEFAULT_CONFIG

_SMOKE = smoke_active()

PARAMS = ServiceParams(n_clients=64, n_requests=20_000)
#: The scheme-keyed closed loop: calibration + feedback dispatch.  The
#: event-driven feedback recurrence is inherently sequential, so the
#: cell serves multi-page requests — the streamed server, not the
#: dispatch loop, carries most of the event volume (as it does at any
#: production request size).
CLOSED = ServiceParams(n_clients=16, n_requests=8_000, arrival="closed",
                       dispatch="replay", pattern="burst", read_words=16)
#: Multi-core replay: four worker slots, sharded onto four simulated
#: cores with cross-core shootdown accounting (docs/MULTICORE.md).
MULTICORE = ServiceParams(n_clients=64, n_requests=20_000, workers=4)
#: The scale target: one million requests over 256 workers
#: (ROADMAP "millions of users"; REPRO_SMOKE shrinks it 20x).
MILLION = ServiceParams(n_clients=64,
                        n_requests=50_000 if _SMOKE else 1_000_000,
                        workers=256)
#: Scheduler overhead: the same cell planned with the full control loop
#: engaged — SLO valve, affinity selection, epoch rebalancing
#: (docs/SCHEDULING.md) — gated against the static planner's entry.
SCHED = replace(MULTICORE, pattern="churn", sched_policy="slo_adaptive",
                slo_p99_cycles=20000.0, sched_epoch_batches=16)

#: Accumulated machine-readable results, flushed by the module fixture.
_RESULTS = {}


@pytest.fixture(scope="module")
def generated():
    trace, _ws = generate_service_trace(PARAMS)
    return trace, build_plan(PARAMS), batch_boundaries(trace)


@pytest.fixture(scope="module", autouse=True)
def _emit_json():
    """Write BENCH_service.json after all benches in this module ran."""
    yield
    out_dir = pathlib.Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / "BENCH_service.json"
    path.write_text(json.dumps(
        {"params": {"n_clients": PARAMS.n_clients,
                    "n_requests": PARAMS.n_requests,
                    "arrival": PARAMS.arrival,
                    "batching": PARAMS.batching},
         "results": _RESULTS}, indent=2, sort_keys=True) + "\n")
    print(f"\n[machine-readable results saved to {path}]")


def _record(name: str, benchmark, events: int, **extra) -> None:
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    mean_s = getattr(stats, "mean", None) if stats is not None else None
    _RESULTS[name] = {
        "events": events,
        "mean_s": mean_s,
        "events_per_s": (events / mean_s if mean_s else None),
        **extra,
    }


@pytest.mark.parametrize("scheme", ["baseline", "mpk_virt", "domain_virt"])
def test_marked_replay_throughput(benchmark, generated, scheme):
    trace, plan, marks = generated

    def replay():
        # Marked isolated-context replay: the path run_service executes
        # for every (client count, scheme) cell.
        return replay_one(trace, scheme, marks=marks)

    stats = benchmark.pedantic(replay, rounds=3, iterations=1)
    assert stats.mark_cycles and len(stats.mark_cycles) == len(marks)
    summary = account(plan, trace, stats,
                      frequency_hz=DEFAULT_CONFIG.processor.frequency_hz)
    benchmark.extra_info["events"] = len(trace)
    _record(f"replay:{scheme}", benchmark, len(trace),
            served=summary.n_served,
            p99_cycles=summary.p99,
            throughput_rps=summary.throughput_rps)


def test_service_generation_throughput(benchmark):
    trace, _ws = benchmark.pedantic(
        lambda: generate_service_trace(PARAMS), rounds=3, iterations=1)
    assert len(trace) > 0
    _record("generate:service-64c", benchmark, len(trace))


def test_million_request_generation_throughput(benchmark):
    # The headline scale entry: synthesize + plan + stream-serve the
    # million-request, 256-worker cell.  Two rounds keep the bench job
    # bounded; the throughput is chunk-streamed and stable.
    trace, _ws = benchmark.pedantic(
        lambda: generate_service_trace(MILLION), rounds=2, iterations=1)
    assert len(trace) > MILLION.n_requests
    _record("generate:service-1m", benchmark, len(trace),
            requests=MILLION.n_requests, workers=MILLION.workers,
            smoke=_SMOKE)


def test_closed_loop_generation_throughput(benchmark):
    # Scheme-keyed generation: the first round pays the calibration
    # replay, later rounds hit the process-local clock memo — the mean
    # mirrors what a sweep over several client counts amortizes to.
    trace, _ws = benchmark.pedantic(
        lambda: generate_service_trace_keyed(CLOSED, "domain_virt"),
        rounds=3, iterations=1)
    assert len(trace) > 0
    _record("generate:service-closed-dv", benchmark, len(trace))


def test_multicore_sharded_replay_throughput(benchmark):
    # The workers=4 path: shard the trace per slot, replay every shard
    # (serially here — REPRO_JOBS parallelism is host-dependent), and
    # account the merged run.  Events counted once per measured event.
    trace, _ws = generate_service_trace(MULTICORE)
    plan = build_plan(MULTICORE)
    shards = shard_by_worker(trace)
    assert len(shards) == MULTICORE.workers

    def replay():
        return [replay_one(shard.trace, "mpk_virt", marks=shard.marks,
                           n_cores=len(shards)) for shard in shards]

    stats = benchmark.pedantic(replay, rounds=3, iterations=1)
    summary = account_sharded(plan, shards, stats,
                              frequency_hz=DEFAULT_CONFIG.processor
                              .frequency_hz)
    assert summary.cross_core_shootdown_cycles > 0
    events = sum(len(shard.trace) for shard in shards)
    _record("replay:mpk_virt-4core", benchmark, events,
            served=summary.n_served,
            p99_cycles=summary.p99,
            throughput_rps=summary.throughput_rps,
            cross_core_shootdown_cycles=summary
            .cross_core_shootdown_cycles)


def test_static_planning_throughput(benchmark):
    # The dispatch simulation alone (no trace, no replay): the baseline
    # the scheduler entry below is compared against.
    plan = benchmark.pedantic(lambda: build_plan(MULTICORE), rounds=3,
                              iterations=1)
    offered = plan.n_served + plan.n_rejected + len(plan.shed)
    assert plan.epochs == 0
    _record("plan:static-4w", benchmark, offered)


def test_sched_policy_planning_throughput(benchmark):
    # Scheduler overhead: the identical cell planned under the heaviest
    # policy — rolling p99 window, backlog estimator, affinity-first
    # selection, epoch rebalancing.  The regression gate holds this
    # within the usual threshold of its committed baseline, so the
    # control loop cannot quietly become super-linear in the queue.
    plan = benchmark.pedantic(lambda: build_plan(SCHED), rounds=3,
                              iterations=1)
    offered = plan.n_served + plan.n_rejected + len(plan.shed)
    assert plan.epochs > 0
    _record("plan:slo_adaptive-4w", benchmark, offered,
            migrations=plan.migrations, shed=len(plan.shed))


def test_accounting_throughput(benchmark, generated):
    trace, plan, marks = generated
    stats = replay_one(trace, "domain_virt", marks=marks)

    def run():
        return account(plan, trace, stats,
                       frequency_hz=DEFAULT_CONFIG.processor.frequency_hz)

    summary = benchmark.pedantic(run, rounds=3, iterations=1)
    assert summary.latency.count == plan.n_served
    _record("account:service-64c", benchmark, plan.n_served)
