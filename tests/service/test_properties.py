"""Property tests: conservation laws of the service pipeline over small
randomly drawn :class:`ServiceParams`.

* every offered row lands in exactly one of the plan's member, rejected
  and shed rows;
* every batch serves a single client on a worker slot in range;
* at one worker, ``account`` and ``account_sharded`` over
  ``shard_by_worker`` agree bit for bit;
* through the served-replay path (``Engine.replay_served`` then
  ``account_sharded``), each slot's busy cycles equal its shard's final
  mark, every offered request is served, rejected or shed, and SLO
  attainment never falls as the target grows;
* the replay engine reproduces the reference interpreter
  (``tests/oracle.py``) bit for bit on the served trace, marks
  included, for every registered scheme.
"""

import dataclasses
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.schemes import available_schemes, scheme_by_name
from repro.cpu.fast_timing import FastReplayEngine, supports_fast_replay
from repro.engine import (Engine, ReplayContext, TraceCache, WorkloadSpec,
                          replay_one)
from repro.service import (DispatchClock, ServiceParams, account,
                           account_sharded, batch_boundaries, build_plan,
                           build_plan_keyed, shard_by_worker)
from repro.service.server import ServiceWorkload
from repro.sim.config import DEFAULT_CONFIG

from ..oracle import ReferenceEngine

FREQ = DEFAULT_CONFIG.processor.frequency_hz
#: A fixed stand-in for a scheme-calibrated clock, so closed-feedback
#: draws need no calibration replay.
CLOCK = DispatchClock(scheme="fixed", window_cycles=120.0,
                      per_request_cycles=330.0)


@st.composite
def service_params(draw, workers=st.integers(1, 4)):
    loop = draw(st.sampled_from(["open", "closed", "closed-feedback"]))
    return ServiceParams(
        n_clients=draw(st.integers(1, 8)),
        n_requests=draw(st.integers(0, 120)),
        seed=draw(st.integers(0, 2 ** 16)),
        arrival="open" if loop == "open" else "closed",
        dispatch="replay" if loop == "closed-feedback" else "nominal",
        interarrival_cycles=draw(st.sampled_from([60.0, 150.0, 400.0])),
        think_cycles=draw(st.sampled_from([500.0, 2000.0, 20000.0])),
        pattern=draw(st.sampled_from(
            ["poisson", "burst", "diurnal", "churn", "waves"])),
        churn_period_cycles=5000.0,
        sched_policy=draw(st.sampled_from(
            ["static", "weighted_fair", "slo_adaptive"])),
        slo_p99_cycles=draw(st.sampled_from([0.0, 400.0, 3000.0])),
        sched_epoch_batches=draw(st.integers(1, 8)),
        max_queue=draw(st.sampled_from([0, 1, 4, 16])),
        batching=draw(st.sampled_from(["client", "none"])),
        batch_limit=draw(st.integers(1, 4)),
        batch_window=draw(st.integers(1, 8)),
        workers=draw(workers))


def plan_for(params):
    return build_plan(params, CLOCK if params.dispatch == "replay" else None)


@settings(max_examples=150, deadline=None)
@given(service_params())
def test_every_offered_row_has_exactly_one_outcome(params):
    cols = plan_for(params).columns
    outcomes = np.concatenate([cols.member_rows, cols.rejected_rows,
                               cols.shed_rows])
    assert sorted(outcomes.tolist()) == list(range(len(cols.requests)))
    if params.arrival == "open" or params.dispatch == "nominal":
        # A pre-generated stream offers exactly the request budget.
        assert len(cols.requests) == params.n_requests


@settings(max_examples=150, deadline=None)
@given(service_params())
def test_every_batch_serves_one_client_on_a_real_worker(params):
    plan = plan_for(params)
    cols = plan.columns
    sizes = plan.batch_sizes()
    assert (sizes >= 1).all() and (sizes <= params.batch_limit).all()
    member_clients = cols.requests.clients[cols.member_rows]
    assert (member_clients ==
            np.repeat(cols.batch_clients, sizes)).all()
    workers = cols.batch_workers
    assert ((workers >= 0) & (workers < params.workers)).all()


@settings(max_examples=40, deadline=None)
@given(service_params(workers=st.just(1)),
       st.sampled_from(["domain_virt", "mpk_virt"]))
def test_one_worker_sharded_accounting_is_the_classic_one(params, scheme):
    params = replace(params, n_requests=min(params.n_requests, 60))
    plan = plan_for(params)
    workload = ServiceWorkload(params)
    workload.serve(plan)
    trace = workload.finish()
    stats = replay_one(trace, scheme, marks=batch_boundaries(trace))
    classic = account(plan, trace, stats, frequency_hz=FREQ)
    shards = shard_by_worker(trace)
    sharded = account_sharded(
        plan, shards,
        [replay_one(shard.trace, scheme, marks=shard.marks)
         for shard in shards],
        frequency_hz=FREQ)
    assert sharded.to_dict() == classic.to_dict()
    assert sharded.latency.samples == classic.latency.samples


#: Every registered scheme the fast engine has a kernel for.
FAST_SCHEMES = sorted(name for name in available_schemes()
                      if supports_fast_replay(DEFAULT_CONFIG,
                                              scheme_by_name(name)))


def served_trace(params):
    workload = ServiceWorkload(params)
    workload.serve(plan_for(params))
    return workload.finish()


def replay_under(engine_class, trace, scheme, marks):
    """Replay on an ``engine_class`` engine over a fresh context; a
    raised error is returned as its type and message."""
    context = ReplayContext.from_trace(trace)
    engine = engine_class(DEFAULT_CONFIG, context.kernel, context.process,
                          scheme_by_name(scheme),
                          attach_info=context.attach_info)
    try:
        return engine.run(trace, marks=marks)
    except Exception as error:  # compared across engines below
        return type(error), str(error)


def assert_fast_is_reference(trace, scheme):
    marks = batch_boundaries(trace)
    ref = replay_under(ReferenceEngine, trace, scheme, marks)
    fast = replay_under(FastReplayEngine, trace, scheme, marks)
    if isinstance(ref, tuple):
        assert ref == fast
        return
    assert repr(ref.cycles) == repr(fast.cycles)
    assert {k: repr(v) for k, v in ref.buckets.items()} == \
        {k: repr(v) for k, v in fast.buckets.items()}
    assert [repr(c) for c in ref.mark_cycles or ()] == \
        [repr(c) for c in fast.mark_cycles or ()]
    assert dataclasses.asdict(ref) == dataclasses.asdict(fast)


@settings(max_examples=30, deadline=None)
@given(service_params(), st.sampled_from(FAST_SCHEMES))
def test_fast_replay_is_the_reference_on_served_traces(params, scheme):
    params = replace(params, n_requests=min(params.n_requests, 60))
    assert_fast_is_reference(served_trace(params), scheme)


@settings(max_examples=15, deadline=None)
@given(n_clients=st.integers(1, 12), n_requests=st.integers(1, 120),
       seed=st.integers(0, 2 ** 16), workers=st.integers(1, 3),
       dispatch=st.sampled_from(["nominal", "replay"]),
       scheme=st.sampled_from(["mpk_virt", "libmpk", "domain_virt"]))
def test_served_replay_conserves_cycles_and_requests(
        n_clients, n_requests, seed, workers, dispatch, scheme):
    params = ServiceParams(n_clients=n_clients, n_requests=n_requests,
                           seed=seed, arrival="closed", dispatch=dispatch,
                           workers=workers)
    spec = WorkloadSpec(suite="service", params=params)
    if dispatch == "replay":
        spec = spec.keyed(scheme)
        plan = build_plan_keyed(params, scheme)
    else:
        plan = build_plan(params)
    engine = Engine(cache=TraceCache("0"))
    try:
        [cell] = engine.replay_served([(spec, [scheme])])
        shards = shard_by_worker(engine.trace_for(spec))
    finally:
        engine.release(spec)
    summary = account_sharded(plan, shards, cell[scheme],
                              frequency_hz=FREQ)
    for shard, stats in zip(shards, cell[scheme]):
        assert stats.baseline_cycles == cell["baseline"][shard.slot].cycles
        if shard.marks:
            assert summary.worker_busy[shard.slot] == pytest.approx(
                stats.mark_cycles[-1], rel=1e-12)
        else:
            assert shard.slot not in summary.worker_busy
    assert summary.n_offered == len(plan.columns.requests) == \
        summary.n_served + summary.n_rejected + summary.n_shed
    samples = sorted({sample for histogram in summary.sched.latency.values()
                      for sample in histogram.samples})
    targets = [t for t in samples + [s / 2 for s in samples] if t > 0]
    targets = sorted(targets) + [float("inf")]
    attained = [summary.sched.attainment_at(t) for t in targets]
    assert attained == sorted(attained)
    assert attained[-1] == 1.0
