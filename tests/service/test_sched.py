"""The scheduling subsystem (docs/SCHEDULING.md): policy registry,
static bit-identity against the legacy dispatch loop, conservation
under rebalancing, SLO/fairness accounting, and determinism."""

import heapq
import random
from dataclasses import replace

import pytest

from repro.engine import Engine, TraceCache, WorkloadSpec, replay_one
from repro.experiments.runner import ExperimentRunner
from repro.experiments.service import main as service_main
from repro.experiments.service import summaries_for_spec
from repro.registry import RegistryKeyError
from repro.scenario.compile import compile_scenario
from repro.scenario.library import find_scenario
from repro.scenario.run import serve_compiled
from repro.service import (ServiceParams, account, build_plan, jain_index,
                           policy_names, profile_tenants)
from repro.service.sched import policy_by_name
from repro.service.server import batch_boundaries, generate_service_trace
from repro.service.traffic import think_gap
from repro.sim.config import DEFAULT_CONFIG

from .legacy import (Batch, ObjectPlan, Request, _take_batch,
                     generate_requests, nominal_clock, object_view)

FREQ = DEFAULT_CONFIG.processor.frequency_hz

#: A contended open-loop cell with real churn: the shape the control
#: loop is for (small enough that the full suite stays CI-sized).
CHURN = ServiceParams(n_clients=16, n_requests=400, workers=2,
                      pattern="churn", churn_period_cycles=20000.0,
                      churn_active_fraction=0.25)


# -- the inlined legacy dispatch loops (pre-scheduler, verbatim logic) ----------


def _legacy_stream_plan(params, clock):
    """The pre-scheduler open-loop dispatch simulation, decision for
    decision: bounded-queue admission, head-of-line service, one
    earliest-free clock per worker slot."""
    stream = generate_requests(params)
    workers = max(1, params.workers)
    free = [0.0] * workers
    queue, batches, rejected = [], [], []
    iterations = 0
    position = 0

    def admit_until(now):
        nonlocal position
        while position < len(stream) and stream[position].arrival <= now:
            request = stream[position]
            position += 1
            if params.max_queue and len(queue) >= params.max_queue:
                rejected.append(request)
            else:
                queue.append(request)

    while position < len(stream) or queue:
        iterations += 1
        slot = min(range(workers), key=lambda w: free[w])
        now = free[slot]
        if not queue:
            now = max(now, stream[position].arrival)
        admit_until(now)
        if not queue:
            free[slot] = now
            continue
        head = queue[0]
        members = _take_batch(params, queue)
        batches.append(Batch(index=len(batches), client=head.client,
                             requests=tuple(members), worker=slot))
        free[slot] = now + clock.batch_cycles(len(members))
    return ObjectPlan(params, batches, rejected, loop_iterations=iterations)


def _legacy_closed_plan(params, clock):
    """The pre-scheduler closed feedback loop, same discipline."""
    rng = random.Random(params.seed)
    workers = max(1, params.workers)
    free = [0.0] * workers
    pending = [(think_gap(params, rng, 0.0), client)
               for client in range(params.n_clients)]
    heapq.heapify(pending)
    queue, batches, rejected = [], [], []
    issued = 0
    iterations = 0

    while True:
        iterations += 1
        slot = min(range(workers), key=lambda w: free[w])
        now = free[slot]
        while pending and issued < params.n_requests and \
                pending[0][0] <= now:
            ready, client = heapq.heappop(pending)
            request = Request(
                rid=issued, client=client, arrival=ready,
                is_write=rng.random() >= params.read_fraction)
            issued += 1
            if params.max_queue and len(queue) >= params.max_queue:
                rejected.append(request)
                heapq.heappush(
                    pending, (ready + think_gap(params, rng, ready), client))
            else:
                queue.append(request)
        if not queue:
            if issued >= params.n_requests or not pending:
                break
            free[slot] = max(now, pending[0][0])
            continue
        head = queue[0]
        members = _take_batch(params, queue)
        completion = now + clock.batch_cycles(len(members))
        batches.append(Batch(index=len(batches), client=head.client,
                             requests=tuple(members), worker=slot))
        free[slot] = completion
        for request in members:
            heapq.heappush(
                pending,
                (completion + think_gap(params, rng, completion),
                 request.client))
    return ObjectPlan(params, batches, rejected, loop_iterations=iterations)


class TestStaticBitIdentity:
    """``static`` (the default) must reproduce the legacy loop exactly."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_stream_plan_is_bit_identical(self, workers):
        params = replace(CHURN, workers=workers)
        current = object_view(build_plan(params))
        legacy = _legacy_stream_plan(params, nominal_clock(params))
        assert current.batches == legacy.batches
        assert current.rejected == legacy.rejected
        assert current.loop_iterations == legacy.loop_iterations
        assert current.shed == [] and current.migrations == 0 \
            and current.epochs == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_closed_feedback_plan_is_bit_identical(self, workers):
        params = ServiceParams(n_clients=6, n_requests=120, workers=workers,
                               arrival="closed", dispatch="replay")
        clock = nominal_clock(params)
        current = object_view(build_plan(params, clock))
        legacy = _legacy_closed_plan(params, clock)
        assert current.batches == legacy.batches
        assert current.rejected == legacy.rejected
        assert current.loop_iterations == legacy.loop_iterations
        assert current.shed == [] and current.migrations == 0

    def test_default_policy_is_static(self):
        assert ServiceParams().sched_policy == "static"

    def test_static_elides_from_the_cache_identity(self):
        # The scheduler must not invalidate any pre-existing cached
        # trace: at defaults, none of its knobs appear in the identity.
        base = WorkloadSpec.service(n_clients=8, n_requests=80)
        explicit = WorkloadSpec.service(n_clients=8, n_requests=80,
                                        sched_policy="static",
                                        slo_p99_cycles=0.0,
                                        sched_epoch_batches=32)
        assert base.cache_key() == explicit.cache_key()
        changed = WorkloadSpec.service(n_clients=8, n_requests=80,
                                       sched_policy="weighted_fair")
        assert changed.cache_key() != base.cache_key()


class TestRegistry:
    def test_builtin_roster(self):
        assert policy_names() == ["slo_adaptive", "static", "weighted_fair"]

    def test_unknown_policy_lists_the_roster(self):
        with pytest.raises(KeyError, match="static"):
            policy_by_name("fifo")

    def test_params_validate_the_policy(self):
        with pytest.raises(ValueError, match="static"):
            ServiceParams(sched_policy="fifo")

    def test_params_validate_the_slo(self):
        with pytest.raises(ValueError):
            ServiceParams(slo_p99_cycles=-1.0)
        with pytest.raises(ValueError):
            ServiceParams(sched_epoch_batches=0)


class TestRebalancingConservation:
    """Migrations move work between slots; they never create, destroy,
    or duplicate it."""

    @pytest.fixture(scope="class")
    def plan(self):
        params = replace(CHURN, sched_policy="slo_adaptive",
                         sched_epoch_batches=8)
        return build_plan(params)

    def test_control_loop_actually_ran(self, plan):
        assert plan.epochs > 0
        assert plan.migrations > 0

    def test_requests_partition_exactly(self, plan):
        offered = generate_requests(plan.params)
        view = object_view(plan)
        outcome = [r.rid for b in view.batches for r in b.requests]
        outcome += [r.rid for r in view.rejected]
        outcome += [r.rid for r in view.shed]
        assert sorted(outcome) == [r.rid for r in offered]

    def test_batches_keep_the_window_discipline(self, plan):
        # Reordering picks *which* client is served, never mixes
        # clients inside one permission window.
        for batch in object_view(plan).batches:
            assert len({r.client for r in batch.requests}) == 1
            assert batch.client == batch.requests[0].client
            assert 0 <= batch.worker < plan.params.workers

    def test_replayed_busy_cycles_are_conserved(self, plan):
        # The rebalanced plan replays like any other: per-slot busy
        # cycles sum to the whole trace's inter-mark service time.
        trace, _ = generate_service_trace(plan.params)
        marks = batch_boundaries(trace)
        stats = replay_one(trace, "mpk_virt", marks=marks)
        summary = account(plan, trace, stats, frequency_hz=FREQ)
        deltas, previous = [], 0.0
        for cycle in stats.mark_cycles:
            deltas.append(cycle - previous)
            previous = cycle
        assert sum(summary.worker_busy.values()) == \
            pytest.approx(sum(deltas))
        assert summary.n_served == plan.n_served
        assert summary.n_shed == len(plan.shed)


class TestAccounting:
    @pytest.fixture(scope="class")
    def summary(self):
        params = ServiceParams(n_clients=8, n_requests=160,
                               slo_p99_cycles=6000.0)
        plan = build_plan(params)
        trace, _ = generate_service_trace(params)
        stats = replay_one(trace, "mpk_virt",
                           marks=batch_boundaries(trace))
        return account(plan, trace, stats, frequency_hz=FREQ)

    def test_attainment_is_monotone_in_the_target(self, summary):
        sched = summary.sched
        targets = [1.0, 500.0, 2000.0, 6000.0, 20000.0, 1e9]
        values = [sched.attainment_at(t) for t in targets]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_no_target_means_full_attainment(self, summary):
        assert summary.sched.attainment_at(0.0) == 1.0
        assert summary.sched.attainment_at(-1.0) == 1.0

    def test_fairness_stays_in_jain_bounds(self, summary):
        n = len(summary.sched.clients)
        assert n > 1
        assert 1.0 / n <= summary.fairness <= 1.0

    def test_jain_index_extremes(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
        assert jain_index([]) == 1.0

    def test_summary_dict_carries_the_sched_block(self, summary):
        payload = summary.to_dict()
        assert payload["shed"] == summary.n_shed
        sched = payload["sched"]
        assert set(sched["per_client"]) == \
            {str(client) for client in summary.sched.clients}
        assert 0.0 <= sched["slo_attainment"] <= 1.0


class TestTenantProfiles:
    def test_classes_partition_the_tenants(self):
        params = replace(CHURN, workers=1)
        plan = build_plan(params)
        trace, _ = generate_service_trace(params)
        stats = replay_one(trace, "mpk_virt",
                           marks=batch_boundaries(trace))
        summary = account(plan, trace, stats, frequency_hz=FREQ)
        profiles = profile_tenants(plan, summary.sched, summary.wall_cycles)
        assert profiles
        for profile in profiles:
            classes = set(profile.classes)
            # Exactly one of each opposed pair.
            assert len(classes & {"hot", "long_tail"}) == 1
            assert len(classes & {"read_heavy", "write_heavy"}) == 1
        assert any("hot" in p.classes for p in profiles)
        assert any("long_tail" in p.classes for p in profiles)


class TestJobsDeterminism:
    def test_summaries_invariant_under_repro_jobs(self, tmp_path,
                                                  monkeypatch):
        spec = WorkloadSpec.service(n_clients=8, n_requests=120, workers=2,
                                    pattern="churn",
                                    sched_policy="slo_adaptive",
                                    slo_p99_cycles=8000.0)

        def run(jobs):
            monkeypatch.setenv("REPRO_JOBS", str(jobs))
            TraceCache.clear_memory()
            engine = Engine(cache=TraceCache(tmp_path / f"jobs{jobs}"))
            row = summaries_for_spec(ExperimentRunner(engine=engine),
                                     spec, ["mpkv", "dv"])
            return {name: summary.to_dict()
                    for name, summary in row.items()}

        try:
            assert run(1) == run(4)
        finally:
            TraceCache.clear_memory()


class TestSloChurnScenario:
    def test_adaptive_strictly_beats_static_for_keyed_schemes(self,
                                                              tmp_path):
        # The PR's acceptance bar, on the smoke-sized grid: the SLO
        # valve must strictly improve attainment for the schemes churn
        # punishes, while static stays the baseline.
        compiled = compile_scenario(find_scenario("slo_churn"), smoke=True)
        engine = Engine(cache=TraceCache(tmp_path / "traces"))
        try:
            outcomes = serve_compiled(compiled,
                                      runner=ExperimentRunner(engine=engine))
        finally:
            TraceCache.clear_memory()
        attainment = {}
        for cell, summaries in outcomes:
            policy = cell.spec.params.sched_policy
            for name, summary in summaries.items():
                if summary is not None:
                    attainment[(policy, name)] = summary.slo_attainment
        for name in ("mpkv", "libmpk"):
            assert attainment[("slo_adaptive", name)] > \
                attainment[("static", name)], name


class TestCli:
    def test_unknown_policy_lists_the_roster(self, capsys):
        code = service_main(["--policy", "nosuch", "--clients", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "nosuch" in err
        assert "static" in err and "slo_adaptive" in err

    def test_unknown_arrival_pattern_lists_the_roster(self, capsys):
        code = service_main(["--arrivals", "nosuch", "--clients", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "waves" in err and "churn" in err

    def test_negative_slo_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            service_main(["--slo", "-5"])
