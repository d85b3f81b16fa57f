"""Scheme-keyed closed-loop serving: calibration, divergence, caching."""

import pytest

from repro.engine import Engine, TraceCache, WorkloadSpec, replay_one
from repro.errors import SimulationError
from repro.service import (ServiceParams, account, build_plan,
                           build_plan_keyed, generate_service_trace_keyed,
                           scheme_clock)
from repro.service.batching import DispatchClock
from repro.service.closed import CALIBRATION_REQUESTS, calibration_params
from repro.service.server import batch_boundaries
from repro.sim.config import DEFAULT_CONFIG

from .legacy import object_view

CLOSED = ServiceParams(n_clients=6, n_requests=120, arrival="closed",
                       dispatch="replay")
FREQ = DEFAULT_CONFIG.processor.frequency_hz


@pytest.fixture
def engine(tmp_path):
    engine = Engine(cache=TraceCache(tmp_path / "traces"))
    yield engine
    TraceCache.clear_memory()


class TestCalibration:
    def test_calibration_params_are_open_nominal(self):
        params = calibration_params(CLOSED)
        assert params.dispatch == "nominal"
        assert params.arrival == "open"
        assert params.pattern == "poisson"
        assert params.workers == 1
        assert params.max_queue == 0
        assert params.n_requests <= CALIBRATION_REQUESTS

    def test_scheme_clock_is_calibrated_and_memoized(self):
        clock = scheme_clock(CLOSED, "domain_virt")
        assert isinstance(clock, DispatchClock)
        assert clock.scheme == "domain_virt"
        assert clock.window_cycles >= 0.0
        assert clock.per_request_cycles >= 1.0
        # Process-local memo: the second lookup is the same object.
        assert scheme_clock(CLOSED, "domain_virt") is clock

    def test_slower_scheme_gets_slower_clock(self):
        dv = scheme_clock(CLOSED, "domain_virt")
        mpkv = scheme_clock(CLOSED, "mpk_virt")
        assert dv.batch_cycles(1) != mpkv.batch_cycles(1)


class TestKeyedPlans:
    def test_plans_diverge_per_scheme(self):
        # The whole point of the closed loop: a scheme's completions
        # gate its clients' next issues, so dv and mpkv get genuinely
        # different schedules, not one stream re-timed.
        dv = build_plan_keyed(CLOSED, "domain_virt")
        mpkv = build_plan_keyed(CLOSED, "mpk_virt")
        arrivals = lambda plan: plan.columns.requests.arrivals[
            plan.columns.member_rows].tolist()
        assert arrivals(dv) != arrivals(mpkv)

    def test_plans_are_deterministic(self):
        assert object_view(build_plan_keyed(CLOSED, "domain_virt")) == \
            object_view(build_plan_keyed(CLOSED, "domain_virt"))

    def test_nominal_build_plan_refuses_replay_dispatch(self):
        with pytest.raises(SimulationError):
            build_plan(CLOSED)

    def test_keyed_requires_replay_dispatch(self):
        with pytest.raises(SimulationError):
            build_plan_keyed(ServiceParams(n_clients=6, n_requests=120),
                             "domain_virt")


class TestKeyedSpecs:
    def test_cache_key_distinct_per_scheme_and_stable(self):
        spec = WorkloadSpec.service(n_clients=6, n_requests=120,
                                    arrival="closed", dispatch="replay")
        dv = spec.keyed("domain_virt")
        assert dv.cache_key() == spec.keyed("domain_virt").cache_key()
        assert dv.cache_key() != spec.keyed("mpk_virt").cache_key()
        assert dv.cache_key() != spec.cache_key()
        assert dv.label.endswith("-domain_virt")

    def test_keyed_trace_round_trips_through_cache(self, engine):
        spec = WorkloadSpec.service(n_clients=6, n_requests=120,
                                    arrival="closed", dispatch="replay")
        vspec = spec.keyed("domain_virt")
        marks = batch_boundaries(engine.trace_for(vspec))
        engine.release(vspec)
        reloaded = engine.trace_for(vspec)  # disk round-trip
        assert engine.cache_stats.disk_hits == 1
        assert batch_boundaries(reloaded) == marks

    def test_replay_marked_keyed_per_scheme_results(self, engine):
        spec = WorkloadSpec.service(n_clients=6, n_requests=120,
                                    arrival="closed", dispatch="replay")
        schemes = ("domain_virt", "mpk_virt")
        cells = engine.replay_served(
            [(spec.keyed(scheme), [scheme]) for scheme in schemes])
        for scheme, cell in zip(schemes, cells):
            assert set(cell) == {"baseline", scheme}
            [stats] = cell[scheme]
            plan = build_plan_keyed(CLOSED, scheme)
            assert len(stats.mark_cycles) == plan.columns.n_batches
            # Each scheme's baseline replays that scheme's own schedule.
            assert stats.baseline_cycles == cell["baseline"][0].cycles


class TestClosedLoopRejections:
    def test_rejected_retries_survive_accounting(self):
        # A one-slot queue under six eager clients must reject; the
        # rejections ride the budget (retries are fresh offered
        # requests) and must land intact in the summary.
        params = ServiceParams(n_clients=6, n_requests=120,
                               arrival="closed", dispatch="replay",
                               think_cycles=500.0, max_queue=1)
        plan = build_plan_keyed(params, "domain_virt")
        assert plan.n_rejected
        assert plan.n_served + plan.n_rejected == 120
        trace, _ws = generate_service_trace_keyed(params, "domain_virt")
        stats = replay_one(trace, "domain_virt",
                           marks=batch_boundaries(trace))
        summary = account(plan, trace, stats, frequency_hz=FREQ)
        assert summary.n_rejected == plan.n_rejected
        assert summary.n_offered == 120
        assert summary.n_served == plan.n_served
