"""Bounded-reservoir behavior of :class:`Histogram` at scale.

Below ``RESERVOIR_SIZE`` nothing changes — exact samples, exact
percentiles, the invariants every pre-existing golden number relies on.
Past it, retention degrades to a deterministic algorithm-R reservoir:
count/sum/min/max stay exact, ``sampling`` flips on, and the
``service.latency_reservoir_engaged`` obs counter records that the
switch happened during accounting.
"""

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import Histogram
from repro.service.sched.accounting import SchedAccounting


@pytest.fixture
def small_reservoir(monkeypatch):
    """Dial the exact-retention ceiling down so tests engage it."""
    monkeypatch.setattr(Histogram, "RESERVOIR_SIZE", 64)
    return 64


class TestExactBelowThreshold:
    def test_no_sampling_below_cap(self, small_reservoir):
        histogram = Histogram()
        values = [float(i) for i in range(small_reservoir)]
        for value in values:
            histogram.observe(value)
        assert not histogram.sampling
        assert histogram.samples == values
        assert histogram.percentile(50) == pytest.approx(31.5)

    def test_observe_many_matches_sequential_observe(self):
        seq, bulk = Histogram(), Histogram()
        rng = np.random.RandomState(3)
        values = rng.exponential(1000.0, size=2000)
        for value in values.tolist():
            seq.observe(value)
        bulk.observe_many(values)
        # Bit-identical, not approximately equal: same left-fold sum,
        # same retained list.
        assert bulk.total == seq.total
        assert bulk.count == seq.count
        assert bulk.min == seq.min and bulk.max == seq.max
        assert bulk.samples == seq.samples

    def test_observe_many_empty(self):
        histogram = Histogram()
        histogram.observe_many(np.empty(0))
        assert histogram.count == 0
        assert histogram.samples == []


class TestReservoirEngages:
    def test_sampling_flips_and_aggregates_stay_exact(self,
                                                      small_reservoir):
        histogram = Histogram()
        values = [float(i) for i in range(10 * small_reservoir)]
        for value in values:
            histogram.observe(value)
        assert histogram.sampling
        assert len(histogram.samples) == small_reservoir
        assert histogram.count == len(values)
        assert histogram.total == sum(values)
        assert histogram.min == 0.0
        assert histogram.max == values[-1]
        assert all(value in values for value in histogram.samples)

    def test_observe_many_equals_scalar_past_cap(self, small_reservoir):
        seq, bulk = Histogram(), Histogram()
        values = np.arange(500, dtype=np.float64)
        for value in values.tolist():
            seq.observe(value)
        bulk.observe_many(values)
        assert bulk.samples == seq.samples
        assert bulk.total == seq.total
        assert bulk.sampling and seq.sampling

    def test_deterministic_across_instances(self, small_reservoir):
        first, second = Histogram(), Histogram()
        values = np.arange(1000, dtype=np.float64)
        first.observe_many(values)
        second.observe_many(values)
        assert first.samples == second.samples

    def test_percentile_is_reasonable_estimate(self, small_reservoir):
        histogram = Histogram()
        histogram.observe_many(np.arange(100_000, dtype=np.float64))
        # Uniform stream: the reservoir's median should sit near the
        # true median (loose bound — it's an estimate, not exact).
        assert 20_000 < histogram.percentile(50) < 80_000

    def test_merge_respects_reservoir(self, small_reservoir):
        left = Histogram()
        right = Histogram()
        right.observe_many(np.arange(200, dtype=np.float64))
        left.merge(right.as_dict())
        assert len(left.samples) <= small_reservoir
        assert left.min == 0.0


class TestAttainmentWeighting:
    def test_exact_when_not_sampling(self):
        sched = SchedAccounting(slo_target=10.0)
        sched.observe_requests(np.zeros(4, dtype=np.int64),
                               np.array([5.0, 15.0, 8.0, 12.0]),
                               np.zeros(4, dtype=bool))
        assert sched.attainment_at(10.0) == 0.5

    def test_reservoir_weighted_by_true_count(self, small_reservoir):
        sched = SchedAccounting(slo_target=10.0)
        histogram = Histogram()
        # 1000 observations, half under target, reservoir keeps 64.
        values = np.r_[np.full(500, 1.0), np.full(500, 100.0)]
        histogram.observe_many(values)
        sched.latency[0] = histogram
        attainment = sched.attainment_at(10.0)
        retained_within = sum(1 for s in histogram.samples if s <= 10.0)
        assert attainment == pytest.approx(
            retained_within / len(histogram.samples))


class TestObsCounter:
    def test_counter_increments_when_reservoir_engages(
            self, monkeypatch, small_reservoir):
        monkeypatch.setenv("REPRO_METRICS", "1")
        obs.reset()
        from repro.engine import replay_one
        from repro.service import (ServiceParams, account, build_plan,
                                   batch_boundaries,
                                   generate_service_trace)
        params = ServiceParams(n_clients=4, n_requests=200)
        plan = build_plan(params)
        trace, _ws = generate_service_trace(params)
        stats = replay_one(trace, "domain_virt",
                           marks=batch_boundaries(trace))
        account(plan, trace, stats, frequency_hz=2_000_000_000.0)
        registry = obs.metrics()
        engaged = registry.counter(
            "service.latency_reservoir_engaged").value
        # 200 requests > the dialed-down 64-sample cap: the run-level
        # latency histogram (and the hot clients') sampled.
        assert engaged >= 1

    def test_counter_untouched_below_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        obs.reset()
        from repro.engine import replay_one
        from repro.service import (ServiceParams, account, build_plan,
                                   batch_boundaries,
                                   generate_service_trace)
        params = ServiceParams(n_clients=4, n_requests=60)
        plan = build_plan(params)
        trace, _ws = generate_service_trace(params)
        stats = replay_one(trace, "domain_virt",
                           marks=batch_boundaries(trace))
        account(plan, trace, stats, frequency_hz=2_000_000_000.0)
        registry = obs.metrics()
        assert registry.counter(
            "service.latency_reservoir_engaged").value == 0
