"""Metric merging across REPRO_JOBS fork workers.

Worker registries ride back inside pickled ``RunStats``; the executor
folds them into the parent's process-global registry.  Parallel runs
must report complete metrics *and* leave the replay numbers untouched.
"""

import pytest

from repro import obs
from repro.engine import Engine, TraceCache, WorkloadSpec
from repro.engine.executor import _fork_available
from repro.experiments.runner import ExperimentRunner
from repro.sim.simulator import MULTI_PMO_SCHEMES, replay_trace
from repro.workloads.micro import MicroParams, generate_micro_trace

TINY = dict(n_pools=8, operations=60, initial_nodes=12, pool_size=1 << 20)


def _run(monkeypatch, tmp_path, jobs):
    monkeypatch.setenv("REPRO_METRICS", "1")
    monkeypatch.setenv("REPRO_JOBS", str(jobs))
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / f"cache-{jobs}"))
    obs.reset()
    TraceCache.clear_memory()
    runner = ExperimentRunner(scale=0.02)
    results = runner.replay_micro("avl", 16, MULTI_PMO_SCHEMES)
    snapshot = runner.metrics_snapshot()
    obs.reset()
    return results, snapshot


@pytest.mark.skipif(not _fork_available(), reason="requires fork")
class TestForkWorkerMerge:
    def test_parallel_metrics_are_complete(self, monkeypatch, tmp_path):
        results, snapshot = _run(monkeypatch, tmp_path, jobs=2)
        job_count = len(results)  # baseline + each scheme
        assert snapshot is not None
        counters = snapshot["counters"]
        assert counters["engine.jobs.completed"] == job_count
        # Per-replay harvests merged across workers: totals add up.
        assert counters["tlb.l1.hits"] == sum(
            stats.tlb_l1_hits for stats in results.values())
        gauges = snapshot["gauges"]
        assert gauges["engine.workers"] == 2.0
        assert 0.0 < gauges["engine.worker.utilization"] <= 1.0
        wall = snapshot["histograms"]["engine.job.wall_s"]
        assert wall["count"] == job_count
        assert wall["sum"] > 0.0

    def test_every_runstats_carries_metrics(self, monkeypatch, tmp_path):
        results, _ = _run(monkeypatch, tmp_path, jobs=2)
        for scheme, stats in results.items():
            assert stats.metrics is not None, scheme
            assert stats.metrics["counters"]["engine.jobs.completed"] == 1

    def test_workers_gauge_counts_the_workers_that_ran(self, monkeypatch,
                                                       tmp_path):
        # Two jobs fork two workers, however wide REPRO_JOBS is.
        monkeypatch.setenv("REPRO_METRICS", "1")
        monkeypatch.setenv("REPRO_JOBS", "4")
        obs.reset()
        engine = Engine(cache=TraceCache(tmp_path / "cache"))
        engine.replay(WorkloadSpec.micro("ll", 8, operations=60,
                                         initial_nodes=12),
                      ("lowerbound",))
        gauges = obs.metrics().as_dict()["gauges"]
        assert gauges["engine.workers"] == 2.0
        assert 0.0 < gauges["engine.worker.utilization"] <= 1.0

    def test_parallel_equals_serial_modulo_metrics(self, monkeypatch,
                                                   tmp_path):
        serial, _ = _run(monkeypatch, tmp_path, jobs=1)
        parallel, _ = _run(monkeypatch, tmp_path, jobs=2)
        assert serial.keys() == parallel.keys()
        for scheme in serial:
            left = serial[scheme].to_dict()
            right = parallel[scheme].to_dict()
            # Wall/CPU histograms legitimately differ; the replay must not.
            left.pop("metrics")
            right.pop("metrics")
            assert left == right, scheme


class TestSerialMerge:
    def test_serial_run_populates_global_registry(self, monkeypatch,
                                                  tmp_path):
        results, snapshot = _run(monkeypatch, tmp_path, jobs=1)
        assert snapshot["counters"]["engine.jobs.completed"] == len(results)
        assert snapshot["gauges"]["engine.workers"] == 1.0

    def test_snapshot_none_when_disabled(self):
        assert ExperimentRunner(scale=0.02).metrics_snapshot() is None


class TestReplayTraceObserved:
    """``replay_trace`` runs through the engine's one job path, so its
    jobs are counted, merged and announced like any other fan-out."""

    SCHEMES = ("lowerbound", "mpk_virt", "domain_virt")

    def test_metrics_merge_into_the_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        obs.reset()
        trace, _ = generate_micro_trace(MicroParams(benchmark="avl", **TINY))
        results = replay_trace(trace, self.SCHEMES)
        counters = obs.metrics().as_dict()["counters"]
        assert counters["engine.jobs.completed"] == 1 + len(self.SCHEMES)
        assert counters["tlb.l1.hits"] == sum(
            stats.tlb_l1_hits for stats in results.values())

    def test_every_job_emits_its_lifecycle(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVENTS", "ring")
        obs.reset()
        trace, _ = generate_micro_trace(MicroParams(benchmark="avl", **TINY))
        # Serial: a forked worker's events would stay in its own ring.
        replay_trace(trace, self.SCHEMES, jobs=1)
        records = obs.active_events().records()
        for kind in ("job.submit", "job.replay", "job.done"):
            schemes = [r["scheme"] for r in records if r["kind"] == kind]
            assert sorted(schemes) == sorted(("baseline", *self.SCHEMES)), \
                kind
