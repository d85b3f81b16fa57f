"""Engine integration and the service experiment driver."""

import pytest

from repro.engine import Engine, ReplayJob, TraceCache, WorkloadSpec
from repro.experiments.runner import ExperimentRunner
from repro.experiments.service import (SCHEME_ALIASES, report_service,
                                       resolve_scheme, run_service)
from repro.service import batch_boundaries, build_plan

TINY = dict(n_clients=8, n_requests=80)


@pytest.fixture
def engine(tmp_path):
    engine = Engine(cache=TraceCache(tmp_path / "traces"))
    yield engine
    TraceCache.clear_memory()


class TestWorkloadSpec:
    def test_service_suite_spec(self):
        spec = WorkloadSpec.service(**TINY)
        assert spec.suite == "service"
        assert spec.label == "service-8c-client"
        assert spec.params.n_clients == 8

    def test_scale_maps_to_request_budget(self):
        spec = WorkloadSpec.service(scale=0.5, **TINY)
        assert spec.params.n_requests == 40

    def test_cache_key_tracks_every_knob(self):
        base = WorkloadSpec.service(**TINY)
        assert base.cache_key() == WorkloadSpec.service(**TINY).cache_key()
        assert base.cache_key() != \
            WorkloadSpec.service(n_clients=8, n_requests=80,
                                 seed=99).cache_key()

    def test_marks_extend_the_job_hash_compatibly(self):
        spec = WorkloadSpec.service(**TINY)
        plain = ReplayJob(spec=spec, scheme="lowerbound")
        marked = ReplayJob(spec=spec, scheme="lowerbound", marks=(3, 7))
        assert plain.content_hash() != marked.content_hash()
        # marks=None must hash exactly like a pre-marks job, so existing
        # cached results stay addressable.
        assert plain.content_hash() == \
            ReplayJob(spec=spec, scheme="lowerbound",
                      marks=None).content_hash()


class TestEngineRoundTrip:
    def test_cached_trace_keeps_its_boundaries(self, engine):
        spec = WorkloadSpec.service(**TINY)
        marks = batch_boundaries(engine.trace_for(spec))
        engine.release(spec)
        reloaded = engine.trace_for(spec)  # disk round-trip
        assert engine.cache_stats.disk_hits == 1
        assert batch_boundaries(reloaded) == marks
        assert len(marks) == build_plan(spec.params).columns.n_batches

    def test_replay_marked_snapshots_every_scheme(self, engine):
        spec = WorkloadSpec.service(**TINY)
        marks = batch_boundaries(engine.trace_for(spec))
        cell = engine.replay(spec, ("lowerbound", "domain_virt"),
                             marks=marks)
        assert set(cell) == {"baseline", "lowerbound", "domain_virt"}
        for stats in cell.values():
            assert len(stats.mark_cycles) == len(marks)
            assert stats.mark_cycles == sorted(stats.mark_cycles)
        assert cell["domain_virt"].baseline_cycles == \
            cell["baseline"].cycles


class TestDriver:
    def test_aliases_resolve(self):
        assert resolve_scheme("mpkv") == "mpk_virt"
        assert resolve_scheme("dv") == "domain_virt"
        assert resolve_scheme("pks") == "pks_seal"
        assert resolve_scheme("libmpk") == "libmpk"
        assert resolve_scheme("erim") == "erim"
        assert resolve_scheme("dpti") == "dpti"
        assert resolve_scheme("poe2") == "poe2"
        assert set(SCHEME_ALIASES) == {"mpkv", "dv", "pks"}

    def test_run_service_shape(self, engine):
        runner = ExperimentRunner(engine=engine)
        data = run_service(runner, clients=(4, 8), schemes=("dv", "mpkv"),
                           n_requests=60)
        assert list(data) == [4, 8]
        for per_scheme in data.values():
            assert list(per_scheme) == ["dv", "mpkv"]
            for summary in per_scheme.values():
                assert summary.n_served > 0
                assert summary.throughput_rps > 0

    def test_mpk_wall_reported_not_raised(self, engine):
        runner = ExperimentRunner(engine=engine)
        data = run_service(runner, clients=(20,), schemes=("mpk", "dv"),
                           n_requests=60)
        assert data[20]["mpk"] is None
        assert data[20]["dv"] is not None

    def test_report_renders_failure_row(self, engine):
        runner = ExperimentRunner(engine=engine)
        text = report_service(runner, clients=(20,), schemes=("mpk",),
                              n_requests=60)
        assert "FAIL (16-key limit)" in text

    def test_runs_are_deterministic(self, engine, tmp_path):
        first = run_service(ExperimentRunner(engine=engine),
                            clients=(8,), schemes=("dv",), n_requests=60)
        TraceCache.clear_memory()
        other = Engine(cache=TraceCache(tmp_path / "traces2"))
        second = run_service(ExperimentRunner(engine=other),
                             clients=(8,), schemes=("dv",), n_requests=60)
        assert first[8]["dv"].to_dict() == second[8]["dv"].to_dict()
