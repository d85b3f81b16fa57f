"""Job-model tests: spec/job identity, hashing, and generation dispatch."""

import pickle

import pytest

from repro.engine import ReplayJob, WorkloadSpec
from repro.errors import EngineError
from repro.workloads.micro import MicroParams


class TestWorkloadSpec:
    def test_micro_spec_applies_scale(self):
        spec = WorkloadSpec.micro("avl", 16, scale=0.5)
        full = WorkloadSpec.micro("avl", 16)
        assert spec.params.operations < full.params.operations

    def test_cache_key_is_stable(self):
        a = WorkloadSpec.micro("avl", 16, operations=100)
        b = WorkloadSpec.micro("avl", 16, operations=100)
        assert a.cache_key() == b.cache_key()

    def test_cache_key_covers_every_param(self):
        base = WorkloadSpec.micro("avl", 16, operations=100)
        assert base.cache_key() != \
            WorkloadSpec.micro("avl", 32, operations=100).cache_key()
        assert base.cache_key() != \
            WorkloadSpec.micro("avl", 16, operations=101).cache_key()
        assert base.cache_key() != \
            WorkloadSpec.micro("rbt", 16, operations=100).cache_key()
        assert base.cache_key() != \
            WorkloadSpec.micro("avl", 16, operations=100, seed=8).cache_key()

    def test_cache_key_covers_scale(self):
        # REPRO_OPS feeds in through the scale factor; a scaled run must
        # never alias the full-size trace.
        assert WorkloadSpec.micro("avl", 16).cache_key() != \
            WorkloadSpec.micro("avl", 16, scale=0.5).cache_key()

    def test_cache_key_covers_format_version(self, monkeypatch):
        import repro.cpu.tracefile as tracefile
        spec = WorkloadSpec.micro("avl", 16)
        before = spec.cache_key()
        monkeypatch.setattr(tracefile, "FORMAT_VERSION", 999)
        assert spec.cache_key() != before

    def test_whisper_and_micro_never_collide(self):
        # Different suites hash over different param sets anyway, but the
        # suite name itself is part of the identity document.
        micro = WorkloadSpec.micro("echo", 16)
        whisper = WorkloadSpec.whisper("echo")
        assert micro.cache_key() != whisper.cache_key()

    def test_generate_dispatches_micro(self):
        trace, ws = WorkloadSpec.micro("ll", 8, operations=40,
                                       initial_nodes=10).generate()
        assert len(trace) > 0
        assert trace.layout is not None

    def test_generate_rejects_unknown_suite(self):
        spec = WorkloadSpec(suite="macro", params=MicroParams(benchmark="avl"))
        with pytest.raises(EngineError):
            spec.generate()


class TestReplayJob:
    def test_job_is_picklable(self):
        job = ReplayJob(spec=WorkloadSpec.micro("avl", 16),
                        scheme="domain_virt")
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
