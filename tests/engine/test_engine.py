"""Engine-facade tests: trace lifecycle, warm cache, memoization."""

import pytest

from repro.engine import Engine, TraceCache, WorkloadSpec
from repro.experiments.figure6 import run_figure6
from repro.experiments.runner import ExperimentRunner
from repro.sim.simulator import MULTI_PMO_SCHEMES


@pytest.fixture
def engine(tmp_path):
    engine = Engine(cache=TraceCache(tmp_path / "traces"))
    yield engine
    TraceCache.clear_memory()


TINY = dict(operations=60, initial_nodes=12, pool_size=1 << 20)


class TestTraceLifecycle:
    def test_trace_for_is_memoized(self, engine):
        spec = WorkloadSpec.micro("ll", 8, **TINY)
        assert engine.trace_for(spec) is engine.trace_for(spec)
        assert engine.trace_generations == 1

    def test_release_forgets_object_but_not_disk(self, engine):
        spec = WorkloadSpec.micro("ll", 8, **TINY)
        first = engine.trace_for(spec)
        engine.release(spec)
        again = engine.trace_for(spec)
        assert again is not first
        assert engine.trace_generations == 1  # reloaded from disk
        assert engine.cache_stats.disk_hits == 1

    def test_warm_generates_each_spec_once(self, engine):
        specs = [WorkloadSpec.micro("ll", 8, **TINY),
                 WorkloadSpec.micro("ss", 8, **TINY),
                 WorkloadSpec.micro("ll", 8, **TINY)]  # duplicate
        engine.warm(specs)
        assert engine.trace_generations == 2
        engine.warm(specs)
        assert engine.trace_generations == 2


class TestReplayGrouping:
    def test_replay_shape(self, engine):
        spec = WorkloadSpec.micro("avl", 8, **TINY)
        results = engine.replay(spec, MULTI_PMO_SCHEMES)
        assert set(results) == {"baseline", *MULTI_PMO_SCHEMES}
        base = results["baseline"].cycles
        for name in MULTI_PMO_SCHEMES:
            assert results[name].baseline_cycles == base

    def test_replay_many_preserves_spec_order(self, engine):
        specs = [WorkloadSpec.micro("ll", 8, **TINY),
                 WorkloadSpec.micro("ll", 16, **TINY)]
        results = engine.replay_grid(
            [(spec, engine.config) for spec in specs], ("lowerbound",))
        assert len(results) == 2
        # Each batch slot must match its spec's individual replay.
        for spec, batched in zip(specs, results):
            alone = engine.replay(spec, ("lowerbound",))
            assert batched["baseline"].cycles == alone["baseline"].cycles
            assert batched["lowerbound"].cycles == \
                alone["lowerbound"].cycles
        assert results[0]["baseline"].cycles != results[1]["baseline"].cycles

    def test_duplicate_schemes_deduplicated(self, engine):
        spec = WorkloadSpec.micro("ll", 8, **TINY)
        results = engine.replay(spec, ("lowerbound", "lowerbound"))
        assert set(results) == {"baseline", "lowerbound"}


class TestMemoize:
    def test_producer_runs_once(self, engine):
        calls = []
        for _ in range(3):
            engine.memoize("key", lambda: calls.append(1))
        assert len(calls) == 1

    def test_figure6_memoized_on_runner(self, engine):
        runner = ExperimentRunner(scale=0.02, engine=engine)
        first = run_figure6(runner, benchmarks=("avl",), points=(16,))
        generations = engine.trace_generations
        second = run_figure6(runner, benchmarks=("avl",), points=(16,))
        assert second is first  # no private-attribute hack, still shared
        assert engine.trace_generations == generations


class TestWarmCacheRerun:
    def test_figure6_rerun_performs_zero_generations(self, tmp_path):
        """Acceptance criterion: a warm-cache rerun of a Figure 6 sweep
        generates no traces at all (counter-verified)."""
        root = tmp_path / "warm"

        def sweep():
            TraceCache.clear_memory()  # cold process, warm disk
            engine = Engine(cache=TraceCache(root))
            runner = ExperimentRunner(scale=0.02, engine=engine)
            data = run_figure6(runner, benchmarks=("avl", "ll"),
                               points=(16, 32))
            return engine.trace_generations, data

        cold_generations, cold = sweep()
        assert cold_generations == 4  # 2 benchmarks x 2 points
        warm_generations, warm = sweep()
        assert warm_generations == 0
        assert warm == cold
        TraceCache.clear_memory()
