"""Parallel-replay tests: REPRO_JOBS fan-out must not change results."""

import os
import re
import signal

import pytest

from repro.engine import (Engine, TraceCache, WorkloadSpec, parallel_map,
                          worker_count)
from repro.engine.executor import _fork_available
from repro.errors import EngineError
from repro.experiments.figure6 import FIGURE6_SCHEMES, run_figure6
from repro.experiments.runner import ExperimentRunner
from repro.sim.simulator import MULTI_PMO_SCHEMES, replay_trace
from repro.workloads.micro import MicroParams, generate_micro_trace


class TestWorkerCount:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert worker_count() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert worker_count() == 4

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert worker_count(2) == 2

    def test_garbage_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert worker_count() == 1
        monkeypatch.setenv("REPRO_JOBS", "-3")
        assert worker_count() == 1


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(lambda x: x * x, [1, 2, 3], jobs=1) == [1, 4, 9]

    @pytest.mark.skipif(not _fork_available(), reason="requires fork")
    def test_parallel_path_preserves_order(self):
        assert parallel_map(_square, list(range(8)), jobs=4) == \
            [x * x for x in range(8)]

    @pytest.mark.skipif(not _fork_available(), reason="requires fork")
    def test_worker_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            parallel_map(_inverse, [2, 1, 0, 4], jobs=2)

    @pytest.mark.skipif(not _fork_available(), reason="requires fork")
    def test_killed_worker_raises_instead_of_hanging(self):
        # A SIGKILLed worker (the OOM killer's signal) must surface as an
        # error naming the lost item, not block the map forever.
        def timeout(signum, frame):
            raise TimeoutError("parallel_map hung on a killed worker")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        try:
            with pytest.raises(EngineError) as error:
                parallel_map(_killed_on_three, list(range(6)), jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        # Items still in flight on the other worker may be named too.
        lost = re.search(r"item\(s\) ([\d, ]+) of 6", str(error.value))
        assert lost is not None
        assert "3" in lost.group(1).split(", ")


def _square(x):
    return x * x


def _inverse(x):
    return 1 / x


def _killed_on_three(x):
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


@pytest.mark.skipif(not _fork_available(), reason="requires fork")
class TestParallelReplayEquivalence:
    """Acceptance criterion: with REPRO_JOBS > 1, per-scheme RunStats
    match the serial replay exactly."""

    def test_figure6_point_bitwise_identical(self, monkeypatch, tmp_path):
        def run(jobs):
            monkeypatch.setenv("REPRO_JOBS", str(jobs))
            monkeypatch.setenv("REPRO_TRACE_CACHE",
                               str(tmp_path / f"cache-{jobs}"))
            TraceCache.clear_memory()
            runner = ExperimentRunner(scale=0.02)
            return runner.replay_micro("avl", 16, MULTI_PMO_SCHEMES)

        serial = run(1)
        parallel = run(4)
        assert serial.keys() == parallel.keys()
        for scheme in serial:
            assert serial[scheme].to_dict() == parallel[scheme].to_dict(), \
                scheme
        # The figure's derived quantities follow: identical cycles give
        # identical overhead percentages.
        for scheme in ("libmpk", "mpk_virt", "domain_virt"):
            assert serial[scheme].cycles == parallel[scheme].cycles

    def test_figure6_sweep_identical(self, monkeypatch, tmp_path):
        def run(jobs):
            monkeypatch.setenv("REPRO_JOBS", str(jobs))
            monkeypatch.setenv("REPRO_TRACE_CACHE",
                               str(tmp_path / f"sweep-{jobs}"))
            TraceCache.clear_memory()
            runner = ExperimentRunner(scale=0.02)
            return run_figure6(runner, benchmarks=("ll",), points=(16, 32))

        serial = run(1)
        parallel = run(4)
        for scheme in FIGURE6_SCHEMES:
            assert serial["ll"][scheme] == parallel["ll"][scheme]


def _replayed(stats):
    """A RunStats export without the wall-clock metrics."""
    out = stats.to_dict()
    out.pop("metrics", None)
    return out, stats.mark_cycles


@pytest.mark.skipif(not _fork_available(), reason="requires fork")
class TestTraceJobEquivalence:
    """Jobs that carry their trace (``replay_trace``, shards) must also
    replay identically in a worker and in the parent."""

    def test_replay_trace_parallel_equals_serial(self):
        trace, _ = generate_micro_trace(MicroParams(
            benchmark="avl", n_pools=16, operations=120, initial_nodes=16))
        serial = replay_trace(trace, MULTI_PMO_SCHEMES, jobs=1)
        parallel = replay_trace(trace, MULTI_PMO_SCHEMES, jobs=2)
        assert serial.keys() == parallel.keys()
        for scheme in serial:
            assert _replayed(serial[scheme]) == _replayed(parallel[scheme]), \
                scheme

    def test_replay_shards_parallel_equals_serial(self):
        # One grid holding both job shapes: two trace-carrying shards and
        # the one-worker trace, which its jobs name by spec.
        specs = [WorkloadSpec.service(n_clients=24, n_requests=200,
                                      workers=workers)
                 for workers in (2, 1)]
        schemes = ("mpk_virt", "libmpk", "domain_virt")
        cells = [(spec, schemes) for spec in specs]
        cache = TraceCache("0")
        serial = Engine(cache=cache, jobs=1).replay_served(cells)
        parallel = Engine(cache=cache, jobs=2).replay_served(cells)
        for spec in specs:
            TraceCache.drop_memory(spec)
        assert [len(cell["baseline"]) for cell in serial] == [2, 1]
        for serial_cell, parallel_cell in zip(serial, parallel):
            assert serial_cell.keys() == parallel_cell.keys() == \
                {"baseline", *schemes}
            for scheme in serial_cell:
                assert [_replayed(s) for s in serial_cell[scheme]] == \
                    [_replayed(p) for p in parallel_cell[scheme]], scheme
