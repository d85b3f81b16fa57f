"""Replay determinism properties and smoke tests of the shipped examples."""

import pathlib
import subprocess
import sys

import pytest

from repro.sim.simulator import replay_trace
from repro.workloads.micro import MicroParams, generate_micro_trace

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"
README = EXAMPLES.parent / "README.md"
TINY = dict(n_pools=12, initial_nodes=12, operations=60)


class TestReplayDeterminism:
    @pytest.fixture(scope="class")
    def generated(self):
        return generate_micro_trace(MicroParams(benchmark="avl", **TINY))

    def test_same_trace_same_cycles(self, generated):
        trace, ws = generated
        first = replay_trace(trace, ("mpk_virt", "domain_virt"))
        second = replay_trace(trace, ("mpk_virt", "domain_virt"))
        for scheme in ("baseline", "mpk_virt", "domain_virt"):
            assert first[scheme].cycles == second[scheme].cycles
            assert first[scheme].tlb_misses == second[scheme].tlb_misses

    def test_replay_does_not_mutate_pool_data(self, generated):
        trace, ws = generated
        pool = next(iter(ws.pools.values())).pool
        before = pool.memory.read(4096, 512)
        replay_trace(trace, ("libmpk",))
        assert pool.memory.read(4096, 512) == before

    def test_end_to_end_regeneration_reproduces_cycles(self):
        params = MicroParams(benchmark="rbt", **TINY)
        t1, ws1 = generate_micro_trace(params)
        t2, ws2 = generate_micro_trace(params)
        r1 = replay_trace(t1, ("domain_virt",))
        r2 = replay_trace(t2, ("domain_virt",))
        assert r1["domain_virt"].cycles == r2["domain_virt"].cycles


class TestMultithreadedGeneration:
    def test_threads_interleave_and_replay_clean(self):
        trace, ws = generate_micro_trace(
            MicroParams(benchmark="avl", threads=3, quantum=4, **TINY))
        counts = trace.counts()
        assert counts["ctxsw"] > 3
        results = replay_trace(trace, ("mpk_virt", "domain_virt"))
        assert results["mpk_virt"].protection_faults == 0
        assert results["domain_virt"].protection_faults == 0

    def test_shootdown_cost_scales_with_threads(self):
        def invalidation_cost(threads):
            trace, ws = generate_micro_trace(MicroParams(
                benchmark="ss", n_pools=64, initial_nodes=12,
                operations=120, threads=threads))
            results = replay_trace(trace, ("mpk_virt",))
            stats = results["mpk_virt"]
            return stats.buckets["tlb_invalidations"] / max(
                stats.evictions, 1)

        assert invalidation_cost(3) == pytest.approx(
            3 * invalidation_cost(1), rel=0.01)


class TestReadmeQuickstart:
    def test_quickstart_block_runs(self, capsys):
        section = README.read_text().split("## Quickstart", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, f"{README}:Quickstart", "exec"), {})
        printed = [line.split()[0]
                   for line in capsys.readouterr().out.splitlines()]
        assert printed == ["baseline", "lowerbound", "libmpk", "mpk_virt",
                           "domain_virt"]


@pytest.mark.slow
class TestExamplesRun:
    """Every shipped example must run to completion, quickly."""

    @pytest.mark.parametrize("script,expect", [
        ("quickstart.py", "rogue store blocked"),
        ("secure_server.py", "over-read into client 1's PMO blocked"),
        ("crash_recovery.py", "crash consistency holds"),
        ("sweep_pmos.py", "log2 view"),
        ("key_grouping.py", "0 escalations"),
    ])
    def test_example(self, script, expect):
        args = [sys.executable, str(EXAMPLES / script)]
        if script == "sweep_pmos.py":
            args += ["avl", "120"]
        result = subprocess.run(args, capture_output=True, text=True,
                                timeout=600)
        assert result.returncode == 0, result.stderr
        assert expect in result.stdout
