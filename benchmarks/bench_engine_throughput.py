"""True micro-benchmarks of the simulator itself (multi-round timings).

Unlike the table/figure benches (one-shot experiment regeneration), these
use pytest-benchmark's statistics to track the replay engine's and trace
generator's throughput — the quantities that bound how large a
configuration the reproduction can simulate.

Besides the human-readable pytest-benchmark output, the module collects
every timing into ``benchmarks/out/BENCH_engine.json`` (events per
benchmark, mean and best-round seconds, derived events/second) so CI
and tooling can track throughput without parsing terminal output.
``events_per_s`` derives from the *best* round, not the mean: the best
round is the least noise-contaminated estimate of what the code can do
(scheduler preemption and cache pollution only ever slow a round down),
which is what ``benchmarks/check_regression.py`` compares across
commits.
"""

import json
import pathlib

import pytest

# Timed rounds run with the cyclic GC off: collection pauses otherwise
# land inside individual rounds as multi-millisecond outliers, and the
# replay engine's throughput — not the allocator's — is what these
# benches track.
pytestmark = pytest.mark.benchmark(disable_gc=True)

from repro.engine import replay_one
from repro.workloads.micro import MicroParams, generate_micro_trace

PARAMS = MicroParams(benchmark="rbt", n_pools=32, initial_nodes=48,
                     operations=300)
#: erim hard-faults past its 16-key space (docs/SCHEMES.md), so its
#: replay bench runs the same workload shrunk to fit the budget.
PARAMS_ERIM = MicroParams(benchmark="rbt", n_pools=16, initial_nodes=48,
                          operations=300)

#: The micro structures the pipeline benchmark builds, at default node
#: counts: their generation is mostly the untraced fill.
FILL_PARAMS = {bench: MicroParams(benchmark=bench, n_pools=128,
                                  operations=100)
               for bench in ("avl", "ss")}

#: Accumulated machine-readable results, flushed by the module fixture.
_RESULTS = {}


@pytest.fixture(scope="module")
def generated():
    return generate_micro_trace(PARAMS)


@pytest.fixture(scope="module")
def generated_erim():
    return generate_micro_trace(PARAMS_ERIM)


@pytest.fixture(scope="module", autouse=True)
def _emit_json():
    """Write BENCH_engine.json after all benches in this module ran."""
    yield
    out_dir = pathlib.Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / "BENCH_engine.json"
    path.write_text(json.dumps(
        {"params": {"benchmark": PARAMS.benchmark,
                    "n_pools": PARAMS.n_pools,
                    "operations": PARAMS.operations},
         "params_erim": {"benchmark": PARAMS_ERIM.benchmark,
                         "n_pools": PARAMS_ERIM.n_pools,
                         "operations": PARAMS_ERIM.operations},
         "results": _RESULTS}, indent=2, sort_keys=True) + "\n")
    print(f"\n[machine-readable results saved to {path}]")


def _record(name: str, benchmark, events: int) -> None:
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    mean_s = getattr(stats, "mean", None) if stats is not None else None
    min_s = getattr(stats, "min", None) if stats is not None else None
    _RESULTS[name] = {
        "events": events,
        "mean_s": mean_s,
        "min_s": min_s,
        "events_per_s": (events / min_s if min_s else None),
    }


@pytest.mark.parametrize("scheme", ["baseline", "mpk_virt", "domain_virt",
                                    "libmpk", "dpti"])
def test_replay_throughput(benchmark, generated, scheme):
    trace, _ws = generated

    def replay():
        # Isolated-context replay: the same path the experiment engine
        # and its parallel workers execute.
        return replay_one(trace, scheme)

    # One warmup round absorbs per-trace one-time analysis (the fast
    # engine's trace radiograph is computed once and cached on the trace
    # columns); measured rounds then reflect the steady-state throughput
    # a scheme sweep actually pays — every sweep replays one trace many
    # times.
    stats = benchmark.pedantic(replay, rounds=5, iterations=1,
                               warmup_rounds=1)
    assert stats.instructions > 0
    benchmark.extra_info["events"] = len(trace)
    _record(f"replay:{scheme}", benchmark, len(trace))


def test_replay_throughput_erim(benchmark, generated_erim):
    """erim on the in-budget trace — tracks the 'mpk' kernel family
    (live-TLB walker) with the call-gate envelope (see
    test_replay_throughput for the warmup rationale)."""
    trace, _ws = generated_erim

    def replay():
        return replay_one(trace, "erim")

    stats = benchmark.pedantic(replay, rounds=5, iterations=1,
                               warmup_rounds=1)
    assert stats.instructions > 0
    benchmark.extra_info["events"] = len(trace)
    _record("replay:erim", benchmark, len(trace))


def test_trace_generation_throughput(benchmark):
    trace, _ws = benchmark.pedantic(
        lambda: generate_micro_trace(PARAMS), rounds=5, iterations=1)
    assert len(trace) > 0
    _record("generate:micro-rbt", benchmark, len(trace))


@pytest.mark.parametrize("bench", sorted(FILL_PARAMS))
def test_fill_generation_throughput(benchmark, bench):
    """Generation of an avl or ss trace, whose time is mostly the
    untraced fill of 128 structures (96 nodes each)."""
    trace, _ws = benchmark.pedantic(
        lambda: generate_micro_trace(FILL_PARAMS[bench]), rounds=5,
        iterations=1)
    assert len(trace) > 0
    _record(f"generate:micro-{bench}", benchmark, len(trace))
