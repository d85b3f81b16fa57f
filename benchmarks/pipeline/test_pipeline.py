"""Smoke test of the pipeline benchmark (every workload about 20x smaller).

    PYTHONPATH=src python -m pytest benchmarks/pipeline/test_pipeline.py -q

One ``run.py --smoke --trace`` invocation runs every workload for two
untraced and two traced rounds; the tests check what it emitted against
``BENCHMARK.json`` and ``golden.json``, and that the benchmark's
hand-wired service pipeline still computes what the production
orchestration (``repro.experiments.service.summaries_for_spec``) does.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import pipeline  # noqa: E402
from spans import Spans  # noqa: E402

from repro.engine import Engine, TraceCache, WorkloadSpec  # noqa: E402
from repro.experiments.runner import ExperimentRunner  # noqa: E402
from repro.experiments.service import summaries_for_spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())
SERVICE = [w for w in pipeline.WORKLOADS.values() if w.suite == "service"]


@pytest.fixture(scope="module")
def smoke():
    """(exit status, last-line summary, workload -> result file)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--rounds", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    assert lines, done.stderr
    results = {}
    for line in lines:
        match = re.fullmatch(r"\[(\S+): (\S+)\]", line)
        if match:
            results[match[1]] = json.loads((ROOT / match[2]).read_text())
    return done.returncode, json.loads(lines[-1]), results


def test_smoke_run_is_correct(smoke):
    status, summary, results = smoke
    assert status == 0
    assert summary["correct"] and summary["failed"] == 0
    assert sorted(results) == sorted(pipeline.WORKLOADS)
    for result in results.values():
        assert result["failed_frac"] == 0.0, result["failures"]


def test_every_declared_metric_is_emitted(smoke):
    _, summary, results = smoke
    end_to_end = [d["name"] for d in DECLARATION["end_to_end"]]
    per_layer = [d["name"] for d in DECLARATION["per_layer"]]
    for name, result in results.items():
        assert list(result["end_to_end"]) == end_to_end
        assert list(result["per_layer"]) == per_layer
        for entry in list(result["end_to_end"].values()) + \
                list(result["per_layer"].values()):
            assert isinstance(entry["value"], (int, float))
        assert all(result["end_to_end"][m]["value"] > 0 for m in end_to_end)
    assert set(summary["metrics"]) == {
        f"{w}.{m}" for w in results for m in per_layer}


def test_names_use_the_metric_charset(smoke):
    _, summary, _ = smoke
    declared = [w["name"] for w in DECLARATION["workloads"]]
    declared += [d["name"] for d in DECLARATION["end_to_end"]]
    declared += [d["name"] for d in DECLARATION["per_layer"]]
    assert len(set(declared)) == len(declared)
    names = declared + list(summary["metrics"])
    assert all(NAME.match(name) for name in names), names


def test_digests_are_stable_and_golden(smoke):
    _, _, results = smoke
    for name, result in results.items():
        rounds = result["rounds"] + result["traced_rounds"]
        assert len(rounds) >= 4
        assert {r["digest"] for r in rounds} == \
            {GOLDEN["smoke"][name]["digest"]}


def test_tracing_covers_the_pass(smoke):
    # trace_overhead_frac is not asserted: a smoke pass lasts about 0.1 s,
    # where round-to-round noise is far wider than the recorder's cost.
    _, _, results = smoke
    for result in results.values():
        assert result["per_layer"]["span_coverage"]["value"] >= 0.95
        assert result["per_layer"]["engine.replay.fast_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", SERVICE, ids=lambda w: w.name)
def test_hand_wired_pipeline_matches_production(workload):
    params = pipeline.service_params(workload, 7, smoke=True)
    run = pipeline.run_pass(workload, 7, True, Spans(False))
    runner = ExperimentRunner(engine=Engine(cache=TraceCache("0"), jobs=1))
    summaries = summaries_for_spec(
        runner, WorkloadSpec(suite="service", params=params),
        workload.roster)
    expected = ["FAIL" if summaries[name] is None
                else pipeline.service_payload(summaries[name])
                for name in workload.roster]
    assert [row.payload for row in run.rows] == expected
    assert not [row.problems for row in run.rows if row.problems]
