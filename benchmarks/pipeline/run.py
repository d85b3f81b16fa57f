"""The pipeline benchmark: four workloads timed end to end and per layer.

Run from the repository root::

    python3 benchmarks/pipeline/run.py                  # all workloads
    python3 benchmarks/pipeline/run.py --trace          # + a traced round
    python3 benchmarks/pipeline/run.py --workload svc_open_1w --seed 3 \\
        --seconds 12 --trace 0

Every (workload, round) runs ``pipeline.py`` in a fresh interpreter, one
at a time, with ``REPRO_JOBS=1``, ``REPRO_TRACE_CACHE=0`` and every other
``REPRO_*`` variable unset, so each round pays what a CLI invocation
pays.  Untraced rounds give the end-to-end metrics: at least
``--rounds`` of them, more while fewer than ``--seconds`` have passed.
Times take the best round; ``setup_s`` and ``peak_rss_mb`` take the
median.  ``--trace`` follows every untraced round with a traced one — a
span around every layer call — and takes the per-layer metrics from the
best traced round.

Metric names, units, directions and bounds are read from the root
``BENCHMARK.json``; golden output digests for seed 7 from
``golden.json`` beside this file.  Each workload writes
``out/result-*.json`` (all rounds, the environment stamp, the metrics)
and, when traced, ``out/spans-<workload>.json``.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics (end-to-end untraced, per-layer with ``--trace``).  The exit
status is 1 when any output row failed a check.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from spans import layer_table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
DECLARATION = ROOT / "BENCHMARK.json"

#: No further round starts once it would end past this many seconds
#: (one invocation must stay well inside three minutes).
DEADLINE_S = 150.0
#: A round that takes longer than this is killed and counted as failed.
ROUND_TIMEOUT_S = 170.0


# -- environment -------------------------------------------------------------------


def child_env() -> Tuple[Dict[str, str], Dict[str, object]]:
    """The scrubbed round environment and its description for the stamp."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    chosen = {"REPRO_JOBS": "1", "REPRO_TRACE_CACHE": "0",
              "PYTHONPATH": str(ROOT / "src")}
    env.update(chosen)
    removed = sorted(k for k in os.environ
                     if k.startswith("REPRO_") and k not in chosen)
    return env, {"set": chosen, "unset": removed}


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: no history to stamp
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def stamp(env_description: Dict[str, object],
          load_before: Tuple[float, float, float]) -> Dict[str, object]:
    """Where and how the rounds ran."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    nproc = len(os.sched_getaffinity(0))
    result: Dict[str, object] = {
        "commit": commit.strip() if commit else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "affinity": nproc,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "child_env": env_description,
        "warnings": [],
    }
    if load_before[0] > nproc:
        result["warnings"].append(
            f"1-minute load {load_before[0]:.2f} exceeded nproc {nproc} at "
            f"start; timings are contended")
    return result


# -- rounds -------------------------------------------------------------------------


def run_round(workload: str, seed: int, smoke: bool, trace: bool,
              round_id: int, env: Dict[str, str]) -> Dict[str, object]:
    """One fresh-process round; a crashed round comes back as ``error``."""
    command = [sys.executable, str(HERE / "pipeline.py"), workload,
               "--seed", str(seed), "--round", str(round_id)]
    command += ["--smoke"] * smoke + ["--trace"] * trace
    t0 = time.monotonic()
    try:
        done = subprocess.run(command + ["--t0", repr(t0)], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"round": round_id, "traced": trace,
                "error": f"round exceeded {ROUND_TIMEOUT_S:.0f} s"}
    elapsed = time.monotonic() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"round": round_id, "traced": trace, "error":
                f"round exited {done.returncode}: {tail[0]}"}
    record = json.loads(lines[-1])
    record["elapsed_s"] = elapsed
    return record


def measure(workload: str, args, env: Dict[str, str]
            ) -> Tuple[List[dict], List[dict]]:
    """Untraced rounds (at least ``--rounds``, more while under
    ``--seconds``); with ``--trace`` each is followed by a traced round.

    Alternating the two kinds gives both the same number of samples
    under the same drift in machine load, so the best traced round
    against the best untraced one measures the recorder's overhead
    rather than the noise of a single sample.
    """
    untraced: List[dict] = []
    traced: List[dict] = []
    start = time.monotonic()
    step = 0.0
    while True:
        elapsed = time.monotonic() - start
        if untraced:
            if any("error" in r for r in untraced[-1:] + traced[-1:]):
                break
            enough = len(untraced) >= args.rounds and elapsed >= args.seconds
            if enough or elapsed + step > DEADLINE_S:
                break
        step_start = time.monotonic()
        untraced.append(run_round(workload, args.seed, args.smoke, False,
                                  len(untraced) + len(traced), env))
        if args.trace:
            traced.append(run_round(workload, args.seed, args.smoke, True,
                                    len(untraced) + len(traced), env))
        step = time.monotonic() - step_start
    return untraced, traced


# -- correctness ---------------------------------------------------------------------


def check(records: List[dict], golden: Optional[Dict[str, str]]
          ) -> Tuple[int, List[str]]:
    """(rows attempted, failure lines) over every round.

    A row fails when it reported a problem (unexpected raise, broken
    conservation, FAIL set mismatch), when its digest differs from the
    golden digest or from the first round's, or when its round replayed
    a scheme the fast engine does not cover, or crashed.
    """
    good = [r for r in records if "error" not in r]
    reference = {row["key"]: row["digest"] for row in good[0]["rows"]} \
        if good else {}
    keys = list(golden) if golden else list(reference)
    attempted = 0
    failures: List[str] = []
    for record in records:
        where = f"round {record['round']}"
        if "error" in record:
            attempted += max(1, len(keys))
            failures += [f"{where} {key}: {record['error']}"
                         for key in keys or ["*"]]
            continue
        slow = record["replays"] - record["fast_replays"]
        seen = [row["key"] for row in record["rows"]]
        for key in keys:
            if key not in seen:
                attempted += 1
                failures.append(f"{where} {key}: row missing")
        for row in record["rows"]:
            attempted += 1
            reasons = list(row["problems"])
            if slow:
                reasons.append(f"{slow} replay(s) of the round not "
                               f"covered by the fast engine")
            if golden is not None and golden.get(row["key"]) != row["digest"]:
                reasons.append("digest differs from golden.json")
            if reference.get(row["key"]) != row["digest"]:
                reasons.append("digest differs from the first round")
            if reasons:
                failures.append(f"{where} {row['key']}: "
                                + "; ".join(reasons))
    return attempted, failures


# -- metrics -------------------------------------------------------------------------


def end_to_end(rounds: List[dict]) -> Dict[str, float]:
    """Best-round times; median set-up time and peak RSS."""
    best = min(rounds, key=lambda r: r["wall_s"])
    events = best["generated_events"] + best["replayed_events"]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": best["wall_s"],
        "sim_events_per_s": events / best["wall_s"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def with_units(values: Dict[str, float], declared: List[dict]
               ) -> Dict[str, Dict[str, object]]:
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not "
                       f"measured: {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in declared}


# -- reporting -------------------------------------------------------------------------


def print_workload(name: str, result: dict, traced: Optional[dict]
                   ) -> None:
    """The human-readable report; ``traced`` is the best traced round."""
    n = len(result["rounds"])
    verdict = "ok" if not result["failures"] else \
        f"{len(result['failures'])} FAILED"
    golden = {True: "checked against golden.json",
              False: "no golden check"}[result["golden_checked"]]
    print(f"== {name} · seed {result['seed']}"
          f"{' · smoke' if result['smoke'] else ''} · {n} untraced + "
          f"{len(result['traced_rounds'])} traced round(s) · rows {verdict}"
          f" · digest {result['digest'][:16]} ({golden})")
    estimator = {"setup_s": f"median of {n}", "wall_s": f"best of {n}",
                 "sim_events_per_s": "events / best wall_s",
                 "peak_rss_mb": f"median of {n}"}
    for metric, entry in result["end_to_end"].items():
        print(f"  {metric:34s} {entry['value']:>16.6g} "
              f"{entry['unit']:9s} {estimator.get(metric, '')}")
    print(f"  {'failed_frac':34s} {result['failed_frac']:>16.6g} "
          f"{'ratio':9s} failed rows / {result['attempted']} attempted")
    for line in result["failures"]:
        print(f"  FAIL {line}")
    if traced is None:
        return
    wall = traced["wall_s"]
    print(f"  spans of the best traced round (wall {wall:.4f} s):")
    print(f"    {'span':38s} {'calls':>6s} {'total_s':>10s} {'self_s':>10s}"
          f" {'share':>7s}")
    for span, row in layer_table(traced["spans"]).items():
        print(f"    {span:38s} {row['calls']:6d} {row['total_s']:10.4f} "
              f"{row['self_s']:10.4f} {row['total_s'] / wall:7.1%}")
    print("  per-layer metrics:")
    for metric, entry in result["per_layer"].items():
        print(f"    {metric:38s} {entry['value']:>16.6g} {entry['unit']}")


def run_workload(name: str, args, env, env_description, golden_file,
                 declaration) -> dict:
    load_before = os.getloadavg()
    rounds, traced = measure(name, args, env)
    section = golden_file["smoke" if args.smoke else "full"]
    golden_entry = section.get(name) \
        if args.seed == golden_file["seed"] else None
    golden = golden_entry["rows"] if golden_entry else None
    attempted, failures = check(rounds + traced, golden)
    good = [r for r in rounds if "error" not in r]
    traced_good = [r for r in traced if "error" not in r]
    result: Dict[str, object] = {
        "benchmark": "pipeline", "workload": name, "seed": args.seed,
        "smoke": args.smoke, "golden_checked": golden is not None,
        "digest": good[0]["digest"] if good else "",
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "end_to_end": with_units(end_to_end(good),
                                 declaration["end_to_end"]) if good else {},
        "per_layer": {},
        "rounds": rounds,
        "traced_rounds": [{k: v for k, v in r.items() if k != "spans"}
                          for r in traced],
        "stamp": stamp(env_description, load_before),
    }
    best_traced = min(traced_good, key=lambda r: r["wall_s"]) \
        if traced_good and good else None
    if best_traced is not None:
        layers = dict(best_traced["layers"])
        layers["trace_overhead_frac"] = best_traced["wall_s"] / \
            result["end_to_end"]["wall_s"]["value"] - 1.0
        result["per_layer"] = with_units(layers, declaration["per_layer"])
        OUT.mkdir(exist_ok=True)
        suffix = "-smoke" if args.smoke else ""
        (OUT / f"spans-{name}{suffix}.json").write_text(
            json.dumps(best_traced["spans"]) + "\n")
    print_workload(name, result, best_traced)
    return result


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not DECLARATION.is_file():
        print(f"error: run from a repository checkout — need "
              f"{ROOT / 'src' / 'repro'} and {DECLARATION}", file=sys.stderr)
        return 2
    declaration = json.loads(DECLARATION.read_text())
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(
        description="Time the simulator's pipeline end to end and per "
                    "layer on named workloads, checking every output.")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="input seed (golden digests exist for 7)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="minimum untraced rounds per workload")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding untraced rounds until this "
                             "many seconds have passed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="follow every untraced round with a traced "
                             "one; report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="the ~20x smaller variant of every workload")
    args = parser.parse_args(argv)
    golden_file = json.loads(GOLDEN.read_text())
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    env, env_description = child_env()
    results = {name: run_workload(name, args, env, env_description,
                                  golden_file, declaration)
               for name in (args.workload or names)}

    OUT.mkdir(exist_ok=True)
    now = datetime.datetime.now(datetime.timezone.utc)
    tag = now.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    for name, result in results.items():
        suffix = "-smoke" if args.smoke else ""
        path = OUT / f"result-{name}-s{args.seed}{suffix}-{tag}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        print(f"[{name}: {path.relative_to(ROOT)}]")

    kind = "per_layer" if args.trace else "end_to_end"
    single = len(results) == 1
    metrics = {(metric if single else f"{name}.{metric}"): entry
               for name, result in results.items()
               for metric, entry in result[kind].items()}
    failed = sum(r["failed"] for r in results.values())
    summary = {"correct": failed == 0,
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
