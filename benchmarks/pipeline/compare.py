"""Compare two sets of pipeline-benchmark runs, workload by workload.

    python3 benchmarks/pipeline/compare.py A1.json A2.json ... -- B1.json ...

Side A is the parent (the reference), side B the change; each file is
one ``out/result-*.json`` written by ``run.py``, and the i-th file of A
pairs with the i-th of B.  For every workload and every end-to-end
metric of ``BENCHMARK.json`` (plus ``failed_frac``) it prints each
side's median and quartiles, B's share of pairwise wins (ties count for
neither side) and a verdict:

* ``unresolved`` — the run-to-run spread (the wider side's interquartile
  range over its median) exceeds the metric's bound, so a change within
  the bound cannot be told from noise; an unresolved metric still reads
  ``improved`` when every B run beats every A run, or ``worse`` when
  every B run loses to every A run by more than the bound;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``improved`` — B wins at least nine tenths of the pairs and the
  medians differ by more than A's interquartile range;
* ``no worse`` — otherwise.

``failed_frac`` has an absolute bound of zero: any increase of its mean
is ``worse``.  The exit status is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

DECLARATION = Path(__file__).resolve().parent.parent.parent / \
    "BENCHMARK.json"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Dict[str, object]:
    """One workload x metric comparison of side B against side A."""
    sign = 1.0 if better == "higher" else -1.0
    a_q, b_q = quartiles(a), quartiles(b)
    base = abs(a_q[1]) or 1.0
    #: B's gain over A as a share of A's median (negative = worse).
    gain = sign * (b_q[1] - a_q[1]) / base
    spread = max((q[2] - q[0]) / (abs(q[1]) or 1.0) for q in (a_q, b_q))
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = wins / len(pairs) if pairs else 0.0
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    all_worse = max(sign * y for y in b) < min(sign * x for x in a)
    improved = share >= 0.9 and gain > 0 and \
        abs(b_q[1] - a_q[1]) > a_q[2] - a_q[0]
    if spread > bound:
        call = "improved" if all_better else \
            "worse" if all_worse and -gain > bound else "unresolved"
    elif -gain > bound:
        call = "worse"
    elif improved:
        call = "improved"
    else:
        call = "no worse"
    return {"a": a_q, "b": b_q, "gain": gain, "spread": spread,
            "wins": share, "verdict": call}


def load(paths: Sequence[str]) -> Dict[str, List[dict]]:
    """workload -> result files, in argument order."""
    by_workload: Dict[str, List[dict]] = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print("usage: compare.py A1.json ... -- B1.json ...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = load(argv[:split]), load(argv[split + 1:])
    declared = json.loads(DECLARATION.read_text())["end_to_end"]
    metrics = [(d["name"], d["better"], d["bound"]) for d in declared]
    worse = 0
    print(f"{'workload':18s} {'metric':18s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'gain':>7s} {'wins':>5s}  verdict")
    for workload in sorted(set(side_a) & set(side_b)):
        a_runs, b_runs = side_a[workload], side_b[workload]
        for name, better, bound in metrics:
            a = [r["end_to_end"][name]["value"] for r in a_runs]
            b = [r["end_to_end"][name]["value"] for r in b_runs]
            row = verdict(a, b, better, bound)
            worse += row["verdict"] == "worse"
            print(f"{workload:18s} {name:18s} "
                  f"{_fmt(row['a']):>34s} {_fmt(row['b']):>34s} "
                  f"{row['gain']:+7.1%} {row['wins']:5.0%}  "
                  f"{row['verdict']} (spread {row['spread']:.1%}, "
                  f"bound {bound:.0%})")
        a_fail = statistics.mean(r["failed_frac"] for r in a_runs)
        b_fail = statistics.mean(r["failed_frac"] for r in b_runs)
        call = "worse" if b_fail > a_fail else "no worse"
        worse += call == "worse"
        print(f"{workload:18s} {'failed_frac':18s} {a_fail:>34.4g} "
              f"{b_fail:>34.4g} {'':7s} {'':5s}  {call} (absolute bound 0)")
    missing = sorted(set(side_a) ^ set(side_b))
    if missing:
        print(f"not compared (runs on one side only): {', '.join(missing)}")
    return 1 if worse else 0


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
