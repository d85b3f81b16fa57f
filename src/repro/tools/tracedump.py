"""Trace utility CLI: summarize, lint, or dump a saved trace.

Usage::

    python -m repro.tools.tracedump summary trace.npz
    python -m repro.tools.tracedump inspect trace.npz [--max-open K]
    python -m repro.tools.tracedump events trace.npz [--limit N]
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from ..core.inspector import TraceInspector
from ..cpu import trace as tr
from ..cpu.fast_timing import run_tails
from ..cpu.tracefile import load_trace
from ..permissions import Perm


def summarize(trace: tr.Trace) -> str:
    counts = trace.counts()
    accesses = counts.get("load", 0) + counts.get("store", 0)
    switches = counts.get("perm", 0)
    lines = [
        f"label               : {trace.label or '(none)'}",
        f"events              : {len(trace):,}",
        f"instructions        : {trace.total_instructions:,}",
        f"loads / stores      : {counts.get('load', 0):,} / "
        f"{counts.get('store', 0):,}",
        f"permission switches : {switches:,}"
        + (f" ({switches / accesses:.2f} per access)" if accesses else ""),
        f"attached domains    : {len(trace.attach_info)}",
        f"context switches    : {counts.get('ctxsw', 0):,}",
    ]
    columns = trace.columns
    acting = np.isin(columns.kinds, (tr.LOAD, tr.STORE, tr.PERM))
    threads = np.unique(columns.tids[acting]).tolist()
    lines.append(f"threads             : {threads}")
    # The run tails the replay engine skips (docs/PERFORMANCE.md).
    memory = accesses + counts.get("fetch", 0)
    for name, tails in zip(("page", "line"), run_tails(columns)):
        n_tails = int(np.count_nonzero(tails))
        lines.append(f"{name}-run tails      : {n_tails:,} of {memory:,} "
                     "memory events"
                     + (f" ({n_tails / memory:.1%})" if memory else ""))
    return "\n".join(lines)


def dump_events(trace: tr.Trace, limit: int) -> str:
    names = tr.KIND_NAMES
    rows = zip(*trace.columns.select(slice(limit)).lists())
    lines = []
    for index, (kind, tid, icount, a, b) in enumerate(rows):
        if kind in (tr.LOAD, tr.STORE):
            detail = f"vaddr={a:#x} size={b}"
        elif kind in (tr.PERM, tr.INIT_PERM):
            detail = f"domain={a} perm={Perm(b).name}"
        elif kind == tr.CTXSW:
            detail = f"-> tid {a}"
        else:
            detail = f"domain={a}"
        lines.append(f"{index:8d}  {names[kind]:10s} tid={tid:<4d} "
                     f"ic={icount:<6d} {detail}")
    if len(trace) > limit:
        lines.append(f"... ({len(trace) - limit:,} more)")
    return "\n".join(lines)


def inspect(trace: tr.Trace, max_open: int) -> str:
    report = TraceInspector(max_open_domains=max_open).inspect(trace)
    lines = [f"switches inspected  : {report.switches_seen:,}",
             f"max domains open    : {report.max_open_observed}"]
    if report.clean:
        lines.append("verdict             : CLEAN")
    else:
        lines.append(f"verdict             : {len(report.violations)} "
                     "violation(s)")
        for violation in report.violations[:20]:
            lines.append(f"  {violation}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.tracedump",
        description="Summarize, lint, or dump a saved trace (.npz).")
    parser.add_argument("command",
                        choices=["summary", "inspect", "events"])
    parser.add_argument("trace", help="path to a trace saved by save_trace")
    parser.add_argument("--limit", type=int, default=50,
                        help="events to dump (events command)")
    parser.add_argument("--max-open", type=int, default=2,
                        help="allowed simultaneously-open domains "
                             "(inspect command)")
    args = parser.parse_args(argv)

    trace = load_trace(args.trace)
    if args.command == "summary":
        print(summarize(trace))
    elif args.command == "events":
        print(dump_events(trace, args.limit))
    else:
        report = inspect(trace, args.max_open)
        print(report)
        if "violation" in report:
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
