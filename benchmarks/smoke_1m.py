#!/usr/bin/env python
"""Million-request scale smoke: generate + replay + account end to end.

Drives the full scale target from the ROADMAP — one million requests
from 64 Zipfian clients over 256 worker slots — through the streaming
columnar pipeline: vectorized traffic synthesis, the row-index dispatch
loop every scheduling policy plans through, chunked trace emission,
marked fast-path replay, and column-store latency accounting.  Prints per-stage wall times and
enforces a peak-RSS ceiling so the scale capability (and its memory
behaviour) cannot silently regress.

Usage::

    PYTHONPATH=src python benchmarks/smoke_1m.py [--requests N]
        [--workers N] [--clients N] [--rss-ceiling-mb MB] [--no-replay]

``REPRO_SMOKE=1`` shrinks the run 20x (50k requests) for quick local
iteration; CI runs the full size.  ``--no-replay`` stops after
generation + plan accounting structures, for machines where the marked
replay is not worth the wait: it is the longest stage.  At full size
(12,667,605 events, 1,000,000 marks) on a shared 2-vCPU Xeon host
(Python 3.11.7, numpy 2.4.6) this printed plan 1.67 s, generate
1.53 s, replay 15.36 s and account 1.39 s, at 1,594 MiB peak RSS; at
``REPRO_SMOKE=1`` (649,193 events), plan 0.09 s, generate 0.14 s,
replay 0.73 s and account 0.04 s, at 132 MiB.
"""

import argparse
import resource
import sys
import time


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB)."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        return usage / (1024 * 1024)
    return usage / 1024


def main() -> int:
    from repro.scenario import smoke_active
    smoke = smoke_active()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int,
                        default=50_000 if smoke else 1_000_000)
    parser.add_argument("--workers", type=int, default=256)
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument("--rss-ceiling-mb", type=float, default=6144.0)
    parser.add_argument("--no-replay", action="store_true")
    args = parser.parse_args()

    from repro.engine import replay_one
    from repro.service import (ServiceParams, account, batch_boundaries,
                               build_plan)
    from repro.service.server import ServiceWorkload
    from repro.sim.config import DEFAULT_CONFIG

    params = ServiceParams(n_clients=args.clients,
                           n_requests=args.requests,
                           workers=args.workers)
    print(f"smoke_1m: {args.requests:,} requests, {args.workers} workers, "
          f"{args.clients} clients (REPRO_SMOKE={'1' if smoke else '0'})")

    t0 = time.perf_counter()
    plan = build_plan(params)
    t1 = time.perf_counter()
    workload = ServiceWorkload(params)
    workload.serve(plan)
    trace = workload.finish()
    t2 = time.perf_counter()
    events = len(trace)
    print(f"  plan      {t1 - t0:8.2f}s  "
          f"({plan.n_served:,} served, {plan.columns.n_batches:,} batches)")
    print(f"  generate  {t2 - t1:8.2f}s  "
          f"({events:,} events, {events / (t2 - t1):,.0f} ev/s)")

    if not args.no_replay:
        marks = batch_boundaries(trace)
        t3 = time.perf_counter()
        stats = replay_one(trace, "domain_virt", marks=marks)
        t4 = time.perf_counter()
        print(f"  replay    {t4 - t3:8.2f}s  "
              f"({events / (t4 - t3):,.0f} ev/s, domain_virt, "
              f"{len(marks):,} marks)")
        summary = account(plan, trace, stats,
                          frequency_hz=DEFAULT_CONFIG.processor
                          .frequency_hz)
        t5 = time.perf_counter()
        print(f"  account   {t5 - t4:8.2f}s  "
              f"(p99 {summary.p99:,.0f} cyc, "
              f"{summary.throughput_rps:,.0f} rps)")
        if summary.n_served != plan.n_served:
            print(f"FAIL: accounted {summary.n_served:,} served requests, "
                  f"plan has {plan.n_served:,}")
            return 1

    rss = peak_rss_mb()
    print(f"  peak RSS  {rss:8.0f} MiB (ceiling "
          f"{args.rss_ceiling_mb:,.0f} MiB)")
    if rss > args.rss_ceiling_mb:
        print(f"FAIL: peak RSS {rss:.0f} MiB exceeds the "
              f"{args.rss_ceiling_mb:,.0f} MiB ceiling")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
