#!/usr/bin/env python
"""Secure server: per-client PMOs — the paper's Heartbleed motivation.

A server keeps each client's private data (think TLS keys, passwords) in
its own PMO/domain.  A worker only ever holds permission for the client
it is currently serving, so a compromised worker — the Heartbleed
scenario — cannot read other clients' data.  This demo now runs on
``repro.service``, the full multi-tenant serving layer (seeded traffic,
admission control, domain-aware batching, per-request latency).

The demo shows:

1. default MPK cannot even represent the scenario past 15 clients
   (pkey_alloc fails — Section I's scalability wall);
2. domain virtualization isolates 64 clients: a simulated over-read into
   another client's PMO raises a protection fault;
3. the cost of that protection, measured where a server feels it —
   throughput and tail latency — via a marked replay of the same run.

Run:  python examples/secure_server.py      (REPRO_SMOKE=1 shrinks it)
"""

import os

from repro.engine import Engine, WorkloadSpec
from repro.errors import PkeyError, ProtectionFault
from repro.service import (ServiceParams, ServiceWorkload, account,
                           batch_boundaries, build_plan)
from repro.sim.simulator import replay_trace

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
N_CLIENTS = 64
N_REQUESTS = 120 if SMOKE else 800


def main() -> None:
    params = ServiceParams(n_clients=N_CLIENTS, n_requests=N_REQUESTS)

    # -- 1. default MPK cannot scale to many clients ----------------------
    # One protection key per client: pkey_alloc hits the hardware wall.
    from repro.os.kernel import Kernel
    mpk_process = Kernel().create_process()
    allocated = 0
    try:
        for _ in range(N_CLIENTS):
            mpk_process.pkey_alloc()
            allocated += 1
    except PkeyError:
        pass
    print(f"default MPK: key allocation failed after {allocated} clients "
          f"(needed {N_CLIENTS}) — the 16-key wall")

    # -- 2. domain virtualization serves and isolates all clients ----------
    plan = build_plan(params)
    workload = ServiceWorkload(params)
    workload.serve(plan)
    # The compromised worker: it "over-reads" into client 1's PMO (no
    # permission window covers it).
    workload.overread(victim=1)
    trace = workload.finish()
    try:
        replay_trace(trace, ("domain_virt",))
        raise AssertionError("the over-read should have faulted!")
    except ProtectionFault as fault:
        print(f"over-read into client 1's PMO blocked: "
              f"domain {fault.domain}, address {fault.vaddr:#x}")

    # -- 3. what does this protection cost the server? ---------------------
    # The same run, honest this time (the spec regenerates it without the
    # attack), replayed with per-batch marks so each request gets a
    # latency — the serving view of Table VII's overheads.
    engine = Engine()
    spec = WorkloadSpec.service(n_clients=N_CLIENTS, n_requests=N_REQUESTS)
    honest = engine.trace_for(spec)
    marks = batch_boundaries(honest)
    schemes = ("lowerbound", "mpk_virt", "domain_virt")
    cell = engine.replay(spec, schemes, marks=marks)
    frequency = engine.config.processor.frequency_hz
    print(f"\n{plan.n_served} requests served across {N_CLIENTS} isolated "
          f"clients ({plan.coalesced} coalesced into shared windows, "
          f"{plan.n_rejected} rejected):")
    print(f"  {'scheme':12s} {'overhead':>9s} {'p50':>9s} {'p99':>9s} "
          f"{'throughput':>12s}")
    for name in schemes:
        stats = cell[name]
        summary = account(plan, honest, stats, frequency_hz=frequency)
        print(f"  {name:12s} {stats.overhead_percent():8.2f}% "
              f"{summary.p50:9.0f} {summary.p99:9.0f} "
              f"{summary.throughput_rps:10.0f}/s")


if __name__ == "__main__":
    main()
