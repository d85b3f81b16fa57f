#!/usr/bin/env python
"""Quickstart: pools, attach/detach, domain protection, and a timing run.

Walks through the paper's core ideas in five minutes:

1. create a persistent memory object (a pool) and store a data structure
   in it (Table I API);
2. attach it to a process — the attach returns the PMO/domain ID;
3. see temporal and spatial isolation in action (Figure 2): accesses are
   legal only inside a SETPERM window, and only for the thread that
   opened it;
4. replay an instrumented trace under the paper's schemes and compare
   their overheads.

Run:  python examples/quickstart.py      (REPRO_SMOKE=1 shrinks it)
"""

from repro.errors import ProtectionFault
from repro.permissions import Perm
from repro.scenario import smoke_active
from repro.sim.simulator import replay_trace
from repro.workloads.base import PerOpPolicy, Workspace
from repro.workloads.datastructures import PersistentRBTree

SMOKE = smoke_active()
N_KEYS = 16 if SMOKE else 64


def main() -> None:
    # -- 1. a persistent memory object ------------------------------------
    ws = Workspace(PerOpPolicy(), seed=42)
    pool = ws.create_and_attach("quickstart-pool", 8 << 20)
    print(f"attached PMO {pool.pool.name!r}: domain ID {pool.domain}, "
          f"VA base {pool.base:#x}")

    # -- 2. a data structure living in the pool ---------------------------
    tree = PersistentRBTree(ws, [pool])
    with ws.untraced():  # setup phase: not part of the measured trace
        for key in range(1, N_KEYS + 1):
            tree.insert(key, key * key)
    print(f"built a red-black tree with {len(tree)} persistent nodes")

    # -- 3. instrumented operations (grant +W per op, revoke after) -------
    for key in (100, 101, 102):
        with ws.operation():
            tree.insert(key, key * key)
    with ws.untraced():
        assert tree.lookup(101) == 101 * 101
        tree.check_invariants()
    print("inserted 3 keys inside permission windows; invariants hold")

    # -- 4. replay under every scheme --------------------------------------
    trace = ws.finish()
    results = replay_trace(
        trace, ("lowerbound", "libmpk", "mpk_virt", "domain_virt"))
    print(f"\ntrace: {len(trace)} events, "
          f"{results['baseline'].pmo_accesses} PMO accesses, "
          f"{results['lowerbound'].perm_switches} permission switches")
    print(f"{'scheme':14s} {'cycles':>12s} {'overhead':>10s}")
    for name, stats in results.items():
        overhead = ("-" if name == "baseline"
                    else f"{stats.overhead_percent():.2f}%")
        print(f"{name:14s} {stats.cycles:12.0f} {overhead:>10s}")

    # -- 5. protection in action: an uninstrumented write faults ----------
    ws2 = Workspace(PerOpPolicy(), seed=0)
    victim = ws2.create_and_attach("victim", 1 << 20)
    oid = victim.pool.pmalloc(64)
    ws2.recorder.store(ws2.tid, victim.va_of(oid))  # a rogue store event
    rogue_trace = ws2.finish()
    try:
        replay_trace(rogue_trace, ("domain_virt",))
    except ProtectionFault as fault:
        print(f"\nrogue store blocked by domain virtualization: {fault}")


if __name__ == "__main__":
    main()
