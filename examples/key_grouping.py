#!/usr/bin/env python
"""Why 16 keys are not enough: the Section IV-B grouping argument, live.

A server with N client PMOs and per-thread intents (each worker may write
its own client's PMO, read a shared catalog, and must not touch anyone
else's) has to squeeze N domains onto 16 MPK keys.  This demo runs the
best-effort grouping the defender could do and counts the permission
escalations — then shows the virtualization schemes make the problem
vanish (one domain per PMO, no grouping at all).

Run:  python examples/key_grouping.py [n_clients]
      (REPRO_SMOKE=1 shrinks it)
"""

import sys

from repro.permissions import Perm
from repro.core.grouping import (exposure_report, greedy_grouping,
                                 weakening)
from repro.scenario import smoke_active

SMOKE = smoke_active()
N_KEYS = 16


def build_intents(n_clients: int):
    """Domain -> thread -> intended permission.

    Domain 0 is a shared catalog (read for everyone); domains 1..N are
    client PMOs, writable only by their own worker thread.
    """
    threads = list(range(1, n_clients + 1))
    intents = {0: {tid: Perm.R for tid in threads}}
    for client in range(1, n_clients + 1):
        intents[client] = {tid: (Perm.RW if tid == client else Perm.NONE)
                           for tid in threads}
    return intents


def main() -> None:
    n_clients = int(sys.argv[1]) if len(sys.argv) > 1 else (
        24 if SMOKE else 48)
    intents = build_intents(n_clients)
    print(f"{n_clients} client PMOs + 1 shared catalog, "
          f"{N_KEYS} protection keys\n")

    grouping = greedy_grouping(intents, n_keys=N_KEYS)
    cost = weakening(grouping, intents)
    sizes = sorted((len(group) for group in grouping), reverse=True)
    print(f"best-effort grouping onto {N_KEYS} keys "
          f"(group sizes {sizes}):")
    print(f"  {cost} permission escalations — e.g.:")
    for line in exposure_report(grouping, intents).splitlines()[:6]:
        print(f"    {line}")
    print()

    # Each escalation is a (thread, domain) pair that Heartbleed-style
    # bugs can now reach.  With domain virtualization there is no
    # grouping: every PMO keeps its own domain.
    singleton = [[domain] for domain in intents]
    print("with virtualized domains (one per PMO): "
          f"{weakening(singleton, intents)} escalations")
    print("\nthis is the paper's Section IV-B argument: any key sharing "
          "weakens isolation;\nvirtualizing domains removes the sharing "
          "entirely.")


if __name__ == "__main__":
    main()
