"""The tenant profiler: classify clients from replayed per-client data.

After a run is accounted (:func:`repro.service.latency.account` /
``account_sharded``), every tenant has a latency histogram, busy cycles,
a permission-window count, and an arrival span sitting in
:class:`~repro.service.sched.accounting.SchedAccounting` and the plan.
:func:`profile_tenants` folds those into one :class:`TenantProfile` per
client with a small set of behavioural classes:

* ``hot`` / ``long_tail`` — the minimal prefix of clients (ranked by
  offered requests) that covers at least half of all offered traffic is
  the Zipf head; everyone else is the long tail;
* ``write_heavy`` / ``read_heavy`` — the client's write fraction
  against the run's overall write fraction (writes are what dirty the
  PMO and shape persist costs);
* ``churn_prone`` — the client's activity span (last minus first
  arrival) covers less than half the run's wall clock: a tenant that
  connects, bursts, and disappears — exactly the connect/disconnect
  behaviour the ``churn``/``waves`` arrival patterns synthesize.

The same classes drive the ``slo_adaptive`` policy *predictively* at
plan time (through per-epoch demand) and this module *descriptively* at
report time (through the replayed ground truth); keeping the two
separate is deliberate — the planner must not peek at replay results it
could not have had.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .accounting import SchedAccounting

#: Fraction of all offered requests the Zipf head covers.
HOT_HEAD_FRACTION = 0.5
#: A tenant active for less than this fraction of the wall clock is
#: classified churn-prone.
CHURN_SPAN_FRACTION = 0.5


@dataclass(frozen=True)
class TenantProfile:
    """One client's behaviour over one accounted run."""

    client: int
    #: Requests the client offered (served + rejected + shed).
    offered: int
    served: int
    shed: int
    #: Permission windows (batches) opened for this client.
    windows: int
    #: Replayed cycles spent inside this client's windows.
    busy_cycles: float
    #: This client's busy cycles over the run's wall cycles.
    busy_fraction: float
    write_fraction: float
    mean_cycles: float
    p50_cycles: float
    p95_cycles: float
    p99_cycles: float
    #: Last minus first offered arrival (cycles).
    span_cycles: float
    #: Behavioural classes, sorted (e.g. ``("hot", "write_heavy")``).
    classes: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "client": self.client,
            "offered": self.offered,
            "served": self.served,
            "shed": self.shed,
            "windows": self.windows,
            "busy_cycles": self.busy_cycles,
            "busy_fraction": self.busy_fraction,
            "write_fraction": self.write_fraction,
            "mean_cycles": self.mean_cycles,
            "p50_cycles": self.p50_cycles,
            "p95_cycles": self.p95_cycles,
            "p99_cycles": self.p99_cycles,
            "span_cycles": self.span_cycles,
            "classes": list(self.classes),
        }


def profile_tenants(plan, accounting: SchedAccounting,
                    wall_cycles: float) -> List[TenantProfile]:
    """Per-client profiles of one accounted run, sorted by client id.

    ``plan`` supplies the offered stream (member + rejected + shed
    rows of its column store); ``accounting`` the replayed per-client
    latency/busy/window data; ``wall_cycles`` the accounted wall clock
    the spans and busy fractions normalize against.
    """
    cols = plan.columns
    store = cols.requests
    rows = np.concatenate([cols.member_rows, cols.rejected_rows,
                           cols.shed_rows])
    ids, inverse, counts = np.unique(store.clients[rows],
                                     return_inverse=True, return_counts=True)
    arrivals = store.arrivals[rows]
    first = np.full(len(ids), np.inf)
    last = np.full(len(ids), -np.inf)
    np.minimum.at(first, inverse, arrivals)
    np.maximum.at(last, inverse, arrivals)
    wrote = np.bincount(inverse[store.is_write[rows]], minlength=len(ids))
    offered = dict(zip(ids.tolist(), counts.tolist()))
    writes = dict(zip(ids.tolist(), wrote.tolist()))
    spans = dict(zip(ids.tolist(), (last - first).tolist()))

    total_offered = sum(offered.values())
    total_writes = sum(writes.values())
    overall_write_fraction = (total_writes / total_offered
                              if total_offered else 0.0)

    # The Zipf head: heaviest clients first, cut once the running share
    # reaches HOT_HEAD_FRACTION of all offered requests.
    hot: set = set()
    covered = 0
    for client in sorted(offered, key=lambda c: (-offered[c], c)):
        if total_offered and covered / total_offered >= HOT_HEAD_FRACTION:
            break
        hot.add(client)
        covered += offered[client]

    profiles: List[TenantProfile] = []
    for client in sorted(offered):
        histogram = accounting.latency.get(client)
        served = histogram.count if histogram is not None else 0
        n_offered = offered[client]
        write_fraction = writes[client] / n_offered
        span = spans[client]
        busy = accounting.busy.get(client, 0.0)
        classes = ["hot" if client in hot else "long_tail"]
        classes.append("write_heavy"
                       if write_fraction > overall_write_fraction
                       else "read_heavy")
        if wall_cycles > 0 and span < CHURN_SPAN_FRACTION * wall_cycles:
            classes.append("churn_prone")
        profiles.append(TenantProfile(
            client=client,
            offered=n_offered,
            served=served,
            shed=accounting.shed_by_client.get(client, 0),
            windows=accounting.windows.get(client, 0),
            busy_cycles=busy,
            busy_fraction=busy / wall_cycles if wall_cycles > 0 else 0.0,
            write_fraction=write_fraction,
            mean_cycles=histogram.mean if histogram is not None else 0.0,
            p50_cycles=(histogram.percentile(50.0) or 0.0)
            if histogram is not None else 0.0,
            p95_cycles=(histogram.percentile(95.0) or 0.0)
            if histogram is not None else 0.0,
            p99_cycles=(histogram.percentile(99.0) or 0.0)
            if histogram is not None else 0.0,
            span_cycles=span,
            classes=tuple(sorted(classes)),
        ))
    return profiles
