"""Per-tenant accounting: fairness, SLO attainment, shed/migration counts.

:class:`SchedAccounting` is the per-client companion of the aggregate
:class:`~repro.service.latency.ServiceSummary`: while the latency module
re-times a marked replay onto the per-worker wall clocks, it feeds every
observation here a second time *keyed by client* — per-client latency
histograms (exact samples, so percentiles match the obs layer), busy
cycles, permission-window counts — plus the control-loop counters the
planner recorded on the plan (shed, migrations, epochs).

Derived figures:

* **SLO attainment** — the fraction of served requests whose replayed
  latency met the target (``params.slo_p99_cycles``); with no target
  configured every request trivially meets it.  ``attainment_at`` re-
  evaluates the same samples against any target, which is how the test
  suite checks monotonicity without re-running anything.
* **Jain's fairness index** over per-client mean latency —
  ``J = (Σx)² / (n·Σx²)``, 1 when every tenant sees the same mean
  latency, 1/n when one tenant absorbs the whole tail.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ...obs.metrics import Histogram


def jain_index(values: List[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` — in ``[1/n, 1]``.

    Degenerate inputs (no tenants, or all-zero values) count as
    perfectly fair: there is no inequality to measure.
    """
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares <= 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


class SchedAccounting:
    """Per-client accounting of one accounted service run."""

    __slots__ = ("slo_target", "latency", "busy", "windows", "writes",
                 "shed_by_client", "migrations", "epochs")

    def __init__(self, slo_target: float = 0.0):
        #: The run's SLO target in cycles (0 = no SLO configured).
        self.slo_target = slo_target
        #: client -> replayed request latencies (exact samples).
        self.latency: Dict[int, Histogram] = {}
        #: client -> replayed cycles spent inside that client's windows.
        self.busy: Dict[int, float] = {}
        #: client -> permission windows (batches) served for it; each
        #: window is one SETPERM open/close pair.
        self.windows: Dict[int, int] = {}
        #: client -> write requests served.
        self.writes: Dict[int, int] = {}
        #: client -> requests the policy's SLO valve shed.
        self.shed_by_client: Dict[int, int] = {}
        #: Control-loop counters copied off the plan.
        self.migrations = 0
        self.epochs = 0

    # -- folding (called from the latency-accounting walk) -----------------------

    def observe_window(self, client: int, delta: float) -> None:
        self.busy[client] = self.busy.get(client, 0.0) + delta
        self.windows[client] = self.windows.get(client, 0) + 1

    def observe_requests(self, clients: np.ndarray, latencies: np.ndarray,
                         writes: np.ndarray) -> None:
        """Fold whole request columns, grouped by client.

        The stable grouping sort preserves each client's sample order,
        so every client's histogram sees its latencies in array order.
        """
        n = int(clients.shape[0])
        if n == 0:
            return
        order = np.argsort(clients, kind="stable")
        grouped = clients[order]
        starts = np.flatnonzero(
            np.r_[True, grouped[1:] != grouped[:-1]])
        ends = np.r_[starts[1:], n]
        for g0, g1 in zip(starts.tolist(), ends.tolist()):
            client = int(grouped[g0])
            rows = order[g0:g1]
            histogram = self.latency.get(client)
            if histogram is None:
                histogram = self.latency[client] = Histogram()
            histogram.observe_many(latencies[rows])
            wrote = int(np.count_nonzero(writes[rows]))
            if wrote:
                self.writes[client] = self.writes.get(client, 0) + wrote

    def observe_shed(self, client: int) -> None:
        self.shed_by_client[client] = self.shed_by_client.get(client, 0) + 1

    # -- derived figures ----------------------------------------------------------

    @property
    def n_shed(self) -> int:
        return sum(self.shed_by_client.values())

    @property
    def clients(self) -> List[int]:
        return sorted(self.latency)

    def client_percentile(self, client: int, q: float) -> float:
        histogram = self.latency.get(client)
        if histogram is None:
            return 0.0
        return histogram.percentile(q) or 0.0

    def mean_latencies(self) -> Dict[int, float]:
        return {client: self.latency[client].mean
                for client in self.clients}

    def fairness(self) -> float:
        """Jain's index over per-client mean latency."""
        return jain_index(list(self.mean_latencies().values()))

    def attainment(self) -> float:
        return self.attainment_at(self.slo_target)

    def attainment_at(self, target: float) -> float:
        """Fraction of served requests with latency ≤ ``target``.

        Exact while every per-client histogram retains its full sample
        set; once a histogram's bounded reservoir engages
        (:attr:`~repro.obs.metrics.Histogram.sampling`), its clients'
        contribution is the reservoir fraction weighted by the true
        request count — an unbiased estimate over the same samples
        :meth:`~repro.obs.metrics.Histogram.percentile` uses.
        """
        if target <= 0.0:
            return 1.0
        total = 0.0
        met = 0.0
        for histogram in self.latency.values():
            retained = histogram.samples
            if not retained:
                continue
            within = sum(1 for sample in retained if sample <= target)
            total += histogram.count
            if histogram.count == len(retained):
                met += within
            else:
                met += histogram.count * (within / len(retained))
        return met / total if total else 1.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe export nested under ``ServiceSummary.to_dict``."""
        per_client = {}
        for client in self.clients:
            histogram = self.latency[client]
            per_client[str(client)] = {
                "served": histogram.count,
                "shed": self.shed_by_client.get(client, 0),
                "windows": self.windows.get(client, 0),
                "busy_cycles": self.busy.get(client, 0.0),
                "writes": self.writes.get(client, 0),
                "mean_cycles": histogram.mean,
                "p50_cycles": histogram.percentile(50.0) or 0.0,
                "p95_cycles": histogram.percentile(95.0) or 0.0,
                "p99_cycles": histogram.percentile(99.0) or 0.0,
            }
        return {
            "slo_target_cycles": self.slo_target,
            "slo_attainment": self.attainment(),
            "fairness": self.fairness(),
            "shed": self.n_shed,
            "migrations": self.migrations,
            "epochs": self.epochs,
            "per_client": per_client,
        }


def fold_shed(accounting: SchedAccounting, plan) -> None:
    """Copy the planner's control-loop outcomes onto the accounting."""
    for client in plan.columns.requests.clients[plan.shed].tolist():
        accounting.observe_shed(client)
    accounting.migrations = plan.migrations
    accounting.epochs = plan.epochs
