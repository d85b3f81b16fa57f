"""Deterministic traffic generation for the service layer.

Produces the offered request stream — *who* asks *what*, *when* — from a
:class:`~repro.service.params.ServiceParams` alone.  Everything is
seeded: the same parameters always yield the identical stream, which is
what lets the whole service run live in the content-addressed trace
cache.

The stream is synthesized **columnar**: a :class:`RequestColumns` holds
rid/client/arrival/is_write as parallel numpy arrays, and the built-in
disciplines draw their randomness in bulk (:mod:`repro.rng`) instead of
one ``rng`` call per request — bit-identical to the historical scalar
loops (same seed → same stream → same trace hashes; pinned by
``tests/service/test_columns.py``), an order of magnitude faster at
million-request scale, and the representation the planner and the
latency accounting operate on directly.

Two arrival disciplines (Section V of most serving papers, and the knob
that separates throughput from latency measurements):

* **open loop** — arrivals are an exponential process at the offered
  rate; the server's speed does not slow the clients down, so queues
  (and tail latency) grow when a scheme cannot keep up.  Fully
  vectorized: one bulk draw covers gaps, Zipf client picks and
  read/write flags; stationary patterns collapse the clock recurrence
  into a single ``cumsum``;
* **closed loop** — each client keeps at most one request outstanding
  and thinks for ``think_cycles`` after each completion.  The stream
  produced *here* uses the nominal service model for completion
  feedback; the event-driven recurrence stays (completions gate future
  arrivals), but it runs on a preallocated per-client next-issue array
  and writes straight into the output columns — no heap of tuples, no
  dataclass appends.  The scheme-aware closed loop
  (``dispatch="replay"``) skips this module's stream entirely and
  issues requests from inside the dispatch simulation
  (:mod:`repro.service.batching`).

Either discipline composes with an arrival-rate *pattern*: ``poisson``
is stationary, ``burst`` spikes the rate periodically, ``diurnal``
follows a sinusoid, ``churn`` rotates connect/disconnect waves through
the tenant set — modulating interarrival gaps (open loop), think times
(closed loop) and, for churn, the connected client population.  The
disciplines and patterns are both plugin registries
(:mod:`repro.service.arrivals`); the two loops below self-register as
the ``open`` and ``closed`` disciplines.  Every discipline returns a
:class:`RequestColumns`.

Client popularity is Zipf-distributed (hot tenants), reusing the
exemplar-accurate :class:`~repro.workloads.micro.ZipfSampler` (batch
draws via :meth:`~repro.workloads.micro.ZipfSampler.map_uniforms`).
"""

from __future__ import annotations

import random
from typing import List

import numpy as np

from ..rng import bulk_uniforms, neg_log1m
from ..workloads.micro import ZipfSampler
from .arrivals import ARRIVAL_DISCIPLINES, ArrivalPattern, pattern_by_name
from .params import ServiceParams, nominal_request_cycles


def rate_multiplier(params: ServiceParams, now: float) -> float:
    """Instantaneous offered-rate multiplier of the arrival pattern.

    Delegates to the registered pattern plugin's ``rate`` hook (kept as
    a module-level function for compatibility — the planner and tests
    call it directly).
    """
    return pattern_by_name(params.pattern).rate(params, now)


def arrival_gap(params: ServiceParams, rng: random.Random,
                now: float) -> float:
    """One open-loop interarrival gap drawn at the current rate."""
    return rng.expovariate(
        rate_multiplier(params, now) / params.interarrival_cycles)


def think_gap(params: ServiceParams, rng: random.Random,
              now: float) -> float:
    """One closed-loop think time drawn at the current rate."""
    return rng.expovariate(
        rate_multiplier(params, now) / params.think_cycles)


class RequestColumns:
    """The offered stream as four parallel numpy columns.

    ``rids`` (int64), ``clients`` (int64), ``arrivals`` (float64) and
    ``is_write`` (bool) — row ``i`` is request ``i`` of the stream, in
    arrival order.  The planner, the server and the latency accounting
    address requests by row and gather straight from these arrays.
    """

    __slots__ = ("rids", "clients", "arrivals", "is_write")

    def __init__(self, rids: np.ndarray, clients: np.ndarray,
                 arrivals: np.ndarray, is_write: np.ndarray):
        self.rids = rids
        self.clients = clients
        self.arrivals = arrivals
        self.is_write = is_write

    def __len__(self) -> int:
        return int(self.rids.shape[0])


def generate_request_columns(params: ServiceParams) -> RequestColumns:
    """The offered request stream as columns, sorted by arrival time.

    Dispatches through the arrival-discipline registry, so a registered
    plugin discipline generates streams exactly like the built-in loops
    (same seeding contract: a discipline is a pure function of
    ``(params, rng)`` returning a :class:`RequestColumns`).
    """
    rng = random.Random(params.seed)
    produced = ARRIVAL_DISCIPLINES.get(params.arrival)(params, rng)
    if not isinstance(produced, RequestColumns):
        raise TypeError(
            f"arrival discipline {params.arrival!r} returned "
            f"{type(produced).__name__}, not RequestColumns")
    return produced


@ARRIVAL_DISCIPLINES.register("open")
def _open_loop(params: ServiceParams, rng: random.Random) -> RequestColumns:
    n = params.n_requests
    sampler = ZipfSampler(params.n_clients, params.zipf, rng)
    pattern = pattern_by_name(params.pattern)
    # The scalar loop drew, per request: the gap uniform, the Zipf
    # uniform, the read/write uniform.  One bulk draw with stride-3
    # views reproduces that interleaving exactly.
    draws = bulk_uniforms(rng, 3 * n)
    gaps = neg_log1m(draws[0::3])
    if pattern.stationary:
        # Rate identically 1.0: every gap divides by the same lambda
        # and the clock recurrence is a plain cumulative sum.
        lambd = 1.0 / params.interarrival_cycles
        arrivals = np.cumsum(gaps / lambd)
    else:
        # The rate depends on the running clock, so the recurrence is
        # inherently sequential — but the expensive parts (the draws,
        # the log) are already columnar; only cheap float steps remain.
        rate = pattern.rate
        interarrival = params.interarrival_cycles
        clock = 0.0
        ticks: List[float] = []
        for gap in gaps.tolist():
            clock += gap / (rate(params, clock) / interarrival)
            ticks.append(clock)
        arrivals = np.asarray(ticks, dtype=np.float64)
    clients = sampler.map_uniforms(draws[1::3])
    if type(pattern).remap_client is not ArrivalPattern.remap_client or \
            type(pattern).remap_clients is not ArrivalPattern.remap_clients:
        # The pattern maps the popularity sample onto the *connected*
        # population (identity except under churn-style patterns).
        clients = pattern.remap_clients(params, arrivals, clients,
                                        params.n_clients)
    is_write = draws[2::3] >= params.read_fraction
    return RequestColumns(np.arange(n, dtype=np.int64), clients, arrivals,
                          is_write)


@ARRIVAL_DISCIPLINES.register("closed")
def _closed_loop(params: ServiceParams,
                 rng: random.Random) -> RequestColumns:
    """One outstanding request per client, think time between them.

    Completion feedback uses the nominal service model (the server is
    modelled as one FIFO core draining requests back to back); the
    replayed latencies are re-timed per scheme later.

    The recurrence pops the earliest next-issue time from a per-client
    array (each client has exactly one outstanding entry, so the
    historical heap was only ever an argmin over ``n_clients`` values —
    ties break to the lowest client either way) and writes straight
    into the output columns.  Emission order is already sorted: every
    entry pushed back is strictly later than the arrival just popped,
    so pop times never decrease and rids increase in pop order — the
    historical post-hoc ``sort(key=(arrival, rid))`` was a no-op and is
    gone (pinned by ``tests/service/test_columns.py``).
    """
    n = params.n_requests
    n_clients = params.n_clients
    service = nominal_request_cycles(params)
    pattern = pattern_by_name(params.pattern)
    think = params.think_cycles
    # Scalar draw order was: one think gap per client up front, then
    # per request one read/write uniform followed by one think gap.
    draws = bulk_uniforms(rng, n_clients + 2 * n)
    seed_gaps = neg_log1m(draws[:n_clients])
    is_write_draws = draws[n_clients::2] >= params.read_fraction
    think_gaps = neg_log1m(draws[n_clients + 1::2]).tolist()

    lambd0 = pattern.rate(params, 0.0) / think
    next_issue = seed_gaps / lambd0

    arrivals = np.empty(n, dtype=np.float64)
    clients = np.empty(n, dtype=np.int64)
    stationary = pattern.stationary
    lambd = 1.0 / think  # rate ≡ 1.0 when stationary
    rate = pattern.rate
    argmin = np.argmin
    server_free = 0.0
    for rid in range(n):
        client = int(argmin(next_issue))
        arrival = next_issue[client]
        arrivals[rid] = arrival
        clients[rid] = client
        completion = max(server_free, arrival) + service
        server_free = completion
        if not stationary:
            lambd = rate(params, completion) / think
        next_issue[client] = completion + think_gaps[rid] / lambd
    return RequestColumns(np.arange(n, dtype=np.int64), clients, arrivals,
                          is_write_draws)
