"""Parameters of one multi-tenant PMO service run.

One :class:`ServiceParams` fully determines a service execution: the
client population and its popularity skew, the arrival process, the
per-request work, the batching/admission policy, and the worker pool.
It is a frozen dataclass for the same reason :class:`MicroParams` is —
the engine folds it into the trace-cache key, so two runs can only share
a cached trace when *every* knob matches.

All time-like quantities are expressed in simulated cycles (the replay
clock); see ``docs/SERVICE.md`` for the full knob contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .arrivals import (discipline_by_name, discipline_names,
                       pattern_by_name, pattern_names)
from .sched.policy import policy_by_name, policy_names

#: Dispatch clocks the planner can drive the schedule with.
DISPATCHES = ("nominal", "replay")
#: Batching policies the scheduler understands.
BATCHINGS = ("none", "client")


def __getattr__(name: str):
    # ``ARRIVALS``/``PATTERNS`` are derived from the arrival registries,
    # whose discovery imports :mod:`repro.service.traffic` — which
    # imports this module.  Resolving them lazily (PEP 562) keeps the
    # historical ``from repro.service.params import ARRIVALS`` working
    # without an import cycle.
    if name == "ARRIVALS":
        return tuple(discipline_names())
    if name == "PATTERNS":
        return tuple(pattern_names())
    if name == "POLICIES":
        return tuple(policy_names())
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ServiceParams:
    """Knobs of one simulated service run (seeded, fully deterministic)."""

    #: Tenants; one PMO/domain per client (the Heartbleed scenario).
    n_clients: int = 64
    #: Requests offered to the server (before admission control).
    n_requests: int = 2000
    seed: int = 7
    #: ``open`` — arrivals keep coming at the offered rate regardless of
    #: completions; ``closed`` — each client has at most one outstanding
    #: request and thinks for ``think_cycles`` between them.
    arrival: str = "open"
    #: Open loop: mean request interarrival in cycles.  The default sits
    #: slightly *below* the nominal per-request service cost (offered
    #: load just past saturation), so queues build, batching has
    #: material to coalesce, admission control engages, and tail latency
    #: is scheme-sensitive.
    interarrival_cycles: float = 300.0
    #: Closed loop: per-client think time in cycles after a completion.
    think_cycles: float = 20000.0
    #: Time-varying shape of the offered rate: ``poisson`` — stationary;
    #: ``burst`` — a periodic on/off spike multiplying the rate by
    #: ``burst_factor`` during the first ``burst_fraction`` of every
    #: ``burst_period_cycles`` window; ``diurnal`` — a sinusoid of
    #: relative amplitude ``diurnal_amplitude`` over
    #: ``diurnal_period_cycles``.  Modulates interarrival gaps (open
    #: loop) and think times (closed loop); seeded and deterministic
    #: like everything else here.
    pattern: str = "poisson"
    burst_factor: float = 8.0
    burst_fraction: float = 0.1
    burst_period_cycles: float = 50000.0
    diurnal_period_cycles: float = 200000.0
    diurnal_amplitude: float = 0.8
    #: ``churn`` pattern: the connected-tenant window rotates by its own
    #: width every this many cycles (one connect/disconnect wave).
    #: Declared ``elide_default`` so runs that never churn keep their
    #: pre-existing trace-cache keys.
    churn_period_cycles: float = field(
        default=50000.0, metadata={"elide_default": True})
    #: ``churn`` pattern: fraction of tenants connected at any instant.
    churn_active_fraction: float = field(
        default=0.25, metadata={"elide_default": True})
    #: Revocation storm: every this many served batches, the serving
    #: worker sweeps ``SETPERM(NONE)`` over a fraction of all client
    #: domains (a mass-revocation event — lease expiry, key rotation, a
    #: tenant eviction wave).  0 disables the storm; ``elide_default``
    #: keeps storm-free cache keys unchanged.
    revoke_every_batches: int = field(
        default=0, metadata={"elide_default": True})
    #: Fraction of client domains swept by each storm.
    revoke_fraction: float = field(
        default=1.0, metadata={"elide_default": True})
    #: Zipf exponent of client popularity (0 = uniform).  Hot clients are
    #: what domain-aware batching exploits.
    zipf: float = 0.9
    #: Fraction of requests that only read the client's record.
    read_fraction: float = 0.8
    #: 8-byte words read per request (the client record lookup).
    read_words: int = 8
    #: 8-byte words written by a write request (the record update).
    write_words: int = 2
    #: Modelled non-memory instructions per request (parsing, crypto,
    #: response formatting).
    compute_per_request: int = 600
    #: Volatile stack accesses per request.
    stack_per_request: int = 2
    #: Bytes of per-client secret state touched by requests.
    secret_size: int = 256
    #: Per-client pool size (one PMO per client).
    pool_size: int = 1 << 16
    #: ``none`` — every request is served in its own permission window;
    #: ``client`` — consecutive queued requests of the same client are
    #: coalesced into one window (amortizing the two SETPERMs).
    batching: str = "client"
    #: Maximum requests coalesced into one batch.
    batch_limit: int = 8
    #: How far into the queue the batcher looks for same-client requests.
    batch_window: int = 16
    #: Admission control: maximum queued requests; arrivals beyond it are
    #: rejected (0 = unbounded queue, nothing is ever rejected).
    max_queue: int = 64
    #: Worker threads serving batches (interleaved by the round-robin
    #: scheduler in the recorded trace when > 1).  Replay splits the
    #: trace into one shard per worker and runs each on its own
    #: simulated core (docs/MULTICORE.md).
    workers: int = 1
    #: Batches served per scheduling quantum when ``workers > 1`` (at
    #: least 1).
    quantum: int = 4
    #: Clock driving the dispatch simulation: ``nominal`` — the fixed
    #: analytic estimate (:func:`nominal_request_cycles`), one schedule
    #: shared by every scheme; ``replay`` — a per-scheme clock calibrated
    #: from a marked replay (:mod:`repro.service.closed`), so each scheme
    #: gets its own schedule and completions feed back into dispatch.
    dispatch: str = "nominal"
    #: Scheduling policy driving admission/selection/rebalancing in the
    #: dispatch simulation (the ``sched_policies`` registry, see
    #: docs/SCHEDULING.md).  ``static`` is bit-identical to the
    #: pre-scheduler planner; ``elide_default`` keeps policy-free runs on
    #: their pre-existing trace-cache keys.
    sched_policy: str = field(
        default="static", metadata={"elide_default": True})
    #: SLO target for the adaptive policy's shedding valve: predicted
    #: p99 latency in cycles the control loop tries to hold (0 = no SLO,
    #: the valve never engages).  Also the target per-client
    #: SLO-attainment is accounted against after replay.
    slo_p99_cycles: float = field(
        default=0.0, metadata={"elide_default": True})
    #: Served batches per scheduling epoch: policies with a control loop
    #: (``uses_epochs``) rebalance client->worker affinity at every
    #: epoch boundary.
    sched_epoch_batches: int = field(
        default=32, metadata={"elide_default": True})
    #: Domains every client may read but never write (a shared
    #: read-only catalog/config segment): each adds one pool mapped
    #: ``Perm.R`` for every worker at startup, and every request reads
    #: ``shared_words`` from one of them.  0 disables (the default;
    #: ``elide_default`` keeps share-free cache keys unchanged).
    shared_domains: int = field(
        default=0, metadata={"elide_default": True})
    #: 8-byte words each request reads from its shared domain.
    shared_words: int = field(
        default=4, metadata={"elide_default": True})

    def __post_init__(self):
        # Arrival disciplines and patterns are registries now; the
        # lookups below both validate the name (their KeyError lists the
        # registered names) and warm the plugin for generation time.
        try:
            discipline_by_name(self.arrival)
        except KeyError as error:
            raise ValueError(str(error)) from None
        try:
            pattern_by_name(self.pattern)
        except KeyError as error:
            raise ValueError(str(error)) from None
        if self.dispatch not in DISPATCHES:
            raise ValueError(f"unknown dispatch clock {self.dispatch!r}; "
                             f"choose from {DISPATCHES}")
        if self.batching not in BATCHINGS:
            raise ValueError(f"unknown batching policy {self.batching!r}; "
                             f"choose from {BATCHINGS}")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be at least 1")
        if not 0.0 < self.burst_fraction <= 1.0:
            raise ValueError("burst_fraction must be in (0, 1]")
        if self.burst_period_cycles <= 0 or self.diurnal_period_cycles <= 0:
            raise ValueError("pattern periods must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.churn_period_cycles <= 0:
            raise ValueError("churn_period_cycles must be positive")
        if not 0.0 < self.churn_active_fraction <= 1.0:
            raise ValueError("churn_active_fraction must be in (0, 1]")
        if self.revoke_every_batches < 0:
            raise ValueError("revoke_every_batches must be non-negative")
        if not 0.0 < self.revoke_fraction <= 1.0:
            raise ValueError("revoke_fraction must be in (0, 1]")
        if self.n_clients < 1:
            raise ValueError("n_clients must be at least 1")
        if self.batch_limit < 1:
            raise ValueError("batch_limit must be at least 1")
        if self.quantum < 1:
            raise ValueError("quantum must be at least 1")
        # Every request must emit at least one access event: the server's
        # columnar assembly sums per-member event runs into batch sizes
        # and needs every run non-empty.
        if self.read_words + self.stack_per_request + \
                (self.shared_words if self.shared_domains else 0) < 1:
            raise ValueError(
                "read_words + stack_per_request (+ shared_words with "
                "shared_domains) must be at least 1: every request needs "
                "one access event")
        # Scheduling-policy names are a registry too — same lazy lookup,
        # same roster-listing error converted for dataclass callers.
        try:
            policy_by_name(self.sched_policy)
        except KeyError as error:
            raise ValueError(str(error)) from None
        if self.slo_p99_cycles < 0:
            raise ValueError("slo_p99_cycles must be non-negative")
        if self.sched_epoch_batches < 1:
            raise ValueError("sched_epoch_batches must be at least 1")
        if self.shared_domains < 0:
            raise ValueError("shared_domains must be non-negative")
        if self.shared_words < 1:
            raise ValueError("shared_words must be at least 1")

    def scaled(self, factor: float) -> "ServiceParams":
        """Scale the request budget (the ``REPRO_OPS`` hook)."""
        return replace(self, n_requests=max(1, int(self.n_requests * factor)))


def nominal_request_cycles(params: ServiceParams) -> float:
    """Estimated unprotected cycles one request costs the server.

    Used only for *scheduling* decisions made at trace-generation time
    (queue drain rate, closed-loop completion feedback) — never for the
    measured latencies, which come from the per-scheme replay.  The
    estimate assumes cache-resident records: compute at the base CPI plus
    a few cycles per touched word.
    """
    words = params.read_words + (1.0 - params.read_fraction) * \
        params.write_words
    access_cycles = 4.0 * (words + params.stack_per_request)
    return 0.5 * params.compute_per_request + access_cycles
