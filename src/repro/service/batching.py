"""Domain-aware batching, admission control, and dispatch simulation.

The scheduler's job is deciding, at trace-generation time, the *order*
the server executes work in: which requests are admitted, and how queued
requests coalesce into batches.  A batch is the unit of permission
switching — the worker opens one SETPERM window for the batch's client,
serves every member request, and closes the window — so coalescing k
same-client requests turns 2k permission switches into 2.  That is the
knob separating MPK virtualization's shootdown bill from domain
virtualization's PTLB bill under client churn: batching reduces the
*rate* of domain hopping without reducing the offered load.

The dispatch simulation keeps one free-time clock **per worker slot**
and assigns each batch to the earliest-free worker (ties to the lowest
slot), so the planned schedule and the per-worker wall-clock accounting
(:mod:`repro.service.latency`) speak the same model.  How long a batch
occupies its worker comes from a :class:`DispatchClock`, a
``window + n * per_request`` model:

* the nominal clock — the fixed analytic estimate
  (:func:`~repro.service.params.nominal_request_cycles`) with no window;
  every scheme shares one schedule, which keeps a service run a single
  cacheable trace (``dispatch="nominal"``, the default);
* :func:`repro.service.closed.scheme_clock` — the model fitted from one
  scheme's marked replay; each scheme gets its *own* schedule — and
  with ``arrival="closed"`` its completions gate when clients issue
  again, the true closed loop (``dispatch="replay"``).

Admission control is a bounded queue: an arrival finding ``max_queue``
requests already waiting is rejected (counted, excluded from the trace)
— the standard overload valve of a real server.  In the closed loop a
rejected client backs off (thinks again) and retries; every retry is a
fresh offered request against the ``n_requests`` budget.

Both decisions — admission and which queued request a freed worker
serves — go through the run's **scheduling policy**
(:mod:`repro.service.sched.policy`, selected by
``params.sched_policy``): the default ``static`` policy reproduces the
bounded-queue/head-of-line behaviour above decision for decision, while
``weighted_fair``/``slo_adaptive`` reorder within the
``batch_window`` lookahead, shed load against an SLO target, and
re-pin clients to workers at epoch boundaries (docs/SCHEDULING.md).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import SimulationError
from .params import ServiceParams, nominal_request_cycles
from .sched.policy import (REJECT, SHED, SchedPolicy, SchedState,
                           policy_by_name)
from .arrivals import pattern_by_name
from .traffic import RequestColumns, generate_request_columns


@dataclass(frozen=True)
class DispatchClock:
    """How long work occupies a worker, as the dispatch simulation sees
    it: ``window + n * per_request`` cycles for a batch of ``n``.

    ``window_cycles`` is the fixed cost of opening/closing the batch's
    permission window under ``scheme`` (SETPERM pair, shootdowns, the
    flush tail it induces); ``per_request_cycles`` the marginal cost of
    one more coalesced request.  The nominal clock is scheme-agnostic
    (``scheme=None``) and has no window;
    :func:`repro.service.closed.scheme_clock` fits one per scheme.
    """

    scheme: Optional[str]
    window_cycles: float
    per_request_cycles: float

    def batch_cycles(self, n_requests: int) -> float:
        """Duration of one batch of ``n_requests`` coalesced requests."""
        return self.window_cycles + self.per_request_cycles * n_requests


class PlanColumns:
    """A schedule as flat arrays over a :class:`RequestColumns` store.

    Batches are a CSR layout: ``member_rows`` holds row indices into
    ``requests`` in batch-member order, ``batch_starts`` the per-batch
    offsets (``len(batch_starts) == n_batches + 1``);
    ``batch_clients``/``batch_workers`` are parallel per-batch columns.
    ``rejected_rows`` are the queue-full drops and ``shed_rows`` the
    policy's SLO sheds, each in offer order.  Every row of ``requests``
    lands in exactly one of member/rejected/shed rows.
    """

    __slots__ = ("requests", "member_rows", "batch_starts",
                 "batch_clients", "batch_workers", "rejected_rows",
                 "shed_rows")

    def __init__(self, requests: RequestColumns, member_rows: np.ndarray,
                 batch_starts: np.ndarray, batch_clients: np.ndarray,
                 batch_workers: np.ndarray, rejected_rows: np.ndarray,
                 shed_rows: np.ndarray):
        self.requests = requests
        self.member_rows = member_rows
        self.batch_starts = batch_starts
        self.batch_clients = batch_clients
        self.batch_workers = batch_workers
        self.rejected_rows = rejected_rows
        self.shed_rows = shed_rows

    @property
    def n_batches(self) -> int:
        return int(self.batch_clients.shape[0])

    def batch_sizes(self) -> np.ndarray:
        return np.diff(self.batch_starts)


class ServicePlan:
    """The full, deterministic schedule of one service run: the
    :class:`PlanColumns` plus the control loop's counters."""

    def __init__(self, params: ServiceParams, columns: PlanColumns, *,
                 migrations: int = 0, epochs: int = 0,
                 loop_iterations: int = 0):
        self.params = params
        self.columns = columns
        #: Client->worker affinity re-pins the policy applied at epoch
        #: boundaries, and the epochs it evaluated.
        self.migrations = migrations
        self.epochs = epochs
        #: Dispatch-simulation iterations taken to build the schedule
        #: (observability: how hard the loop worked, not a cycle count).
        self.loop_iterations = loop_iterations

    def __repr__(self) -> str:
        return (f"ServicePlan(params={self.params!r}, "
                f"n_batches={self.columns.n_batches}, "
                f"n_served={self.n_served}, "
                f"n_rejected={self.n_rejected})")

    @property
    def shed(self) -> np.ndarray:
        """Rows the policy's SLO valve shed (open loop: the request is
        dropped; closed loop: the client backed off and retried, this
        records the deferral)."""
        return self.columns.shed_rows

    @property
    def n_served(self) -> int:
        return int(self.columns.member_rows.shape[0])

    @property
    def n_rejected(self) -> int:
        return int(self.columns.rejected_rows.shape[0])

    @property
    def coalesced(self) -> int:
        """Requests that shared a window with an earlier one (the count
        of permission-switch pairs batching saved)."""
        return self.n_served - self.columns.n_batches

    def batch_sizes(self) -> np.ndarray:
        """Per-batch member counts, in batch order (int64)."""
        return self.columns.batch_sizes()


def build_plan(params: ServiceParams,
               clock: Optional[DispatchClock] = None) -> ServicePlan:
    """Simulate admission + batching + per-worker dispatch.

    Deterministic: the same (params, clock) always produce the identical
    plan.  ``dispatch="replay"`` params need a scheme-calibrated clock —
    build those plans via
    :func:`repro.service.closed.build_plan_keyed`.
    """
    if clock is None:
        if params.dispatch == "replay":
            raise SimulationError(
                "dispatch='replay' schedules are scheme-keyed; build them "
                "with repro.service.closed.build_plan_keyed(params, scheme)")
        clock = DispatchClock(None, 0.0, nominal_request_cycles(params))
    policy = policy_by_name(params.sched_policy)
    state = SchedState(params, max(1, params.workers))
    if params.arrival == "closed" and params.dispatch == "replay":
        return _dispatch_closed(params, clock, policy, state)
    return _dispatch_stream(params, clock, policy, state)


def _hooks(policy: SchedPolicy):
    """``(admit, select, observing)`` for one plan.

    ``admit``/``select`` are the policy's bound hooks when it overrides
    them and ``None`` otherwise — the loops inline the base behaviour,
    so ``static`` pays no Python call per decision.  ``observing`` says
    whether the per-batch profile fold can matter: only a custom hook
    or the epoch machinery ever reads it.
    """
    cls = type(policy)
    admit = policy.admit if cls.admit is not SchedPolicy.admit else None
    select = policy.select if cls.select is not SchedPolicy.select else None
    return admit, select, bool(admit or select or policy.uses_epochs)


def _observe(policy: SchedPolicy, state: SchedState, client: int,
             members: List[int], start: float, completion: float) -> None:
    """Post-dispatch control-loop step: fold the batch into the live
    profile and run an epoch boundary when one is due."""
    state.fold_batch(client, members, start, completion)
    if policy.uses_epochs and \
            state.batches_in_epoch >= state.params.sched_epoch_batches:
        state.end_epoch(policy)


class _Schedule:
    """The dispatch loops' output lists, packed into a plan at the end."""

    def __init__(self):
        self.member_rows: List[int] = []
        self.sizes: List[int] = []
        self.clients: List[int] = []
        self.workers: List[int] = []
        self.rejected_rows: List[int] = []

    def plan(self, params: ServiceParams, requests: RequestColumns,
             state: SchedState, iterations: int) -> ServicePlan:
        starts = np.zeros(len(self.sizes) + 1, dtype=np.int64)
        np.cumsum(np.asarray(self.sizes, dtype=np.int64), out=starts[1:])
        columns = PlanColumns(
            requests=requests,
            member_rows=np.asarray(self.member_rows, dtype=np.int64),
            batch_starts=starts,
            batch_clients=np.asarray(self.clients, dtype=np.int64),
            batch_workers=np.asarray(self.workers, dtype=np.int64),
            rejected_rows=np.asarray(self.rejected_rows, dtype=np.int64),
            shed_rows=np.asarray(state.shed, dtype=np.int64))
        return ServicePlan(params, columns, migrations=state.migrations,
                           epochs=state.epochs, loop_iterations=iterations)


def _dispatch_stream(params: ServiceParams, clock: DispatchClock,
                     policy: SchedPolicy, state: SchedState) -> ServicePlan:
    """Dispatch a pre-generated arrival stream (open loop, and the
    nominal closed loop whose feedback was resolved at stream time).

    The queue holds row indices into the stream's column store; the
    earliest-free worker (ties to the lowest slot) is the root of a
    heap of ``(free time, slot)`` pairs.  The policy-selected head lies
    within the ``batch_window`` lookahead, and coalescing scans that
    same window for the head's client, so a reordered head changes
    *which* client is served, never the coalescing rules.
    """
    store = generate_request_columns(params)
    arrivals = state.arrivals = store.arrivals.tolist()
    clients = state.clients = store.clients.tolist()
    n = len(arrivals)
    admit, select, observing = _hooks(policy)
    max_queue = params.max_queue
    by_client = params.batching == "client"
    window = params.batch_window
    limit = params.batch_limit
    batch_cycles = clock.batch_cycles
    out = _Schedule()
    member_rows, sizes = out.member_rows, out.sizes
    batch_clients, batch_workers = out.clients, out.workers
    rejected_rows, shed_rows = out.rejected_rows, state.shed
    free = [(0.0, slot) for slot in range(max(1, params.workers))]
    queue: List[int] = []  # admitted rows, arrival order
    position = 0  # next unconsumed arrival in the stream
    iterations = 0

    while position < n or queue:
        iterations += 1
        now, slot = free[0]
        if not queue:
            # Idle worker: jump to the next arrival.
            arrival = arrivals[position]
            if arrival > now:
                now = arrival
        while position < n and arrivals[position] <= now:
            row = position
            position += 1
            if admit is None:
                if max_queue and len(queue) >= max_queue:
                    rejected_rows.append(row)
                else:
                    queue.append(row)
                continue
            verdict = admit(state, row, queue)
            if verdict == REJECT:
                rejected_rows.append(row)
            elif verdict == SHED:
                shed_rows.append(row)
            else:
                queue.append(row)
        if not queue:
            heapq.heapreplace(free, (now, slot))
            continue
        index = select(state, queue, slot) if select is not None else 0
        client = clients[queue[index]]
        if by_client:
            members = [row for row in queue[:window]
                       if clients[row] == client][:limit]
            for row in members:
                queue.remove(row)
        else:
            members = [queue.pop(index)]
        completion = now + batch_cycles(len(members))
        heapq.heapreplace(free, (completion, slot))
        member_rows.extend(members)
        sizes.append(len(members))
        batch_clients.append(client)
        batch_workers.append(slot)
        if observing:
            _observe(policy, state, client, members, now, completion)

    return out.plan(params, store, state, iterations)


def _dispatch_closed(params: ServiceParams, clock: DispatchClock,
                     policy: SchedPolicy, state: SchedState) -> ServicePlan:
    """The true closed loop: completions gate the next issue.

    Each client keeps one outstanding request; a served batch schedules
    its members' clients to think (pattern-modulated) and issue again,
    and a rejected client backs off the same way.  Because the clock is
    scheme-calibrated, a slower scheme pushes completions — and thus the
    *whole subsequent arrival process* — later: the schedules genuinely
    diverge per scheme instead of being one stream re-timed.  Issued
    requests append to the state's row lists, which become the plan's
    request store; admission, selection and coalescing follow
    :func:`_dispatch_stream`.

    A policy ``SHED`` verdict is a *deferral* here: the client backs off
    exactly like a queue-full rejection (the existing backoff machinery)
    but the drop is attributed to the SLO valve, not the queue bound.
    """
    import random
    rng = random.Random(params.seed)
    workers = max(1, params.workers)
    free = [0.0] * workers
    # Hot-loop hoists: think_gap(params, rng, now) unwraps to one
    # expovariate at the pattern's instantaneous rate — same single
    # rng draw, minus a registry lookup and two call frames per issue.
    pattern = pattern_by_name(params.pattern)
    rate = pattern.rate
    think = params.think_cycles
    read_fraction = params.read_fraction
    n_requests = params.n_requests
    expovariate = rng.expovariate
    random_draw = rng.random
    heappush, heappop = heapq.heappush, heapq.heappop
    admit, select, observing = _hooks(policy)
    max_queue = params.max_queue
    by_client = params.batching == "client"
    window = params.batch_window
    limit = params.batch_limit
    batch_cycles = clock.batch_cycles
    out = _Schedule()
    member_rows, sizes = out.member_rows, out.sizes
    batch_clients, batch_workers = out.clients, out.workers
    rejected_rows, shed_rows = out.rejected_rows, state.shed
    clients, arrivals = state.clients, state.arrivals
    is_write: List[bool] = []
    #: (next issue time, client) — a heap keeps client order stable.
    pending = [(expovariate(rate(params, 0.0) / think), client)
               for client in range(params.n_clients)]
    heapq.heapify(pending)
    queue: List[int] = []
    issued = 0
    iterations = 0

    while True:
        iterations += 1
        if workers == 1:
            slot = 0
            now = free[0]
        else:
            slot = min(range(workers), key=free.__getitem__)
            now = free[slot]
        # Admit every issue due by now; rejected clients back off + retry
        # (each retry is a fresh offered request against the budget).
        while pending and issued < n_requests and pending[0][0] <= now:
            ready, client = heappop(pending)
            row = issued
            issued += 1
            clients.append(client)
            arrivals.append(ready)
            is_write.append(random_draw() >= read_fraction)
            if admit is None:
                verdict = REJECT if max_queue and len(queue) >= max_queue \
                    else None
            else:
                verdict = admit(state, row, queue)
            if verdict == REJECT or verdict == SHED:
                (rejected_rows if verdict == REJECT else shed_rows).append(
                    row)
                heappush(
                    pending,
                    (ready + expovariate(rate(params, ready) / think),
                     client))
            else:
                queue.append(row)
        if not queue:
            if issued >= n_requests or not pending:
                break
            # Idle worker: jump to the next issue.
            free[slot] = max(now, pending[0][0])
            continue
        index = select(state, queue, slot) if select is not None else 0
        client = clients[queue[index]]
        if by_client:
            members = [row for row in queue[:window]
                       if clients[row] == client][:limit]
            for row in members:
                queue.remove(row)
        else:
            members = [queue.pop(index)]
        completion = now + batch_cycles(len(members))
        free[slot] = completion
        member_rows.extend(members)
        sizes.append(len(members))
        batch_clients.append(client)
        batch_workers.append(slot)
        lambd = rate(params, completion) / think
        for row in members:
            heappush(pending, (completion + expovariate(lambd), clients[row]))
        if observing:
            _observe(policy, state, client, members, now, completion)

    store = RequestColumns(
        np.arange(issued, dtype=np.int64),
        np.asarray(clients, dtype=np.int64),
        np.asarray(arrivals, dtype=np.float64),
        np.asarray(is_write, dtype=bool))
    return out.plan(params, store, state, iterations)
