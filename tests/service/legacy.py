"""Test oracles: the service layer's retired per-object code, verbatim.

Before the planner, the server and the tenant profiler went columnar
they worked on per-request ``Request`` and per-window ``Batch`` objects:

* the policy-aware object planner (``_stream_plan`` for the open stream,
  ``_closed_feedback_plan`` for the closed feedback loop) with the
  object-hook scheduling policies it called;
* the recorder serve — one ``TraceRecorder`` call per event;
* the object views (``Request``/``Batch`` lists of a plan, batches in
  served order) and the tenant profiler's object walk.

The code below is that implementation, kept only so the differential
tests can compare the production paths against it.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.permissions import Perm
from repro.service.arrivals import pattern_by_name
from repro.service.batching import DispatchClock, PlanColumns, ServicePlan
from repro.service.latency import _served_plan_order
from repro.service.params import nominal_request_cycles
from repro.service.sched.accounting import SchedAccounting
from repro.service.sched.policy import (ADMIT, MIN_PREDICTIONS,
                                        PREDICTION_WINDOW, REJECT, SHED)
from repro.service.sched.profile import (CHURN_SPAN_FRACTION,
                                         HOT_HEAD_FRACTION, TenantProfile)
from repro.service.traffic import RequestColumns, generate_request_columns


# -- object views ---------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One client request of the offered stream."""

    rid: int
    client: int
    #: Arrival time on the simulated-cycle wall clock.
    arrival: float
    #: Read-only lookup vs. record update (writes also read the record).
    is_write: bool


@dataclass(frozen=True)
class Batch:
    """One permission window: same-client requests served back to back."""

    index: int
    client: int
    requests: Tuple[Request, ...]
    #: Worker thread slot (0-based) this batch is assigned to.
    worker: int


def to_requests(store: RequestColumns,
                rows: Optional[Sequence[int]] = None) -> List[Request]:
    """The per-object view — all rows, or the given row subset."""
    if rows is None:
        quads = zip(store.rids.tolist(), store.clients.tolist(),
                    store.arrivals.tolist(), store.is_write.tolist())
    else:
        index = np.asarray(rows, dtype=np.int64)
        quads = zip(store.rids[index].tolist(),
                    store.clients[index].tolist(),
                    store.arrivals[index].tolist(),
                    store.is_write[index].tolist())
    return [Request(rid=rid, client=client, arrival=arrival,
                    is_write=write)
            for rid, client, arrival, write in quads]


def from_requests(requests: Sequence[Request]) -> RequestColumns:
    """Adapt a per-object stream into columns."""
    n = len(requests)
    return RequestColumns(
        np.fromiter((r.rid for r in requests), dtype=np.int64, count=n),
        np.fromiter((r.client for r in requests), dtype=np.int64,
                    count=n),
        np.fromiter((r.arrival for r in requests), dtype=np.float64,
                    count=n),
        np.fromiter((r.is_write for r in requests), dtype=bool, count=n))


def generate_requests(params) -> List[Request]:
    """The offered request stream as :class:`Request` objects."""
    return to_requests(generate_request_columns(params))


class ObjectPlan:
    """A plan as object lists (what the legacy planner returned)."""

    def __init__(self, params, batches: List[Batch],
                 rejected: List[Request], shed: Optional[List[Request]] = None,
                 migrations: int = 0, epochs: int = 0,
                 loop_iterations: int = 0):
        self.params = params
        self.batches = batches
        self.rejected = rejected
        self.shed = list(shed) if shed is not None else []
        self.migrations = migrations
        self.epochs = epochs
        self.loop_iterations = loop_iterations

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObjectPlan):
            return NotImplemented
        return (self.params, self.batches, self.rejected, self.shed,
                self.migrations, self.epochs, self.loop_iterations) == \
            (other.params, other.batches, other.rejected, other.shed,
             other.migrations, other.epochs, other.loop_iterations)


def object_view(plan) -> ObjectPlan:
    """The object lists of a columnar :class:`ServicePlan`."""
    cols = plan.columns
    members = to_requests(cols.requests, cols.member_rows)
    starts = cols.batch_starts.tolist()
    clients = cols.batch_clients.tolist()
    workers = cols.batch_workers.tolist()
    batches = [Batch(index=i, client=clients[i],
                     requests=tuple(members[starts[i]:starts[i + 1]]),
                     worker=workers[i])
               for i in range(len(clients))]
    return ObjectPlan(
        plan.params, batches,
        to_requests(cols.requests, cols.rejected_rows),
        to_requests(cols.requests, cols.shed_rows),
        migrations=plan.migrations, epochs=plan.epochs,
        loop_iterations=plan.loop_iterations)


def columnar_plan(params, batches: Sequence[Batch],
                  rejected: Sequence[Request] = ()) -> ServicePlan:
    """Columnarize an object-built plan (hand-made plans in tests)."""
    members = [request for batch in batches for request in batch.requests]
    store = from_requests(members + list(rejected))
    sizes = np.fromiter((len(batch.requests) for batch in batches),
                        dtype=np.int64, count=len(batches))
    starts = np.zeros(len(batches) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    return ServicePlan(params, PlanColumns(
        requests=store,
        member_rows=np.arange(len(members), dtype=np.int64),
        batch_starts=starts,
        batch_clients=np.fromiter((b.client for b in batches),
                                  dtype=np.int64, count=len(batches)),
        batch_workers=np.fromiter((b.worker for b in batches),
                                  dtype=np.int64, count=len(batches)),
        rejected_rows=np.arange(len(members),
                                len(members) + len(rejected),
                                dtype=np.int64),
        shed_rows=np.empty(0, dtype=np.int64)))


def served_batches(trace, plan) -> List[Batch]:
    """The plan's batches in the order the trace actually served them."""
    batches = object_view(plan).batches
    return [batches[i]
            for i in _served_plan_order(trace, plan.columns).tolist()]


# -- the object-hook scheduling policies ---------------------------------------


class SchedState:
    """Mutable control-loop bookkeeping of one dispatch simulation."""

    __slots__ = ("params", "workers", "demand", "epoch_demand",
                 "affinity", "predicted", "shed", "migrations", "epochs",
                 "batches_in_epoch", "service_cycles", "service_requests")

    def __init__(self, params, workers: int):
        self.params = params
        self.workers = workers
        #: client -> dispatch-clock service cycles received so far.
        self.demand: Dict[int, float] = {}
        #: client -> service cycles received this epoch.
        self.epoch_demand: Dict[int, float] = {}
        #: client -> pinned worker slot (empty = no affinity).
        self.affinity: Dict[int, int] = {}
        #: Recent predicted request latencies (completion - arrival).
        self.predicted: Deque[float] = deque(maxlen=PREDICTION_WINDOW)
        #: Requests dropped by the policy's SLO valve (not queue-full
        #: rejects — those stay on ``ServicePlan.rejected``).
        self.shed: List[Request] = []
        #: Affinity re-pins applied at epoch boundaries.
        self.migrations = 0
        #: Epoch boundaries the control loop evaluated.
        self.epochs = 0
        self.batches_in_epoch = 0
        #: Pure service time dispatched so far (completion - start sums)
        #: and the requests it covered — the backlog estimator's rate.
        self.service_cycles = 0.0
        self.service_requests = 0

    def observe_batch(self, client: int, members, start: float,
                      completion: float) -> None:
        """Fold one dispatched batch into the running profile."""
        cycles = completion - start
        self.demand[client] = self.demand.get(client, 0.0) + cycles
        self.epoch_demand[client] = \
            self.epoch_demand.get(client, 0.0) + cycles
        for request in members:
            self.predicted.append(completion - request.arrival)
        self.service_cycles += cycles
        self.service_requests += len(members)
        self.batches_in_epoch += 1

    def predicted_p99(self) -> Optional[float]:
        """The p99 of the prediction window (``None`` while cold)."""
        if len(self.predicted) < MIN_PREDICTIONS:
            return None
        ordered = sorted(self.predicted)
        rank = (len(ordered) - 1) * 0.99
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)

    def predicted_latency(self, depth: int) -> Optional[float]:
        """Predicted latency of an arrival joining a ``depth``-deep queue."""
        if not self.service_requests:
            return None
        mean = self.service_cycles / self.service_requests
        return (depth + 1.0) * mean / self.workers

    def end_epoch(self, policy: "SchedPolicy") -> None:
        """Close one epoch: snapshot, rebalance, count migrations."""
        self.epochs += 1
        self.batches_in_epoch = 0
        new_affinity = policy.rebalance(self, dict(self.epoch_demand))
        for client, slot in new_affinity.items():
            previous = self.affinity.get(client)
            if previous is not None and previous != slot:
                self.migrations += 1
        self.affinity = new_affinity
        self.epoch_demand = {}


class SchedPolicy:
    """Base policy: the exact decisions of the pre-scheduler loop."""

    #: Whether the dispatch loop should run epoch boundaries at all.
    uses_epochs = False

    def admit(self, state: SchedState, request: Request,
              queue: List[Request]) -> str:
        """Admission verdict for one arrival (bounded-queue default)."""
        params = state.params
        if params.max_queue and len(queue) >= params.max_queue:
            return REJECT
        return ADMIT

    def select(self, state: SchedState, queue: List[Request],
               slot: int) -> int:
        """Index (within the ``batch_window`` lookahead) of the request
        the worker on ``slot`` serves next."""
        return 0

    def rebalance(self, state: SchedState,
                  epoch_demand: Dict[int, float]) -> Dict[int, int]:
        """New client -> worker affinity map for the next epoch."""
        return state.affinity

    # -- shared helpers ----------------------------------------------------------

    def _window(self, state: SchedState, queue: List[Request]
                ) -> List[Request]:
        return queue[:min(len(queue), state.params.batch_window)]

    def _fairest(self, state: SchedState, window: List[Request]) -> int:
        """Lookahead index whose client received the least service."""
        return min(range(len(window)),
                   key=lambda i: (state.demand.get(window[i].client, 0.0),
                                  i))


class StaticPolicy(SchedPolicy):
    """Head-of-line dispatch, bounded-queue admission, no epochs."""


class WeightedFairPolicy(SchedPolicy):
    """Fair queueing across tenants (least accumulated service first)."""

    def select(self, state: SchedState, queue: List[Request],
               slot: int) -> int:
        return self._fairest(state, self._window(state, queue))


class SloAdaptivePolicy(SchedPolicy):
    """Affinity-first FIFO selection, epoch rebalancing, SLO shedding."""

    uses_epochs = True

    def admit(self, state: SchedState, request: Request,
              queue: List[Request]) -> str:
        params = state.params
        if params.max_queue and len(queue) >= params.max_queue:
            return REJECT
        target = params.slo_p99_cycles
        if target > 0.0:
            predicted = state.predicted_p99()
            estimate = state.predicted_latency(len(queue))
            if predicted is not None and predicted > target \
                    and estimate is not None and estimate > target:
                return SHED
        return ADMIT

    def select(self, state: SchedState, queue: List[Request],
               slot: int) -> int:
        window = self._window(state, queue)
        if state.affinity:
            mine = [i for i, request in enumerate(window)
                    if state.affinity.get(request.client) == slot]
            if mine:
                return mine[0]
        return 0

    def rebalance(self, state: SchedState,
                  epoch_demand: Dict[int, float]) -> Dict[int, int]:
        if state.workers <= 1:
            return {}
        load = [0.0] * state.workers
        affinity: Dict[int, int] = {}
        # Heaviest tenants first; each goes to the least-loaded slot
        # (ties to the lowest slot) — the classic greedy makespan bound.
        ordered = sorted(epoch_demand,
                         key=lambda client: (-epoch_demand[client], client))
        for client in ordered:
            slot = min(range(state.workers), key=lambda w: (load[w], w))
            affinity[client] = slot
            load[slot] += epoch_demand[client]
        return affinity


POLICIES = {"static": StaticPolicy(), "weighted_fair": WeightedFairPolicy(),
            "slo_adaptive": SloAdaptivePolicy()}


# -- the object planner -----------------------------------------------------------


def nominal_clock(params) -> DispatchClock:
    """The scheme-agnostic clock :func:`repro.service.build_plan` uses
    when given none."""
    return DispatchClock(None, 0.0, nominal_request_cycles(params))



def build_plan(params, clock: Optional[DispatchClock] = None) -> ObjectPlan:
    """Simulate admission + batching + per-worker dispatch on objects."""
    if clock is None:
        clock = nominal_clock(params)
    policy = POLICIES[params.sched_policy]
    state = SchedState(params, max(1, params.workers))
    if params.arrival == "closed" and params.dispatch == "replay":
        plan = _closed_feedback_plan(params, clock, policy, state)
    else:
        plan = _stream_plan(params, clock, policy, state)
    plan.shed = state.shed
    plan.migrations = state.migrations
    plan.epochs = state.epochs
    return plan


def _take_batch(params, queue: List[Request],
                head_index: int = 0) -> List[Request]:
    """Pop the next batch's members off the queue."""
    head = queue[head_index]
    if params.batching == "client":
        members = [request for request in queue[:params.batch_window]
                   if request.client == head.client]
        members = members[:params.batch_limit]
    else:
        members = [head]
    for request in members:
        queue.remove(request)
    return members


def _is_static(policy: SchedPolicy) -> bool:
    """Whether the policy's every hook is the base (static) behaviour."""
    cls = type(policy)
    return (cls.admit is SchedPolicy.admit
            and cls.select is SchedPolicy.select
            and not policy.uses_epochs)


def _observe_batch(policy: SchedPolicy, state: SchedState, client: int,
                   members: List[Request], start: float,
                   completion: float) -> None:
    """Post-dispatch control-loop step: fold the batch into the live
    profile and run an epoch boundary when one is due."""
    state.observe_batch(client, members, start, completion)
    if policy.uses_epochs and \
            state.batches_in_epoch >= state.params.sched_epoch_batches:
        state.end_epoch(policy)


def _stream_plan(params, clock: DispatchClock, policy: SchedPolicy,
                 state: SchedState) -> ObjectPlan:
    """Dispatch a pre-generated arrival stream (open loop, and the
    nominal closed loop whose feedback was resolved at stream time)."""
    stream = generate_requests(params)
    workers = max(1, params.workers)
    free = [0.0] * workers
    queue: List[Request] = []
    batches: List[Batch] = []
    rejected: List[Request] = []
    iterations = 0
    position = 0  # next unconsumed arrival in the stream

    def admit_until(now: float) -> None:
        """Move arrivals with ``arrival <= now`` into the queue."""
        nonlocal position
        while position < len(stream) and stream[position].arrival <= now:
            request = stream[position]
            position += 1
            verdict = policy.admit(state, request, queue)
            if verdict == REJECT:
                rejected.append(request)
            elif verdict == SHED:
                state.shed.append(request)
            else:
                queue.append(request)

    while position < len(stream) or queue:
        iterations += 1
        slot = min(range(workers), key=lambda w: free[w])
        now = free[slot]
        if not queue:
            # Idle worker: jump to the next arrival.
            now = max(now, stream[position].arrival)
        admit_until(now)
        if not queue:
            free[slot] = now
            continue
        index = policy.select(state, queue, slot)
        head = queue[index]
        members = _take_batch(params, queue, index)
        completion = now + clock.batch_cycles(len(members))
        batches.append(Batch(
            index=len(batches), client=head.client,
            requests=tuple(members), worker=slot))
        free[slot] = completion
        _observe_batch(policy, state, head.client, members, now, completion)

    return ObjectPlan(params, batches, rejected, loop_iterations=iterations)


def _closed_feedback_plan(params, clock: DispatchClock,
                          policy: SchedPolicy,
                          state: SchedState) -> ObjectPlan:
    """The true closed loop: completions gate the next issue."""
    import random
    rng = random.Random(params.seed)
    workers = max(1, params.workers)
    free = [0.0] * workers
    pattern = pattern_by_name(params.pattern)
    rate = pattern.rate
    think = params.think_cycles
    read_fraction = params.read_fraction
    n_requests = params.n_requests
    expovariate = rng.expovariate
    random_draw = rng.random
    heappush, heappop = heapq.heappush, heapq.heappop
    observing = not _is_static(policy)
    #: (next issue time, client) — a heap keeps client order stable.
    pending = [(expovariate(rate(params, 0.0) / think), client)
               for client in range(params.n_clients)]
    heapq.heapify(pending)
    queue: List[Request] = []
    batches: List[Batch] = []
    rejected: List[Request] = []
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
        while pending and issued < n_requests and pending[0][0] <= now:
            ready, client = heappop(pending)
            request = Request(
                rid=issued, client=client, arrival=ready,
                is_write=random_draw() >= read_fraction)
            issued += 1
            verdict = policy.admit(state, request, queue)
            if verdict == REJECT or verdict == SHED:
                (rejected if verdict == REJECT else state.shed).append(
                    request)
                heappush(
                    pending,
                    (ready + expovariate(rate(params, ready) / think),
                     client))
            else:
                queue.append(request)
        if not queue:
            if issued >= n_requests or not pending:
                break
            # Idle worker: jump to the next issue.
            free[slot] = max(now, pending[0][0])
            continue
        index = policy.select(state, queue, slot)
        head = queue[index]
        members = _take_batch(params, queue, index)
        completion = now + clock.batch_cycles(len(members))
        batches.append(Batch(
            index=len(batches), client=head.client,
            requests=tuple(members), worker=slot))
        free[slot] = completion
        lambd = rate(params, completion) / think
        for request in members:
            heappush(pending,
                     (completion + expovariate(lambd), request.client))
        if observing:
            _observe_batch(policy, state, head.client, members, now,
                           completion)

    return ObjectPlan(params, batches, rejected, loop_iterations=iterations)


# -- the recorder serve --------------------------------------------------------------


def serve_batch(workload, batch: Batch, tid: int) -> None:
    """One permission window serving every request of the batch."""
    params = workload.params
    ws = workload.ws
    pool = workload.pools[batch.client]
    secret = workload.secrets[batch.client]
    ws.recorder.perm(tid, pool.domain, Perm.RW)
    for request in batch.requests:
        ws.compute(params.compute_per_request)
        if workload.shared_records:
            # Catalog lookup before touching the private record.
            shared = request.rid % len(workload.shared_records)
            ws.mem.read_bytes(workload.shared_records[shared], 0,
                              params.shared_words * 8, tid=tid)
        ws.mem.read_bytes(secret, 0, params.read_words * 8, tid=tid)
        if request.is_write:
            ws.mem.write_bytes(
                secret, params.read_words * 8,
                request.rid.to_bytes(8, "little") * params.write_words,
                tid=tid)
        ws.stack_access(tid=tid, n=params.stack_per_request)
    ws.recorder.perm(tid, pool.domain, Perm.NONE)


def revoke_storm(workload, tid: int) -> None:
    """One mass-revocation sweep by the serving worker."""
    swept = max(1, round(workload.params.n_clients *
                         workload.params.revoke_fraction))
    for pool in workload.pools[:swept]:
        workload.ws.recorder.perm(tid, pool.domain, Perm.NONE)


def serve_objects(workload, plan) -> None:
    """The recorder-driven serve: one Python call per event."""
    params = workload.params
    batches = object_view(plan).batches
    every = params.revoke_every_batches
    #: batch index (plan order) -> storm follows it.
    storm_after = frozenset(
        index for index in range(len(batches))
        if every and (index + 1) % every == 0)

    if max(1, params.workers) == 1:
        tid = workload.worker_tids[0]
        for index, batch in enumerate(batches):
            serve_batch(workload, batch, tid)
            if index in storm_after:
                revoke_storm(workload, tid)
        return

    from repro.os.scheduler import RoundRobinScheduler
    scheduler = RoundRobinScheduler(workload.ws, quantum=params.quantum)
    partitions: List[List[Tuple[Batch, bool]]] = \
        [[] for _ in workload.worker_tids]
    for index, batch in enumerate(batches):
        partitions[batch.worker].append((batch, index in storm_after))

    process = workload.ws.process
    for slot, thread in enumerate(process.threads):
        my_batches = partitions[slot]

        def body(thread=thread, my_batches=my_batches):
            for batch, storm in my_batches:
                serve_batch(workload, batch, thread.tid)
                if storm:
                    revoke_storm(workload, thread.tid)
                yield

        scheduler.spawn(lambda thread, body=body: body(thread=thread),
                        thread)
    scheduler.run()


# -- the tenant profiler's object walk ------------------------------------------------


def profile_tenants(plan, accounting: SchedAccounting,
                    wall_cycles: float) -> List[TenantProfile]:
    """Per-client profiles of one accounted run, sorted by client id.

    ``plan`` supplies the offered stream (batches + rejected + shed);
    ``accounting`` the replayed per-client latency/busy/window data;
    ``wall_cycles`` the accounted wall clock the spans and busy
    fractions normalize against.
    """
    offered: Dict[int, int] = {}
    writes: Dict[int, int] = {}
    first: Dict[int, float] = {}
    last: Dict[int, float] = {}

    def see(request) -> None:
        client = request.client
        offered[client] = offered.get(client, 0) + 1
        if request.is_write:
            writes[client] = writes.get(client, 0) + 1
        arrival = request.arrival
        if client not in first or arrival < first[client]:
            first[client] = arrival
        if client not in last or arrival > last[client]:
            last[client] = arrival

    for batch in plan.batches:
        for request in batch.requests:
            see(request)
    for request in plan.rejected:
        see(request)
    for request in plan.shed:
        see(request)

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
        write_fraction = writes.get(client, 0) / n_offered
        span = last[client] - first[client]
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
