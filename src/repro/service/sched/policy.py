"""The scheduling-policy plugin registry and the built-in policies.

A **scheduling policy** is the decision core of the service control
loop: the dispatch simulation (:mod:`repro.service.batching`) consults
it at three actuation points —

* **admission** (:meth:`SchedPolicy.admit`) — accept an arrival, bounce
  it off the bounded queue (the pre-existing reject/backoff machinery),
  or *shed* it because the predicted p99 is past the SLO target;
* **selection** (:meth:`SchedPolicy.select`) — which queued request the
  earliest-free worker serves next, chosen inside the batcher's
  ``batch_window`` lookahead (head-of-line for ``static``, least
  normalized service for ``weighted_fair``, affinity-first for
  ``slo_adaptive``);
* **epoch rebalancing** (:meth:`SchedPolicy.rebalance`) — every
  ``sched_epoch_batches`` served batches the control loop folds the
  epoch's per-tenant demand into a profile snapshot and lets the policy
  re-pin clients to worker slots (migrations are counted on the plan).

Hooks see requests as **row indices** into the run's request store:
``state.clients[row]``/``state.arrivals[row]`` are the request's client
and arrival time, and the queue is a list of rows in admission order.

Policies are **stateless singletons** registered in
:data:`SCHED_POLICIES` (exactly like arrival patterns); all mutable
bookkeeping lives in the per-plan :class:`SchedState`, so one policy
instance can plan many runs concurrently.  Every hook is a
deterministic pure function of ``(state, inputs)`` — a policy choice is
part of the params, so each ``(params, scheme)`` pair stays one
content-addressed cacheable trace.

The ``static`` policy reproduces the pre-scheduler dispatch loop
decision for decision; selecting it (or leaving the default) is
bit-identical to the accounting this subsystem replaced — pinned by
``tests/service/test_sched.py`` against an inlined copy of the legacy
loop, and every policy is pinned against the pre-columnar object
planner by ``tests/service/test_planner_oracle.py``.  See
``docs/SCHEDULING.md`` for the policy model and the actuation limits.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from ...registry import Registry

if TYPE_CHECKING:
    from ..params import ServiceParams

#: Scheduling policies (``params.sched_policy``).  Built-ins live in
#: this module; third parties register through ``REPRO_PLUGINS``.
SCHED_POLICIES = Registry("scheduling policy")

#: Admission verdicts.
ADMIT = "admit"
REJECT = "reject"
SHED = "shed"

#: Rolling window of dispatch-clock latency predictions the adaptive
#: policy estimates its p99 from.
PREDICTION_WINDOW = 128
#: Predictions needed before the shedding valve may engage (a cold
#: window must not shed the first arrivals of a run).
MIN_PREDICTIONS = 32


def policy_by_name(name: str) -> "SchedPolicy":
    """The policy registered as ``name``; unknown names raise a
    ``KeyError`` listing every registered policy."""
    return SCHED_POLICIES.get(name)


def policy_names() -> List[str]:
    return SCHED_POLICIES.names()


def register_policy(name: str):
    """Class decorator registering a :class:`SchedPolicy` subclass.

    The registry holds one (stateless) instance, mirroring
    :func:`repro.service.arrivals.register_pattern`.
    """
    def wrap(cls):
        SCHED_POLICIES.register(name)(cls())
        return cls
    return wrap


class SchedState:
    """Mutable control-loop bookkeeping of one dispatch simulation.

    Owned by :func:`repro.service.batching.build_plan`; policies read
    and update it through their hooks.  Everything here is derived from
    the dispatch clock's *predictions* — the replayed (measured)
    latencies exist only after the trace replays, which is why the
    planner-side profile and the post-replay profile
    (:mod:`repro.service.sched.profile`) are separate things.
    """

    __slots__ = ("params", "workers", "clients", "arrivals",
                 "demand", "epoch_demand", "affinity", "predicted", "shed",
                 "migrations", "epochs", "batches_in_epoch",
                 "service_cycles", "service_requests")

    def __init__(self, params: "ServiceParams", workers: int):
        self.params = params
        self.workers = workers
        #: Per-row client and arrival time of the request store, as
        #: Python lists (the closed loop appends as it issues).
        self.clients: List[int] = []
        self.arrivals: List[float] = []
        #: client -> dispatch-clock service cycles received so far.
        self.demand: Dict[int, float] = {}
        #: client -> service cycles received this epoch.
        self.epoch_demand: Dict[int, float] = {}
        #: client -> pinned worker slot (empty = no affinity).
        self.affinity: Dict[int, int] = {}
        #: Recent predicted request latencies (completion - arrival).
        self.predicted: Deque[float] = deque(maxlen=PREDICTION_WINDOW)
        #: Rows dropped by the policy's SLO valve (queue-full rejects
        #: are ``PlanColumns.rejected_rows``).
        self.shed: List[int] = []
        #: Affinity re-pins applied at epoch boundaries.
        self.migrations = 0
        #: Epoch boundaries the control loop evaluated.
        self.epochs = 0
        self.batches_in_epoch = 0
        #: Pure service time dispatched so far (completion - start sums)
        #: and the requests it covered — the backlog estimator's rate.
        self.service_cycles = 0.0
        self.service_requests = 0

    def fold_batch(self, client: int, members: List[int], start: float,
                   completion: float) -> None:
        """Fold one dispatched batch (member rows) into the profile."""
        cycles = completion - start
        self.demand[client] = self.demand.get(client, 0.0) + cycles
        self.epoch_demand[client] = \
            self.epoch_demand.get(client, 0.0) + cycles
        arrivals = self.arrivals
        for row in members:
            self.predicted.append(completion - arrivals[row])
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
        """Predicted latency of an arrival joining a ``depth``-deep queue.

        The backlog ahead of it, costed at the dispatch clock's observed
        mean per-request service time and drained by ``workers`` slots.
        Unlike the rolling :meth:`predicted_p99` window this responds
        *instantly* when shedding drains the queue — it is what keeps
        the SLO valve from latching shut under sustained overload.
        ``None`` until at least one batch completed.
        """
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
    """Base policy: the exact decisions of the pre-scheduler loop.

    Subclasses override individual hooks; everything they do not
    override behaves like ``static``.  ``uses_epochs`` gates the epoch
    machinery so policies without a control loop pay nothing for it
    (and ``static`` plans keep ``epochs == migrations == 0``).  The
    dispatch loops inline the base :meth:`admit`/:meth:`select` for
    policies that do not override them, and skip the per-batch profile
    fold when no hook could read it.
    """

    #: Whether the dispatch loop should run epoch boundaries at all.
    uses_epochs = False

    def admit(self, state: SchedState, row: int, queue: List[int]) -> str:
        """Admission verdict for the arrival ``row`` (bounded-queue
        default)."""
        params = state.params
        if params.max_queue and len(queue) >= params.max_queue:
            return REJECT
        return ADMIT

    def select(self, state: SchedState, queue: List[int],
               slot: int) -> int:
        """Index (within the ``batch_window`` lookahead) of the queued
        row the worker on ``slot`` serves next."""
        return 0

    def rebalance(self, state: SchedState,
                  epoch_demand: Dict[int, float]) -> Dict[int, int]:
        """New client -> worker affinity map for the next epoch."""
        return state.affinity

    # -- shared helpers ----------------------------------------------------------

    def _window(self, state: SchedState, queue: List[int]) -> List[int]:
        return queue[:min(len(queue), state.params.batch_window)]

    def _fairest(self, state: SchedState, window: List[int]) -> int:
        """Lookahead index whose client received the least service.

        Ties break on queue position, so equally-served clients are
        still FIFO — and a cold start (nobody served yet) degrades to
        head-of-line exactly like ``static``.
        """
        clients = state.clients
        return min(range(len(window)),
                   key=lambda i: (state.demand.get(clients[window[i]], 0.0),
                                  i))


@register_policy("static")
class StaticPolicy(SchedPolicy):
    """Today's behavior: head-of-line dispatch, bounded-queue admission,
    no epochs — bit-identical to the pre-scheduler planner."""


@register_policy("weighted_fair")
class WeightedFairPolicy(SchedPolicy):
    """Fair queueing across tenants: the earliest-free worker serves the
    queued client with the least accumulated service cycles.

    Hot Zipf-head tenants can no longer monopolize the workers — a
    long-tail client's request is picked ahead of the tenth queued
    request of a hot client even though it arrived later.  Weights are
    uniform here (plain fair queueing); a plugin policy can subclass and
    override :meth:`_fairest` to weight the virtual time.
    """

    def select(self, state: SchedState, queue: List[int],
               slot: int) -> int:
        return self._fairest(state, self._window(state, queue))


@register_policy("slo_adaptive")
class SloAdaptivePolicy(SchedPolicy):
    """The SLO control loop: fair selection with worker affinity,
    epoch rebalancing, and a predictive load-shedding valve.

    * **Shedding** — an arrival is shed instead of queued when the
      rolling predicted p99 (dispatch-clock completions minus arrivals,
      :meth:`SchedState.predicted_p99`) exceeds ``params.slo_p99_cycles``
      *and* the arrival's own backlog-based latency estimate
      (:meth:`SchedState.predicted_latency`) also misses the target —
      the second condition reopens the valve the moment shedding has
      drained the queue, so sustained overload degrades to serving at
      capacity rather than shedding everything.  Open loop drops the
      request (counted on the plan); the closed loop defers it through
      the existing backoff/retry machinery.  With ``slo_p99_cycles ==
      0`` the valve never engages.
    * **Rebalancing** — every epoch, clients are re-pinned to workers by
      a greedy least-loaded assignment over the epoch's demand (hot
      tenants spread first), and :meth:`select` serves the *first*
      queued request of a client pinned to the asking worker — falling
      back to head-of-line when none are queued, so workers never idle
      while work waits (work conservation).  Selection stays FIFO
      within each affinity class on purpose: FIFO bounds the tail wait
      at backlog x mean service — exactly what the shedding estimator
      assumes — and keeps the batcher's same-client coalescing runs
      intact (fair interleaving fragments them into extra permission
      windows, which is the ``weighted_fair`` trade, not this one).
    """

    uses_epochs = True

    def admit(self, state: SchedState, row: int, queue: List[int]) -> str:
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

    def select(self, state: SchedState, queue: List[int],
               slot: int) -> int:
        window = self._window(state, queue)
        if state.affinity:
            clients = state.clients
            mine = [i for i, row in enumerate(window)
                    if state.affinity.get(clients[row]) == slot]
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
