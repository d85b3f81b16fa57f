"""repro.service — a simulated multi-tenant PMO request-serving layer.

The paper motivates intra-process isolation with a server whose clients'
records live in per-client PMOs (the Heartbleed scenario of Section I).
This package makes that server an executable, measurable workload:

* :mod:`~repro.service.params` — one frozen knob set per run;
* :mod:`~repro.service.traffic` — seeded open/closed-loop arrivals with
  Zipfian client popularity and poisson/burst/diurnal rate patterns;
* :mod:`~repro.service.batching` — admission control, domain-aware
  batching (same-client coalescing amortizes permission switches), and
  the per-worker dispatch simulation on a dispatch clock;
* :mod:`~repro.service.closed` — scheme-keyed schedules: a dispatch
  clock calibrated from a marked replay, so ``dispatch="replay"`` runs
  (and the true closed loop) get one deterministic plan per scheme;
* :mod:`~repro.service.server` — executes the plan into an ordinary
  replayable trace (one SETPERM window per batch, deny-by-default);
* :mod:`~repro.service.shard` — splits a service trace into per-worker
  shards so each slot replays on its own simulated core
  (``docs/MULTICORE.md``);
* :mod:`~repro.service.latency` — re-times marked replays onto
  per-worker wall clocks into per-request latency and
  p50/p95/p99/throughput summaries;
* :mod:`~repro.service.sched` — the SLO-driven tenant scheduler:
  pluggable scheduling policies (``static``/``weighted_fair``/
  ``slo_adaptive``) driving admission, dispatch order, and epoch
  rebalancing, plus per-client fairness/SLO accounting and the tenant
  profiler (``docs/SCHEDULING.md``).

See ``docs/SERVICE.md`` for the architecture and the metric contract.
"""

from .batching import DispatchClock, ServicePlan, build_plan
from .closed import (build_plan_keyed, generate_service_trace_keyed,
                     scheme_clock)
from .latency import ServiceSummary, account, account_sharded
from .params import ARRIVALS, BATCHINGS, DISPATCHES, PATTERNS, POLICIES, \
    ServiceParams, nominal_request_cycles
from .sched import (SCHED_POLICIES, SchedAccounting, SchedPolicy,
                    SchedState, TenantProfile, jain_index, policy_names,
                    profile_tenants, register_policy)
from .server import BatchMark, ServiceWorkload, batch_boundaries, \
    batch_markers, generate_service_trace, worker_slots
from .shard import TraceShard, shard_by_worker
from .traffic import (RequestColumns, generate_request_columns,
                      rate_multiplier)

__all__ = [
    "ARRIVALS",
    "BATCHINGS",
    "BatchMark",
    "DISPATCHES",
    "DispatchClock",
    "PATTERNS",
    "POLICIES",
    "RequestColumns",
    "SCHED_POLICIES",
    "SchedAccounting",
    "SchedPolicy",
    "SchedState",
    "ServiceParams",
    "ServicePlan",
    "ServiceSummary",
    "ServiceWorkload",
    "TenantProfile",
    "TraceShard",
    "account",
    "account_sharded",
    "batch_boundaries",
    "batch_markers",
    "build_plan",
    "build_plan_keyed",
    "generate_request_columns",
    "generate_service_trace",
    "generate_service_trace_keyed",
    "jain_index",
    "nominal_request_cycles",
    "policy_names",
    "profile_tenants",
    "rate_multiplier",
    "register_policy",
    "scheme_clock",
    "shard_by_worker",
    "worker_slots",
]
