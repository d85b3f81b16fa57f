"""The columnar planner against the retired object planner.

Both dispatch loops (open stream and closed feedback) must make the
decisions the per-object planner made — for every built-in policy, at
several worker counts, with and without same-client coalescing — down
to the member order inside each batch, the queue-full rejects, the SLO
sheds and the control loop's epoch/migration counters.  The reference
is the verbatim pre-columnar planner in :mod:`tests.service.legacy`.
"""

from dataclasses import replace

import pytest

from repro.engine import replay_one
from repro.service import (DispatchClock, ServiceParams, account,
                           batch_boundaries, build_plan, profile_tenants)
from repro.service.server import ServiceWorkload
from repro.sim.config import DEFAULT_CONFIG

from . import legacy

#: A contended churn cell where the queue bound rejects, the SLO valve
#: sheds (slo_adaptive) and epochs re-pin tenants.
OPEN = ServiceParams(n_clients=16, n_requests=300, pattern="churn",
                     churn_period_cycles=20000.0, interarrival_cycles=100.0,
                     max_queue=8, slo_p99_cycles=500.0,
                     sched_epoch_batches=8)
#: The closed feedback loop on a fixed calibrated clock (no replay).
CLOSED = replace(OPEN, arrival="closed", dispatch="replay",
                 think_cycles=1000.0, max_queue=4)
CLOCK = DispatchClock(scheme="fixed", window_cycles=150.0,
                      per_request_cycles=320.0)


def plan_signature(plan):
    """Every decision of a columnar plan, as plain lists."""
    cols = plan.columns
    rids = cols.requests.rids
    return {
        "members": rids[cols.member_rows].tolist(),
        "sizes": cols.batch_sizes().tolist(),
        "clients": cols.batch_clients.tolist(),
        "workers": cols.batch_workers.tolist(),
        "rejected": rids[cols.rejected_rows].tolist(),
        "shed": rids[cols.shed_rows].tolist(),
        "migrations": plan.migrations,
        "epochs": plan.epochs,
        "loop_iterations": plan.loop_iterations,
    }


def legacy_signature(plan):
    """The same decisions read off an object plan."""
    return {
        "members": [r.rid for b in plan.batches for r in b.requests],
        "sizes": [len(b.requests) for b in plan.batches],
        "clients": [b.client for b in plan.batches],
        "workers": [b.worker for b in plan.batches],
        "rejected": [r.rid for r in plan.rejected],
        "shed": [r.rid for r in plan.shed],
        "migrations": plan.migrations,
        "epochs": plan.epochs,
        "loop_iterations": plan.loop_iterations,
    }


@pytest.mark.parametrize("batching", ["client", "none"])
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("loop", ["open", "closed"])
@pytest.mark.parametrize("policy", ["static", "weighted_fair",
                                    "slo_adaptive"])
def test_columnar_planner_equals_object_planner(policy, loop, workers,
                                                batching):
    base = OPEN if loop == "open" else CLOSED
    params = replace(base, sched_policy=policy, workers=workers,
                     batching=batching)
    clock = CLOCK if loop == "closed" else None
    current = plan_signature(build_plan(params, clock))
    assert current == legacy_signature(legacy.build_plan(params, clock))


@pytest.mark.parametrize("loop", ["open", "closed"])
def test_matrix_exercises_every_outcome(loop):
    """The oracle matrix is only worth its cases if the control loop
    actually rejects, sheds and re-pins on them."""
    base = OPEN if loop == "open" else CLOSED
    params = replace(base, sched_policy="slo_adaptive", workers=2)
    plan = build_plan(params, CLOCK if loop == "closed" else None)
    assert plan.n_rejected > 0
    assert len(plan.shed) > 0
    assert plan.epochs > 0 and plan.migrations > 0


def test_profile_tenants_equals_the_object_walk():
    params = replace(OPEN, sched_policy="slo_adaptive", workers=2)
    plan = build_plan(params)
    assert len(plan.shed) and plan.n_rejected
    workload = ServiceWorkload(params)
    workload.serve(plan)
    trace = workload.finish()
    stats = replay_one(trace, "mpk_virt", marks=batch_boundaries(trace))
    summary = account(plan, trace, stats,
                      frequency_hz=DEFAULT_CONFIG.processor.frequency_hz)
    columnar = profile_tenants(plan, summary.sched, summary.wall_cycles)
    objects = legacy.profile_tenants(legacy.object_view(plan),
                                     summary.sched, summary.wall_cycles)
    assert columnar == objects
    assert any("churn_prone" in profile.classes for profile in columnar)
