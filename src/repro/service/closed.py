"""Scheme-keyed scheduling: calibrate a dispatch clock from a replay.

``dispatch="replay"`` service runs cannot share one schedule across
schemes — how long a scheme takes to serve a batch decides *which*
requests queue behind it (and, in the closed loop, when clients issue
again).  This module closes that loop while keeping every trace a pure
function of ``(ServiceParams, scheme)``:

1. build a small, scheme-agnostic **calibration run** — same per-request
   work and batching knobs, but open-loop Poisson arrivals, one worker,
   an unbounded queue, and a capped request budget — and replay it
   marked under the target scheme;
2. least-squares fit the per-batch completion deltas to
   ``window + n * per_request`` (a
   :class:`~repro.service.batching.DispatchClock`);
3. drive the dispatch simulation of the *real* params with that clock
   (:func:`build_plan_keyed`) and execute the plan into a trace
   (:func:`generate_service_trace_keyed`).

The calibration replays under :data:`~repro.sim.config.DEFAULT_CONFIG`
on purpose: a spec's identity (and so its cache key) covers params +
scheme but not the replay-time ``SimConfig``, so the schedule must not
depend on one.  Config sweeps still re-time the same keyed schedule,
exactly as nominal-dispatch runs do.

Everything is deterministic, so each ``(params, scheme)`` pair stays a
content-addressed, cacheable trace (``WorkloadSpec.keyed``); a
module-level memo keeps the calibration replay from being paid twice
when the driver rebuilds the plan the engine's generator already built.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from ..core.schemes import hard_domain_limit
from ..cpu.trace import Trace
from ..errors import PkeyError, SimulationError
from ..workloads.base import Workspace
from .batching import DispatchClock, ServicePlan, build_plan
from .params import ServiceParams

#: Request budget of a calibration run — enough batches for a stable
#: two-parameter fit, small enough to be a footnote next to the real run.
CALIBRATION_REQUESTS = 240

#: (calibration params, scheme) -> fitted clock.  Process-local; entries
#: are tiny (two floats) and the key is the full frozen params, so there
#: is nothing to invalidate.
_CLOCK_MEMO: Dict[Tuple[ServiceParams, str], DispatchClock] = {}


def calibration_params(params: ServiceParams) -> ServiceParams:
    """The scheme-probing variant of ``params``.

    Keeps everything that shapes per-batch cost (request work, batching
    knobs, client count — domain spread matters to the schemes) and
    neutralizes everything that shapes the *schedule* (pattern, loop
    discipline, worker pool, admission) so the probe measures cost, not
    queueing.
    """
    # sched knobs are schedule-shaping too: calibrating under the run's
    # policy would both skew the fit (shedding drops batches) and split
    # the clock memo per policy — probe under static with no SLO so all
    # policies of one (params, scheme) pair share one calibrated clock.
    return replace(
        params, dispatch="nominal", arrival="open", pattern="poisson",
        n_requests=min(params.n_requests, CALIBRATION_REQUESTS),
        workers=1, max_queue=0, sched_policy="static", slo_p99_cycles=0.0)


def scheme_clock(params: ServiceParams, scheme: str) -> DispatchClock:
    """The calibrated dispatch clock of ``scheme`` under ``params``."""
    limit = hard_domain_limit(scheme)
    if limit is not None and params.n_clients > limit:
        # One domain per client: a hard-limited scheme (descriptor
        # collapse="fault") cannot even finish the calibration probe, so
        # fail before generating a doomed trace.
        raise PkeyError(
            f"scheme {scheme!r} supports at most {limit} domains "
            f"({params.n_clients} clients requested)")
    probe = calibration_params(params)
    key = (probe, scheme)
    clock = _CLOCK_MEMO.get(key)
    if clock is None:
        clock = _CLOCK_MEMO[key] = _calibrate(probe, scheme)
    return clock


def _calibrate(probe: ServiceParams, scheme: str) -> DispatchClock:
    from ..engine.context import replay_one
    from .server import ServiceWorkload, batch_boundaries
    plan = build_plan(probe)
    if not plan.columns.n_batches:
        raise SimulationError("calibration run produced no batches")
    workload = ServiceWorkload(probe)
    workload.serve(plan)
    trace = workload.finish()
    stats = replay_one(trace, scheme, marks=batch_boundaries(trace))
    sizes = plan.batch_sizes().tolist()
    deltas: List[float] = []
    previous = 0.0
    for elapsed in stats.mark_cycles:
        deltas.append(elapsed - previous)
        previous = elapsed
    window, per_request = _fit(sizes, deltas)
    return DispatchClock(scheme=scheme, window_cycles=window,
                         per_request_cycles=per_request)


def _fit(sizes: List[int], deltas: List[float]) -> Tuple[float, float]:
    """Least-squares ``delta ~ window + size * per_request``.

    Durations must stay positive for the dispatch loop to make progress,
    so the slope is floored at one cycle per request; a degenerate fit
    (every batch the same size) folds everything into the slope.
    """
    n = len(sizes)
    s_n = float(sum(sizes))
    s_d = sum(deltas)
    s_nn = float(sum(size * size for size in sizes))
    s_nd = sum(size * delta for size, delta in zip(sizes, deltas))
    denominator = n * s_nn - s_n * s_n
    if denominator == 0.0:
        return 0.0, max(s_d / s_n if s_n else 0.0, 1.0)
    per_request = (n * s_nd - s_n * s_d) / denominator
    window = (s_d - per_request * s_n) / n
    return max(window, 0.0), max(per_request, 1.0)


def build_plan_keyed(params: ServiceParams, scheme: str) -> ServicePlan:
    """The scheme's own deterministic schedule for ``params``."""
    if params.dispatch != "replay":
        raise SimulationError(
            f"build_plan_keyed needs dispatch='replay' params "
            f"(got dispatch={params.dispatch!r}); nominal-dispatch plans "
            f"are scheme-agnostic — use build_plan(params)")
    return build_plan(params, clock=scheme_clock(params, scheme))


def generate_service_trace_keyed(params: ServiceParams,
                                 scheme: str) -> Tuple[Trace, Workspace]:
    """Build the server, execute the scheme's plan, return (trace, ws).

    The engine's entry point for scheme-keyed specs
    (``WorkloadSpec.keyed``) — same shape as
    :func:`~repro.service.server.generate_service_trace`.
    """
    from .server import ServiceWorkload
    plan = build_plan_keyed(params, scheme)
    workload = ServiceWorkload(params)
    workload.serve(plan)
    return workload.finish(), workload.ws
