"""Service experiment — multi-tenant serving performance across schemes.

Sweeps the client population of the :mod:`repro.service` server and
compares protection schemes on *serving* metrics — throughput and
p50/p95/p99 request latency — rather than raw replay overhead.  This is
the paper's motivating scenario run forward: one domain per client, so
growing the client count is exactly the domain-count sweep of Figure 6,
but measured at the request level where queueing amplifies per-switch
costs into tail latency.

Two loop modes:

* ``--loop open`` (default) with ``--dispatch nominal``: one fixed
  nominal-clock schedule shared by every scheme, re-timed per scheme
  onto per-worker wall clocks — one trace per client count;
* ``--loop closed`` (implies ``--dispatch replay`` unless overridden):
  dispatch is driven by scheme-calibrated completions, so every scheme
  gets its *own* deterministic schedule/trace
  (``WorkloadSpec.keyed``) and completions gate when clients issue
  again — the queueing feedback a real server exhibits.

``--arrivals burst|diurnal`` modulates the offered rate over time
(composable with either loop).  Scheme names accept the serving-layer
aliases ``mpkv`` (MPK virtualization), ``dv`` (domain virtualization)
and ``pks`` (sealable keys) alongside the canonical registry names.
Hard-limited schemes — any whose
:class:`~repro.core.schemes.CostDescriptor` declares
``collapse="fault"``, i.e. plain ``mpk`` and ``erim`` — are allowed and
*expected to fail* past their key space; the limit is reported as a
row, not an exception, because hitting that wall is the finding.

CLI::

    python -m repro.experiments service --clients 8,64,256 --schemes mpkv,dv
    python -m repro.experiments service --loop=closed --arrivals=burst
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.schemes import (SCHEME_ALIASES, hard_domain_limit,
                            resolve_scheme, scheme_descriptor)
from ..errors import PkeyError
from ..registry import RegistryKeyError
from ..scenario import Scenario, compile_scenario
from ..scenario.spec import ScenarioError
from ..service import (ServiceSummary, account, account_sharded,
                       batch_boundaries, build_plan, build_plan_keyed,
                       shard_by_worker)
from .reporting import format_table
from .runner import ExperimentRunner

__all__ = ["SCHEME_ALIASES", "resolve_scheme", "summaries_for_spec",
           "run_service", "report_service", "refuse_serialized_shards",
           "main", "DEFAULT_CLIENTS", "DEFAULT_SCHEMES",
           "SMOKE_CLIENTS", "SMOKE_REQUESTS", "ENV_SERIAL_SHARDS"]

#: Client counts of the default sweep (one domain per client).
DEFAULT_CLIENTS = (8, 64, 256, 1024)
#: Schemes compared by default: the paper's two proposals.
DEFAULT_SCHEMES = ("mpkv", "dv")
#: Shrunk sweep under ``REPRO_SMOKE=1`` (CI exercises the modes, not
#: the scale).
SMOKE_CLIENTS = (6, 12)
SMOKE_REQUESTS = 160


def _accounted(engine, spec, plan, trace, canonical, config, frequency, *,
               include_baseline=True):
    """Replay canonical scheme names over one plan/trace and account them.

    With one worker this is the classic path — one marked replay of the
    whole trace per scheme.  With more, the trace splits into one shard
    per worker slot (:func:`~repro.service.shard.shard_by_worker`), each
    replaying on its own simulated core, and the per-shard results merge
    back through :func:`~repro.service.latency.account_sharded` — the
    path where MPKV/libmpk accrue cross-core shootdown attribution
    (``docs/MULTICORE.md``).
    """
    if max(1, spec.params.workers) > 1:
        shards = shard_by_worker(trace)
        cell = engine.replay_shards(shards, canonical, config,
                                    include_baseline=include_baseline)
        return {name: account_sharded(plan, shards, cell[name],
                                      frequency_hz=frequency)
                for name in canonical}
    cell = engine.replay(spec, canonical, config,
                         marks=batch_boundaries(trace),
                         include_baseline=include_baseline)
    return {name: account(plan, trace, cell[name], frequency_hz=frequency)
            for name in canonical}


def _fragile(names: Sequence[str]) -> List[str]:
    """Names of hard-limited schemes (descriptor ``collapse="fault"``).

    These fault once the trace's domains outrun their key space, so
    they always replay separately — one wall must not kill the batch.
    """
    return [n for n in names if hard_domain_limit(n) is not None]


def _summaries_nominal(engine, spec, names, config, frequency):
    """One shared schedule/trace, every scheme re-timed onto it."""
    plan = build_plan(spec.params)
    trace = engine.trace_for(spec)
    row: Dict[str, Optional[ServiceSummary]] = {}
    fragile = _fragile(names)
    sturdy = [n for n in names if n not in fragile]
    if sturdy:
        cell = _accounted(engine, spec, plan, trace,
                          [resolve_scheme(n) for n in sturdy], config,
                          frequency)
        for name in sturdy:
            row[name] = cell[resolve_scheme(name)]
    for name in fragile:
        canonical = resolve_scheme(name)
        try:
            cell = _accounted(engine, spec, plan, trace, [canonical],
                              config, frequency, include_baseline=False)
            row[name] = cell[canonical]
        except PkeyError:
            row[name] = None
    engine.release(spec)
    return row


def _summaries_keyed(engine, spec, names, config, frequency):
    """One schedule/trace *per scheme* (``dispatch="replay"``)."""
    row: Dict[str, Optional[ServiceSummary]] = {}
    fragile = _fragile(names)
    sturdy = [n for n in names if n not in fragile]

    if max(1, spec.params.workers) > 1:
        # Sharded replay goes variant by variant: each scheme's keyed
        # trace splits into its own per-worker shards.
        def keyed_sharded(name: str) -> ServiceSummary:
            canonical = resolve_scheme(name)
            vspec = spec.keyed(canonical)
            plan = build_plan_keyed(spec.params, canonical)
            cell = _accounted(engine, vspec, plan, engine.trace_for(vspec),
                              [canonical], config, frequency)
            engine.release(vspec)
            return cell[canonical]

        for name in sturdy:
            row[name] = keyed_sharded(name)
        for name in fragile:
            try:
                row[name] = keyed_sharded(name)
            except PkeyError:
                row[name] = None
        return row

    def account_keyed(name: str, stats) -> ServiceSummary:
        canonical = resolve_scheme(name)
        vspec = spec.keyed(canonical)
        plan = build_plan_keyed(spec.params, canonical)
        summary = account(plan, engine.trace_for(vspec), stats,
                          frequency_hz=frequency)
        engine.release(vspec)
        return summary

    if sturdy:
        cell = engine.replay_marked_keyed(
            spec, [resolve_scheme(n) for n in sturdy], config)
        for name in sturdy:
            row[name] = account_keyed(name, cell[resolve_scheme(name)])
    for name in fragile:
        # The calibration replay itself hits the key wall, so the
        # failure surfaces at trace generation rather than replay.
        canonical = resolve_scheme(name)
        try:
            cell = engine.replay_marked_keyed(spec, [canonical], config,
                                              include_baseline=False)
            row[name] = account_keyed(name, cell[canonical])
        except PkeyError:
            row[name] = None
    return row


def summaries_for_spec(runner: ExperimentRunner, spec, names: Sequence[str],
                       *, config=None
                       ) -> Dict[str, Optional[ServiceSummary]]:
    """Serving summaries of one compiled service spec, per scheme name.

    The scenario executor's entry point for ``runner: service``
    workload families; ``names`` may be aliases (``mpkv``/``dv``/
    ``pks``) and key the result as given.  ``None`` marks a scheme that
    cannot run at this client count (a hard-limited scheme — ``mpk``,
    ``erim`` — beyond its key space).
    """
    config = config or runner.config
    frequency = config.processor.frequency_hz
    summaries = _summaries_keyed if spec.params.dispatch == "replay" \
        else _summaries_nominal
    return summaries(runner.engine, spec, list(dict.fromkeys(names)),
                     config, frequency)


def scenario_document(clients: Sequence[int], schemes: Sequence[str],
                      overrides: Dict[str, object]) -> Dict[str, object]:
    """The service sweep as a declarative scenario document."""
    return {
        "scenario": "service-sweep",
        "title": "Service: multi-tenant PMO serving",
        "workload": "service",
        "params": dict(overrides),
        "schemes": list(schemes),
        "sweep": {"n_clients": list(clients)},
        "report": "service",
    }


def run_service(runner: Optional[ExperimentRunner] = None, *,
                clients: Sequence[int] = DEFAULT_CLIENTS,
                schemes: Sequence[str] = DEFAULT_SCHEMES,
                **overrides
                ) -> Dict[int, Dict[str, Optional[ServiceSummary]]]:
    """Returns client count -> scheme (as given) -> summary.

    ``None`` marks a scheme that cannot run at that client count (a
    hard-limited scheme beyond its key space).  ``overrides`` are
    :class:`~repro.service.ServiceParams` fields and become part of the
    trace-cache identity; ``dispatch="replay"`` switches every row to
    scheme-keyed schedules.

    The sweep is expressed as a scenario document and compiled through
    :mod:`repro.scenario`, so the CLI sweep and a bundled scenario file
    with the same knobs produce byte-identical specs (and share cached
    traces).
    """
    runner = runner or ExperimentRunner()
    names = list(dict.fromkeys(schemes))
    compiled = compile_scenario(
        Scenario.from_document(scenario_document(clients, names, overrides)),
        smoke=False, scale=runner.scale, base_config=runner.config)
    out: Dict[int, Dict[str, Optional[ServiceSummary]]] = {}
    for cell in compiled.cells:
        row = summaries_for_spec(runner, cell.spec, compiled.schemes,
                                 config=cell.config)
        out[cell.axes_dict["n_clients"]] = \
            {name: row[name] for name in compiled.schemes}
    return out


def report_service(runner: Optional[ExperimentRunner] = None, *,
                   clients: Sequence[int] = DEFAULT_CLIENTS,
                   schemes: Sequence[str] = DEFAULT_SCHEMES,
                   **overrides) -> str:
    data = run_service(runner, clients=clients, schemes=schemes, **overrides)
    headers = ["Clients", "Scheme", "Served", "Rejected", "Shed",
               "Batches", "Switches", "XCore (cyc)", "Busy %", "Fair",
               "SLO %", "p50 (cyc)", "p95 (cyc)", "p99 (cyc)",
               "Throughput (req/s)"]
    rows: List[List[object]] = []
    for n_clients, per_scheme in data.items():
        for name, summary in per_scheme.items():
            if summary is None:
                rows.append([n_clients, name, "-", "-", "-", "-", "-", "-",
                             "-", "-", "-", "-", "-", "-",
                             scheme_descriptor(name).fail_label])
                continue
            rows.append([
                n_clients, name, summary.n_served, summary.n_rejected,
                summary.n_shed, summary.n_batches, summary.perm_switches,
                summary.cross_core_shootdown_cycles,
                round(100.0 * summary.busy_fraction, 1),
                round(summary.fairness, 3),
                round(100.0 * summary.slo_attainment, 1),
                summary.p50, summary.p95, summary.p99,
                summary.throughput_rps])
    loop = overrides.get("arrival", "open")
    dispatch = overrides.get("dispatch", "nominal")
    pattern = overrides.get("pattern", "poisson")
    workers = overrides.get("workers", 1)
    policy = overrides.get("sched_policy", "static")
    return format_table(
        f"Service: multi-tenant PMO serving (one domain per client, "
        f"{loop} loop, {dispatch} dispatch, {pattern} arrivals, "
        f"{workers} worker{'s' if workers != 1 else ''}, "
        f"{policy} policy)",
        headers, rows)


# -- CLI ---------------------------------------------------------------------------

#: Opt-in: accept ``--workers N`` beyond ``REPRO_JOBS`` and replay the
#: shards serially in one process (same results, no parallel speedup).
ENV_SERIAL_SHARDS = "REPRO_SERIAL_SHARDS"


def refuse_serialized_shards(workers: int) -> Optional[str]:
    """The error message refusing an under-provisioned multi-core run.

    A ``workers > 1`` service run replays one trace shard per worker
    slot, fanned out over the ``REPRO_JOBS`` fork pool — the whole point
    is that a 64-worker service run is a 64-way parallel replay.  When
    the pool is smaller than the shard count, the shards still replay
    correctly (results are executor-independent) but serialize silently,
    so the CLI refuses unless ``REPRO_SERIAL_SHARDS=1`` opts in to the
    documented fallback (``docs/MULTICORE.md``).  Returns ``None`` when
    the configuration is fine.
    """
    from ..engine.executor import worker_count
    jobs = worker_count(None)
    if workers <= 1 or workers <= jobs:
        return None
    raw = os.environ.get(ENV_SERIAL_SHARDS, "").strip().lower()
    if raw not in ("", "0", "false", "off", "no"):
        return None
    return (
        f"error: --workers {workers} exceeds the replay pool "
        f"(REPRO_JOBS={jobs}); the per-worker shards would replay "
        f"serially in one process.\n"
        f"Set REPRO_JOBS>={workers} to run one shard per process, or "
        f"set REPRO_SERIAL_SHARDS=1 to accept serialized shard replay "
        f"(identical results, no parallel speedup) — see "
        f"docs/MULTICORE.md.")


def _csv_ints(raw: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part)


def _csv_names(raw: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments service",
        description="Compare protection schemes on the multi-tenant "
                    "PMO serving workload.")
    parser.add_argument("--clients", type=_csv_ints,
                        default=DEFAULT_CLIENTS, metavar="N,N,...",
                        help="client counts to sweep (default: %(default)s)")
    parser.add_argument("--schemes", type=_csv_names,
                        default=DEFAULT_SCHEMES, metavar="S,S,...",
                        help="schemes to compare; aliases: mpkv=mpk_virt, "
                             "dv=domain_virt, pks=pks_seal "
                             "(default: %(default)s)")
    parser.add_argument("--requests", type=int, default=None,
                        help="offered requests per run (default: "
                             "ServiceParams.n_requests)")
    parser.add_argument("--loop", choices=("open", "closed"),
                        default=None,
                        help="arrival loop; --loop=closed implies "
                             "--dispatch=replay (scheme-keyed schedules) "
                             "unless --dispatch says otherwise")
    parser.add_argument("--dispatch", choices=("nominal", "replay"),
                        default=None,
                        help="dispatch clock: nominal = one fixed schedule "
                             "for all schemes; replay = per-scheme "
                             "calibrated schedules")
    parser.add_argument("--arrivals", default=None, dest="pattern",
                        metavar="PATTERN",
                        help="arrival-rate pattern over time (from the "
                             "arrival-pattern registry; unknown names "
                             "print the registered roster)")
    parser.add_argument("--policy", default=None, dest="sched_policy",
                        metavar="POLICY",
                        help="scheduling policy (from the sched-policy "
                             "registry: static, weighted_fair, "
                             "slo_adaptive, plugins; unknown names print "
                             "the registered roster)")
    parser.add_argument("--slo", type=float, default=None,
                        dest="slo_p99_cycles", metavar="CYCLES",
                        help="p99 SLO target in cycles for the adaptive "
                             "policy's shedding valve and the "
                             "SLO-attainment column (0 = no SLO)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker threads serving batches")
    parser.add_argument("--arrival", choices=("open", "closed"),
                        default=None, help=argparse.SUPPRESS)  # legacy alias
    parser.add_argument("--batching", choices=("none", "client"),
                        default=None, help="batching policy")
    parser.add_argument("--seed", type=int, default=None,
                        help="traffic seed")
    args = parser.parse_args(argv)
    overrides = {}
    if args.requests is not None:
        overrides["n_requests"] = args.requests
    loop = args.loop or args.arrival
    if loop is not None:
        overrides["arrival"] = loop
        if args.loop == "closed" and args.dispatch is None:
            overrides["dispatch"] = "replay"
    if args.dispatch is not None:
        overrides["dispatch"] = args.dispatch
    if args.pattern is not None:
        overrides["pattern"] = args.pattern
    if args.sched_policy is not None:
        overrides["sched_policy"] = args.sched_policy
    if args.slo_p99_cycles is not None:
        if args.slo_p99_cycles < 0:
            parser.error(f"--slo must be >= 0, got {args.slo_p99_cycles}")
        overrides["slo_p99_cycles"] = args.slo_p99_cycles
    if args.workers is not None:
        if args.workers < 1:
            parser.error(f"--workers must be >= 1, got {args.workers}")
        error = refuse_serialized_shards(args.workers)
        if error:
            print(error, file=sys.stderr)
            return 2
        overrides["workers"] = args.workers
    if args.batching is not None:
        overrides["batching"] = args.batching
    if args.seed is not None:
        overrides["seed"] = args.seed
    smoke = os.environ.get("REPRO_SMOKE", "").strip().lower()
    if smoke not in ("", "0", "false", "off", "no"):
        if args.clients is DEFAULT_CLIENTS:
            args.clients = SMOKE_CLIENTS
        overrides.setdefault("n_requests", SMOKE_REQUESTS)
    try:
        report = report_service(clients=args.clients, schemes=args.schemes,
                                **overrides)
    except (RegistryKeyError, ScenarioError, ValueError) as error:
        # Unknown plugin names (scheme, arrival pattern, scheduling
        # policy) all carry the registered roster in their message —
        # print it like the scenario CLI does instead of a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI convenience
    import sys
    sys.exit(main())
