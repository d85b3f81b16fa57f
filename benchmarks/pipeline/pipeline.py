"""One round of the pipeline benchmark: a workload pass, timed and checked.

``run.py`` spawns this script once per (workload, round), each in a
fresh interpreter, so every round pays what a CLI invocation pays —
imports, registry discovery, calibration, the replay radiograph — with
no memo carried over from an earlier round::

    PYTHONPATH=src python benchmarks/pipeline/pipeline.py svc_open_1w \\
        --seed 7 [--smoke] [--trace]

The pass calls the layers' public functions directly, wired the way
``repro.experiments.service`` (``_accounted``, ``_summaries_nominal``,
``_summaries_keyed``) and ``repro.scenario.run`` wire them, so that each
call can be timed as one span.  The round prints one JSON record as its
last stdout line: setup and wall time, the event counts behind
``sim_events_per_s``, peak RSS, one digest per output row with any
correctness problems, and — when traced — the spans and the per-layer
metrics derived from them.
"""

from __future__ import annotations

import time

#: Fallback start stamp when the parent passes no ``--t0``.
_IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

from repro.core.schemes import (resolve_scheme, scheme_by_name,  # noqa: E402
                                supports_domain_count)
from repro.cpu.fast_timing import (kernel_for,  # noqa: E402
                                   supports_fast_replay)
from repro.engine import replay_one  # noqa: E402
from repro.errors import PkeyError  # noqa: E402
from repro.service import (ServiceParams, ServiceWorkload,  # noqa: E402
                           account, account_sharded, batch_boundaries,
                           build_plan, scheme_clock, shard_by_worker)
from repro.sim.config import DEFAULT_CONFIG, SimConfig  # noqa: E402
from repro.sim.simulator import (MULTI_PMO_SCHEMES,  # noqa: E402
                                 viable_schemes)
from repro.workloads.micro import (MicroParams,  # noqa: E402
                                   generate_micro_trace)

from spans import Spans, layer_table, self_times  # noqa: E402

BASELINE = "baseline"
#: Kernel families of ``repro.cpu.fast_timing.kernel_for``.
FAMILIES = ("codes", "dv", "mpk", "swtable")


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: params, roster, and its smoke variant."""

    name: str
    #: ``service`` (ServiceParams) or ``micro`` (MicroParams).
    suite: str
    params: Dict[str, object]
    #: Overrides of the ``--smoke`` variant (about 20x less work).
    smoke: Dict[str, object]
    roster: Tuple[str, ...]
    #: Micro benchmarks run one after the other (micro suite only).
    benchmarks: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Replay-dominated; all four kernel families; mpk and erim FAIL at
    # 64 tenants.  One shared nominal trace (_summaries_nominal).
    Workload("svc_open_1w", "service",
             {"n_clients": 64, "n_requests": 60_000},
             {"n_requests": 3_000},
             ("mpk", "erim", "libmpk", "mpk_virt", "pks_seal",
              "domain_virt", "dpti", "poe2")),
    # The object planner (slo_adaptive) plus shard_by_worker and
    # account_sharded on four simulated cores.
    Workload("svc_churn_4w_slo", "service",
             {"n_clients": 64, "n_requests": 40_000, "workers": 4,
              "pattern": "churn", "churn_period_cycles": 40000.0,
              "sched_policy": "slo_adaptive", "slo_p99_cycles": 20000.0,
              "sched_epoch_batches": 16},
             {"n_requests": 2_000},
             ("mpk_virt", "domain_virt")),
    # Calibration, the closed-feedback planner and one keyed trace per
    # scheme block the result (_summaries_keyed); mpk FAILs at
    # calibration, erim fits its 16 keys.
    Workload("svc_closed_keyed", "service",
             {"n_clients": 16, "n_requests": 16_000, "arrival": "closed",
              "dispatch": "replay", "pattern": "burst", "read_words": 16},
             {"n_requests": 800},
             ("mpk", "erim", "mpk_virt", "domain_virt", "dpti")),
    # The paper's Table VII / Figure 6 cell: generation-dominated.
    Workload("paper_fig6_1024", "micro",
             {"n_pools": 1024},
             {"n_pools": 64, "operations": 100},
             (BASELINE,) + MULTI_PMO_SCHEMES,
             benchmarks=("avl", "ss")),
)}


# -- one pass -----------------------------------------------------------------------


@dataclass
class Row:
    """One output row: a workload cell under one scheme."""

    key: str
    #: The row's modelled outputs as text (``FAIL`` for an expected
    #: hard-limit failure) — the digest payload.
    payload: str = ""
    problems: List[str] = field(default_factory=list)
    expected_fail: bool = False

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.payload.encode()).hexdigest()


class Pass:
    """One workload pass: the layer calls, their spans and tallies."""

    def __init__(self, spans: Spans, config: SimConfig = DEFAULT_CONFIG):
        self.spans = spans
        self.config = config
        self.frequency = config.processor.frequency_hz
        self.rows: List[Row] = []
        #: Trace events generated (service serve + micro generation).
        self.generated = 0
        #: Events of completed replays; a sharded replay counts its
        #: unsharded trace's length.
        self.replayed = 0
        self.replays = 0
        self.fast_replays = 0

    # -- layer calls ------------------------------------------------------------

    def plan(self, params: ServiceParams, clock=None):
        with self.spans.span("service.batching.build_plan") as attrs:
            plan = build_plan(params, clock)
            cols = plan.columns
            attrs["offered"] = len(cols.requests)
            attrs["batches"] = int(cols.n_batches)
            attrs["refused"] = plan.n_rejected + len(plan.shed)
        return plan

    def serve(self, params: ServiceParams, plan):
        with self.spans.span("service.server.build"):
            workload = ServiceWorkload(params)
        with self.spans.span("service.server.serve"):
            workload.serve(plan)
        with self.spans.span("service.server.finish") as attrs:
            trace = workload.finish()
            # Tearing the generating workspace down is serving cost too.
            del workload
            attrs["events"] = len(trace)
        self.generated += len(trace)
        return trace

    def marks(self, trace) -> List[int]:
        with self.spans.span("service.server.batch_boundaries"):
            return batch_boundaries(trace)

    def shards(self, trace):
        with self.spans.span("service.shard.shard_by_worker") as attrs:
            shards = shard_by_worker(trace)
            attrs["trace_events"] = len(trace)
            attrs["shard_events"] = sum(len(s.trace) for s in shards)
        return shards

    def replay(self, trace, scheme: str, *, first: bool, marks=None,
               n_cores: int = 1, counted: Optional[int] = None):
        """``replay_one`` under one scheme; ``first`` marks the replay
        that pays the trace's radiograph pass."""
        scheme_class = scheme_by_name(scheme)
        family = kernel_for(self.config, scheme_class)
        with self.spans.span("engine.replay_one", scheme=scheme,
                             family=family, first=first,
                             events=len(trace)):
            stats = replay_one(trace, scheme, self.config, marks=marks,
                               n_cores=n_cores)
        self.replays += 1
        self.fast_replays += supports_fast_replay(self.config, scheme_class)
        self.replayed += len(trace) if counted is None else counted
        return stats

    def account(self, plan, trace, stats):
        with self.spans.span("service.latency.account") as attrs:
            attrs["offered"] = len(plan.columns.requests)
            return account(plan, trace, stats, frequency_hz=self.frequency)

    def account_sharded(self, plan, shards, stats):
        with self.spans.span("service.latency.account_sharded") as attrs:
            attrs["offered"] = len(plan.columns.requests)
            return account_sharded(plan, shards, stats,
                                   frequency_hz=self.frequency)


def service_row(key: str, summary, plan) -> Row:
    """A service row, with the conservation check applied."""
    row = Row(key, service_payload(summary))
    offered = len(plan.columns.requests)
    if not (summary.n_offered == offered == summary.n_served
            + summary.n_rejected + summary.n_shed):
        row.problems.append(
            f"conservation: offered {summary.n_offered} (generated "
            f"{offered}) != served {summary.n_served} + rejected "
            f"{summary.n_rejected} + shed {summary.n_shed}")
    return row


def service_payload(summary) -> str:
    """A service row's digest payload: counts, latency percentiles,
    throughput and cross-core shootdown cycles, floats by ``repr``."""
    return " ".join([
        str(summary.n_served), str(summary.n_rejected), str(summary.n_shed),
        str(summary.n_batches), str(summary.perm_switches),
        repr(summary.p50), repr(summary.p95), repr(summary.p99),
        repr(summary.throughput_rps),
        repr(summary.cross_core_shootdown_cycles)])


def _fail_row(key: str, expected: bool, error: BaseException) -> Row:
    """The row of a scheme that raised; expected hard-limit faults pass."""
    row = Row(key, "FAIL", expected_fail=expected)
    if not (expected and isinstance(error, PkeyError)):
        row.problems.append(f"raised {type(error).__name__}: {error}")
    return row


def _expect(row: Row, expected_fail: bool) -> Row:
    """Flag a row that ran although its scheme's key space is too small."""
    if expected_fail:
        row.problems.append("expected a hard-limit FAIL, the scheme ran")
    return row


def service_params(workload: Workload, seed: int,
                   smoke: bool) -> ServiceParams:
    overrides = dict(workload.params, **(workload.smoke if smoke else {}))
    return ServiceParams(seed=seed, **overrides)


def micro_params(workload: Workload, benchmark: str, seed: int,
                 smoke: bool) -> MicroParams:
    overrides = dict(workload.params, **(workload.smoke if smoke else {}))
    return MicroParams(benchmark=benchmark, seed=seed, **overrides)


def run_nominal(run: Pass, params: ServiceParams,
                roster: Sequence[str]) -> None:
    """One shared schedule/trace, every scheme re-timed onto it."""
    n_domains = params.n_clients + params.shared_domains
    expected = {name: not supports_domain_count(name, n_domains)
                for name in roster}
    plan = run.plan(params)
    trace = run.serve(params, plan)
    sharded = max(1, params.workers) > 1
    if sharded:
        shards = run.shards(trace)
        n_cores = len(shards)
        base = [run.replay(s.trace, BASELINE, first=True, marks=s.marks,
                           n_cores=n_cores, counted=0) for s in shards]
        run.replayed += len(trace)
    else:
        marks = run.marks(trace)
        base = run.replay(trace, BASELINE, first=True, marks=marks)
    for name in roster:
        key = f"n{params.n_clients}/{name}"
        canonical = resolve_scheme(name)
        try:
            if sharded:
                stats = [run.replay(s.trace, canonical, first=False,
                                    marks=s.marks, n_cores=n_cores,
                                    counted=0) for s in shards]
                run.replayed += len(trace)
                for stat, b in zip(stats, base):
                    stat.baseline_cycles = b.cycles
                summary = run.account_sharded(plan, shards, stats)
            else:
                stats = run.replay(trace, canonical, first=False,
                                   marks=marks)
                stats.baseline_cycles = base.cycles
                summary = run.account(plan, trace, stats)
        except Exception as error:  # a failed row must not stop the pass
            run.rows.append(_fail_row(key, expected[name], error))
            continue
        run.rows.append(_expect(service_row(key, summary, plan),
                                expected[name]))
    with run.spans.span("engine.release"):
        # Dropping the cell's trace (with its cached radiograph and
        # shards) is what Engine.release costs the production path.
        del plan, trace, base
        if sharded:
            del shards


def run_keyed(run: Pass, params: ServiceParams,
              roster: Sequence[str]) -> None:
    """One calibrated schedule and trace per scheme (dispatch=replay)."""
    for name in roster:
        key = f"n{params.n_clients}/{name}"
        canonical = resolve_scheme(name)
        expected = not supports_domain_count(
            name, params.n_clients + params.shared_domains)
        try:
            with run.spans.span("service.closed.scheme_clock"):
                clock = scheme_clock(params, canonical)
            plan = run.plan(params, clock)
            trace = run.serve(params, plan)
            marks = run.marks(trace)
            base = run.replay(trace, BASELINE, first=True, marks=marks)
            stats = run.replay(trace, canonical, first=False, marks=marks)
            stats.baseline_cycles = base.cycles
            summary = run.account(plan, trace, stats)
        except Exception as error:  # a failed row must not stop the pass
            run.rows.append(_fail_row(key, expected, error))
            continue
        run.rows.append(_expect(service_row(key, summary, plan),
                                expected))
        with run.spans.span("engine.release"):
            del plan, trace, marks, base, stats, summary


def run_micro(run: Pass, workload: Workload, seed: int, smoke: bool) -> None:
    """Generate each benchmark's trace, replay the viable roster."""
    for benchmark in workload.benchmarks:
        params = micro_params(workload, benchmark, seed, smoke)
        viable = set(viable_schemes(workload.roster, params.n_pools))
        with run.spans.span("workloads.micro.generate_micro_trace") as attrs:
            # The workspace is dropped at once, as the trace cache does.
            trace = generate_micro_trace(params)[0]
            attrs["events"] = len(trace)
        run.generated += len(trace)
        base = None
        for name in workload.roster:
            key = f"{benchmark}-{params.n_pools}/{name}"
            if name not in viable:
                run.rows.append(Row(key, "FAIL", expected_fail=True))
                continue
            try:
                if name == BASELINE:
                    stats = base = run.replay(trace, BASELINE, first=True)
                else:
                    stats = run.replay(trace, name, first=False)
                    stats.baseline_cycles = base.cycles
            except Exception as error:  # a failed row must not stop the pass
                run.rows.append(_fail_row(key, False, error))
                continue
            buckets = " ".join(f"{bucket}={value!r}" for bucket, value
                               in sorted(stats.buckets.items()))
            run.rows.append(Row(key, f"{stats.cycles!r} {buckets}"))
        with run.spans.span("engine.release"):
            del trace, base


def run_pass(workload: Workload, seed: int, smoke: bool,
             spans: Spans) -> Pass:
    """Execute one workload pass; returns its rows and tallies."""
    run = Pass(spans)
    if workload.suite == "micro":
        run_micro(run, workload, seed, smoke)
        return run
    params = service_params(workload, seed, smoke)
    if params.dispatch == "replay":
        run_keyed(run, params, workload.roster)
    else:
        run_nominal(run, params, workload.roster)
    return run


def prepare(workload: Workload, seed: int, smoke: bool) -> None:
    """Registry discovery plus params and roster validation (set-up)."""
    for name in (BASELINE,) + workload.roster:
        scheme_by_name(resolve_scheme(name))
    if workload.suite == "micro":
        for benchmark in workload.benchmarks:
            micro_params(workload, benchmark, seed, smoke)
    else:
        service_params(workload, seed, smoke)


def digest_of(rows: Sequence[Row]) -> str:
    """The workload digest: every row key with its payload digest."""
    text = "\n".join(f"{row.key} {row.digest}" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# -- per-layer metrics ---------------------------------------------------------------


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(records: List[Dict[str, object]], run: Pass
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json).

    A layer the workload never calls reports 0 for its times, rates and
    counts.
    """
    table = layer_table(records)

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def attr_sum(name: str, attr: str) -> float:
        return float(sum(r["attrs"].get(attr, 0) for r in records
                         if r["name"] == name))

    m: Dict[str, float] = {}
    plan_s = total("service.batching.build_plan")
    offered = attr_sum("service.batching.build_plan", "offered")
    m["service.batching.plan_s"] = plan_s
    m["service.batching.requests_per_s"] = _rate(offered, plan_s)
    m["service.batching.batches"] = attr_sum(
        "service.batching.build_plan", "batches")
    m["service.batching.refused_frac"] = _rate(
        attr_sum("service.batching.build_plan", "refused"), offered)

    clocks = [r for r in records if r["name"] == "service.closed.scheme_clock"]
    m["service.closed.calibrate_s"] = total("service.closed.scheme_clock")
    m["service.closed.calibrations"] = float(
        sum(1 for r in clocks if "error" not in r["attrs"]))

    serve_s = sum(total(f"service.server.{step}")
                  for step in ("build", "serve", "finish"))
    m["service.server.serve_s"] = serve_s
    m["service.server.events_per_s"] = _rate(
        attr_sum("service.server.finish", "events"), serve_s)
    m["service.server.marks_s"] = total("service.server.batch_boundaries")

    trace_events = attr_sum("service.shard.shard_by_worker", "trace_events")
    m["service.shard.shard_s"] = total("service.shard.shard_by_worker")
    m["service.shard.replicated_frac"] = _rate(
        attr_sum("service.shard.shard_by_worker", "shard_events"),
        trace_events) - 1.0 if trace_events else 0.0

    replays = [r for r in records if r["name"] == "engine.replay_one"
               and "error" not in r["attrs"]]

    def seconds(rs) -> float:
        return float(sum(float(r["end"]) - float(r["start"]) for r in rs))

    def events(rs) -> float:
        return float(sum(r["attrs"]["events"] for r in rs))

    m["engine.replay.first_s"] = seconds(
        r for r in replays if r["attrs"]["first"])
    for family in FAMILIES:
        steady = [r for r in replays if not r["attrs"]["first"]
                  and r["attrs"]["family"] == family]
        m[f"engine.replay.{family}.s"] = seconds(steady)
        m[f"engine.replay.{family}.events_per_s"] = _rate(
            events(steady), seconds(steady))
    m["engine.replay.events_per_s"] = _rate(events(replays),
                                            seconds(replays))
    m["engine.replay.fast_frac"] = _rate(run.fast_replays, run.replays)
    m["engine.replay.fail_rows"] = float(
        sum(1 for row in run.rows if row.expected_fail))

    account_s = total("service.latency.account") + \
        total("service.latency.account_sharded")
    m["service.latency.account_s"] = account_s
    m["service.latency.requests_per_s"] = _rate(
        attr_sum("service.latency.account", "offered")
        + attr_sum("service.latency.account_sharded", "offered"), account_s)

    generate_s = total("workloads.micro.generate_micro_trace")
    m["workloads.micro.generate_s"] = generate_s
    m["workloads.micro.events_per_s"] = _rate(
        attr_sum("workloads.micro.generate_micro_trace", "events"),
        generate_s)

    root = records[0]
    root_s = float(root["end"]) - float(root["start"])
    m["span_coverage"] = 1.0 - self_times(records)[0] / root_s \
        if root_s > 0 else 0.0
    return m


# -- entry point ---------------------------------------------------------------------


def round_record(workload: Workload, seed: int, smoke: bool, trace: bool,
                 t0: float, round_id: int) -> Dict[str, object]:
    """Set up, run one timed pass, and describe it as a JSON record."""
    prepare(workload, seed, smoke)
    spans = Spans(trace, round_id)
    gc.disable()
    try:
        setup_s = time.monotonic() - t0
        start = time.perf_counter()
        with spans.span("pipeline.pass", workload=workload.name):
            run = run_pass(workload, seed, smoke, spans)
        wall_s = time.perf_counter() - start
    finally:
        gc.enable()
    record: Dict[str, object] = {
        "workload": workload.name, "seed": seed, "smoke": smoke,
        "round": round_id, "traced": trace,
        "setup_s": setup_s, "wall_s": wall_s,
        "generated_events": run.generated, "replayed_events": run.replayed,
        "replays": run.replays, "fast_replays": run.fast_replays,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest_of(run.rows),
        "rows": [{"key": row.key, "digest": row.digest,
                  "expected_fail": row.expected_fail,
                  "problems": row.problems} for row in run.rows],
    }
    if trace:
        record["layers"] = layer_metrics(spans.records, run)
        record["spans"] = spans.records
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one pipeline-benchmark round and print its "
                    "JSON record.")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true",
                        help="the ~20x smaller variant of the workload")
    parser.add_argument("--trace", action="store_true",
                        help="record a span around every layer call")
    parser.add_argument("--round", type=int, default=0,
                        help="round id stamped on the spans")
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() at which the parent "
                             "started this process (set-up origin)")
    args = parser.parse_args(argv)
    t0 = _IMPORTED_AT if args.t0 is None else args.t0
    record = round_record(WORKLOADS[args.workload], args.seed, args.smoke,
                          args.trace, t0, args.round)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
