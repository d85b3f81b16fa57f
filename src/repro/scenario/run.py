"""Execute compiled scenarios and render their reports.

The executor picks its strategy from the workload family's ``runner``
declaration:

* ``replay`` families go through :func:`replay_compiled` — the cell
  grid replays chunk by chunk (grouped by the first sweep axis, traces
  released between chunks, the whole chunk x scheme grid fanned over
  ``REPRO_JOBS`` workers);
* the ``service`` family goes through the serving pipeline
  (:func:`repro.experiments.service.summaries_for_spec`) — latency
  accounting, scheme-keyed schedules, the 16-key fragility contract.

Reports are a registry too (:data:`REPORT_KINDS`): ``leaderboard``
(overhead per scheme per cell) and ``service`` (per-cell scheme
leaderboards ranked by p99) are built in; ``figure6`` registers from
:mod:`repro.experiments.figure6` via discovery.  A plugin can register
its own report kind exactly like a scheme.

The :mod:`repro.experiments` imports in this module are function-level
on purpose: the scenario layer is imported *by* the drivers, so pulling
the experiments package in at import time would cycle.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.schemes import (resolve_scheme, scheme_descriptor,
                            supports_domain_count)
from ..engine import Engine
from ..registry import Registry
from ..sim.simulator import overhead_over_lowerbound
from ..workloads.families import workload_by_name
from .compile import CompiledScenario, ScenarioCell, compile_scenario
from .library import bundled_scenarios, find_scenario
from .spec import Scenario, ScenarioError

#: One outcome per cell: (cell, scheme -> RunStats | ServiceSummary).
Outcome = Tuple[ScenarioCell, Dict[str, object]]

#: Report-kind registry; ``figure6`` self-registers from its driver.
REPORT_KINDS = Registry("report kind", discover=(
    "repro.experiments.figure6",))


def register_report(name: str):
    """Decorator registering a report kind: ``(compiled, outcomes) -> str``."""
    return REPORT_KINDS.register(name)


# -- execution ---------------------------------------------------------------------


def _viable_schemes(schemes: Sequence[str], cell: ScenarioCell
                    ) -> Tuple[str, ...]:
    """The canonical schemes that can run this cell at all.

    A hard-limited scheme (descriptor ``collapse="fault"``) cannot
    attach more domains than its key space, so cells whose domain count
    (``n_pools`` — one PMO per pool) exceeds the limit drop it from the
    replay rather than poisoning the whole grid; reports surface the
    gap as a FAIL row.
    """
    n_domains = getattr(cell.spec.params, "n_pools", None)
    if n_domains is None:
        return tuple(schemes)
    return tuple(name for name in schemes
                 if supports_domain_count(name, n_domains))


def replay_compiled(compiled: CompiledScenario,
                    engine: Optional[Engine] = None, *,
                    release: bool = True) -> List[Outcome]:
    """Replay a compiled grid; returns one (cell, results) per cell.

    Results are keyed by *canonical* scheme names (aliases resolved).
    Chunking follows :meth:`CompiledScenario.chunks`; with ``release``
    each chunk's traces are dropped before the next chunk generates.
    Hard-limited schemes are absent from the results of cells beyond
    their key space (:func:`_viable_schemes`).
    """
    engine = engine or Engine()
    schemes = [resolve_scheme(name) for name in compiled.schemes]
    outcomes: List[Outcome] = []
    for chunk in compiled.chunks():
        # Cells with different viable-scheme subsets replay as separate
        # grid batches; original cell order is restored afterwards.
        batches: Dict[Tuple[str, ...], List[ScenarioCell]] = {}
        for cell in chunk:
            batches.setdefault(_viable_schemes(schemes, cell),
                               []).append(cell)
        by_cell: Dict[int, Outcome] = {}
        for viable, cells in batches.items():
            results = engine.replay_grid(
                [(cell.spec, cell.config) for cell in cells], list(viable))
            for cell, cell_results in zip(cells, results):
                by_cell[id(cell)] = (cell, cell_results)
        outcomes.extend(by_cell[id(cell)] for cell in chunk)
        if release:
            for cell in chunk:
                engine.release(cell.spec)
    return outcomes


def serve_compiled(compiled: CompiledScenario, runner=None) -> List[Outcome]:
    """Run a compiled *service* grid through the serving pipeline."""
    from ..experiments.runner import ExperimentRunner
    from ..experiments.service import summaries_for_spec
    runner = runner or ExperimentRunner()
    return [(cell, summaries_for_spec(runner, cell.spec, compiled.schemes,
                                      config=cell.config))
            for cell in compiled.cells]


def execute_compiled(compiled: CompiledScenario) -> List[Outcome]:
    """Execute with the strategy the workload family declares."""
    family = workload_by_name(compiled.scenario.workload)
    if family.runner == "service":
        return serve_compiled(compiled)
    return replay_compiled(compiled)


def run_scenario(reference: Union[str, Scenario], *,
                 smoke: Optional[bool] = None) -> str:
    """Resolve, compile, execute and report one scenario end to end."""
    scenario = find_scenario(reference) if isinstance(reference, str) \
        else reference
    compiled = compile_scenario(scenario, smoke=smoke)
    if not compiled.cells:
        raise ScenarioError(
            f"scenario {scenario.name!r} compiled to zero cells")
    outcomes = execute_compiled(compiled)
    try:
        render = REPORT_KINDS.get(compiled.scenario.report)
    except KeyError as error:
        raise ScenarioError(str(error)) from None
    return render(compiled, outcomes)


# -- built-in report kinds ---------------------------------------------------------


def _title(compiled: CompiledScenario) -> str:
    scenario = compiled.scenario
    title = scenario.title or f"Scenario: {scenario.name}"
    return f"{title} [smoke]" if compiled.smoke else title


@register_report("leaderboard")
def _leaderboard_report(compiled: CompiledScenario,
                        outcomes: Sequence[Outcome]) -> str:
    """Overhead% per scheme per cell; over the lowerbound when it ran,
    over the unprotected baseline otherwise."""
    from ..experiments.reporting import format_table
    others = [name for name in compiled.schemes
              if resolve_scheme(name) != "lowerbound"]
    if others and len(others) < len(compiled.schemes):
        relative, schemes = "lowerbound", others
    else:
        # No lowerbound ran — or *only* the lowerbound did (Table VI
        # style); either way the unprotected baseline is the reference.
        relative, schemes = "baseline", list(compiled.schemes)
    headers = ["Cell"] + [f"{name} %" for name in schemes]
    rows: List[List[object]] = []
    for cell, results in outcomes:
        row: List[object] = [cell.label]
        for name in schemes:
            canonical = resolve_scheme(name)
            if canonical not in results:
                # Dropped by the viability partition: the scheme's key
                # space cannot cover this cell's domain count.
                row.append(scheme_descriptor(name).fail_label)
            elif relative == "lowerbound":
                row.append(overhead_over_lowerbound(results, canonical))
            else:
                row.append(results[canonical].overhead_percent(
                    results["baseline"].cycles))
        rows.append(row)
    return format_table(f"{_title(compiled)} (% over {relative})",
                        headers, rows)


@register_report("service")
def _service_report(compiled: CompiledScenario,
                    outcomes: Sequence[Outcome]) -> str:
    """Per-cell scheme leaderboard, ranked by p99 latency (the serving
    metric queueing punishes first)."""
    from ..experiments.reporting import format_table
    headers = ["Cell", "Rank", "Scheme", "Served", "Rejected", "Shed",
               "Batches", "XCore (cyc)", "Fair", "SLO %", "p50 (cyc)",
               "p95 (cyc)", "p99 (cyc)", "Throughput (req/s)"]
    rows: List[List[object]] = []
    for cell, summaries in outcomes:
        ranked = sorted(
            (name for name in compiled.schemes
             if summaries.get(name) is not None),
            key=lambda name: summaries[name].p99)
        for rank, name in enumerate(ranked, start=1):
            summary = summaries[name]
            rows.append([cell.label, rank, name, summary.n_served,
                         summary.n_rejected, summary.n_shed,
                         summary.n_batches,
                         summary.cross_core_shootdown_cycles,
                         round(summary.fairness, 3),
                         round(100.0 * summary.slo_attainment, 1),
                         summary.p50, summary.p95, summary.p99,
                         summary.throughput_rps])
        for name in compiled.schemes:
            if summaries.get(name) is None:
                rows.append([cell.label, "-", name, "-", "-", "-", "-", "-",
                             "-", "-", "-", "-", "-",
                             scheme_descriptor(name).fail_label])
    return format_table(f"{_title(compiled)} — scheme leaderboard by p99",
                        headers, rows)


# -- CLI ---------------------------------------------------------------------------


def list_scenarios() -> str:
    """Human-readable roster of the bundled scenario library."""
    bundled = bundled_scenarios()
    if not bundled:
        return "no bundled scenarios found"
    lines = []
    for name, path in bundled.items():
        try:
            scenario = find_scenario(name)
            blurb = scenario.title or scenario.description
            lines.append(f"{name:18s} {scenario.workload:8s} "
                         f"{scenario.report:12s} {blurb}")
        except ScenarioError as error:
            lines.append(f"{name:18s} INVALID: {error}")
    header = (f"{'scenario':18s} {'workload':8s} {'report':12s} title\n"
              + "-" * 72)
    return "\n".join([header] + lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``run <scenario>...`` / ``list`` subcommand entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv else ""
    if command == "list":
        print(list_scenarios())
        return 0
    if command == "run":
        references = argv[1:]
        if not references:
            print("usage: python -m repro.experiments run "
                  "<scenario-name-or-file>...", file=sys.stderr)
            return 2
        for reference in references:
            try:
                print(run_scenario(reference))
            except ScenarioError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            print()
        return 0
    print(f"unknown scenario command {command!r} (use 'run' or 'list')",
          file=sys.stderr)
    return 2
