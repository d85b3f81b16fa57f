"""Compile scenario documents into the engine's job model.

Compilation is a pure function from a :class:`~repro.scenario.spec.
Scenario` to a grid of :class:`ScenarioCell`s — one
(:class:`~repro.engine.job.WorkloadSpec`, :class:`~repro.sim.config.
SimConfig`) pair per point of the sweep cross-product.

**Hash transparency is the contract**: a compiled spec is constructed
through exactly the same path as a handwritten one
(:meth:`WorkloadSpec.build` -> the family's params class -> ``scaled``),
so its ``cache_key()`` is byte-identical to the spec a driver would
have built by hand with the same knobs.  The golden-hash test
(``tests/scenario/test_golden_hashes.py``) pins this: scenario-compiled
specs must keep hitting traces cached before scenarios existed.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..engine.job import WorkloadSpec
from ..sim.config import DEFAULT_CONFIG, SimConfig, apply_override
from .spec import Scenario, ScenarioError


def smoke_active() -> bool:
    """Whether ``REPRO_SMOKE`` asks for CI-sized runs."""
    raw = os.environ.get("REPRO_SMOKE", "").strip().lower()
    return raw not in ("", "0", "false", "off", "no")


def ops_scale() -> float:
    """The ``REPRO_OPS`` operation-count multiplier (defaults to 1.0)."""
    return float(os.environ.get("REPRO_OPS", "1.0"))


@dataclass(frozen=True)
class ScenarioCell:
    """One point of the compiled grid."""

    #: Ordered (axis, value) pairs of this point's sweep coordinates.
    axes: Tuple[Tuple[str, object], ...]
    spec: WorkloadSpec
    config: SimConfig

    @property
    def axes_dict(self) -> Dict[str, object]:
        return dict(self.axes)

    @property
    def label(self) -> str:
        """Row label: the coordinates, or the spec label off-sweep."""
        if not self.axes:
            return self.spec.label
        return " ".join(f"{axis}={value}" for axis, value in self.axes)


@dataclass(frozen=True)
class CompiledScenario:
    """A scenario resolved to concrete, cache-addressable jobs."""

    scenario: Scenario
    #: Scheme names as given (aliases kept for row labels).
    schemes: Tuple[str, ...]
    cells: Tuple[ScenarioCell, ...]
    #: Whether smoke substitutions were applied.
    smoke: bool

    @property
    def first_axis(self) -> Optional[str]:
        return self.cells[0].axes[0][0] if self.cells and \
            self.cells[0].axes else None

    def chunks(self) -> List[Tuple[ScenarioCell, ...]]:
        """Cells grouped by first-axis value (one chunk off-sweep).

        The executor replays chunk by chunk, releasing traces between
        chunks — the first sweep axis is therefore the memory-pressure
        boundary, exactly like the drivers' per-benchmark batches.
        """
        if not self.cells or not self.cells[0].axes:
            return [tuple(self.cells)] if self.cells else []
        out: List[Tuple[ScenarioCell, ...]] = []
        group: List[ScenarioCell] = []
        current = object()
        for cell in self.cells:
            head = cell.axes[0][1]
            if group and head != current:
                out.append(tuple(group))
                group = []
            current = head
            group.append(cell)
        if group:
            out.append(tuple(group))
        return out


def compile_scenario(scenario: Scenario, *,
                     smoke: Optional[bool] = None,
                     scale: Optional[float] = None,
                     base_config: Optional[SimConfig] = None
                     ) -> CompiledScenario:
    """Resolve one scenario into its (spec, config) grid.

    ``smoke=None`` consults ``REPRO_SMOKE``; ``scale=None`` consults
    ``REPRO_OPS`` (matching :class:`~repro.experiments.runner.
    ExperimentRunner`'s defaults, so CLI runs and scenario runs of the
    same knobs share cache entries).
    """
    smoke = smoke_active() if smoke is None else smoke
    scale = ops_scale() if scale is None else scale
    config = base_config if base_config is not None else DEFAULT_CONFIG

    params = dict(scenario.params)
    sweep = list(scenario.sweep)
    schemes = scenario.schemes
    if smoke:
        params.update(scenario.smoke_params)
        if scenario.smoke_sweep is not None:
            sweep = list(scenario.smoke_sweep)
        if scenario.smoke_schemes is not None:
            schemes = scenario.smoke_schemes

    try:
        for path, value in scenario.config:
            config = apply_override(config, path, value)
    except ValueError as error:
        raise ScenarioError(f"scenario {scenario.name!r}: {error}") from None

    axes = [axis for axis, _ in sweep]
    cells: List[ScenarioCell] = []
    for combo in itertools.product(*(values for _, values in sweep)):
        cell_params = dict(params)
        cell_config = config
        for axis, value in zip(axes, combo):
            if "." in axis:
                cell_config = apply_override(cell_config, axis, value)
            else:
                cell_params[axis] = value
        try:
            spec = WorkloadSpec.build(scenario.workload, scale=scale,
                                      **cell_params)
        except (TypeError, ValueError) as error:
            raise ScenarioError(
                f"scenario {scenario.name!r} at "
                f"{dict(zip(axes, combo))}: {error}") from None
        cells.append(ScenarioCell(axes=tuple(zip(axes, combo)),
                                  spec=spec, config=cell_config))
    return CompiledScenario(scenario=scenario, schemes=schemes,
                            cells=tuple(cells), smoke=smoke)
