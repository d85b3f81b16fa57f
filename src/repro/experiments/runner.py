"""Shared experiment plumbing on top of the replay engine.

Every experiment driver goes through :class:`ExperimentRunner`, which

* scales operation counts via the ``REPRO_OPS`` environment variable
  (a float multiplier; 1.0 = the defaults used in CI-sized runs),
* turns (suite, benchmark, parameters) into
  :class:`~repro.engine.job.WorkloadSpec`s and hands them to an
  :class:`~repro.engine.core.Engine`, which serves traces from the
  persistent cache (``REPRO_TRACE_CACHE``) and fans scheme replays over
  ``REPRO_JOBS`` workers, and
* exposes the engine's result-memoization table so expensive derived
  results (the Figure 6 sweep) are shared between drivers.

Batch sweeps no longer live here: drivers express their grids as
scenario documents compiled through :mod:`repro.scenario` (with the
runner's ``scale``/``config``, so CLI runs and scenario runs share
cache entries) and replay them via
:func:`repro.scenario.run.replay_compiled`.

With observability on (``REPRO_EVENTS`` / ``REPRO_METRICS``; see
:mod:`repro.obs`), :meth:`ExperimentRunner.metrics_snapshot` exports the
metrics merged across all replays this process has driven so far.

Parameter overrides are folded into the spec — and therefore into the
cache key — so ``micro_trace("avl", 64, operations=120)`` and the
unoverridden trace can never alias each other.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple

from .. import obs
from ..cpu.trace import Trace
from ..engine import Engine, WorkloadSpec
from ..scenario.compile import ops_scale
from ..sim.config import DEFAULT_CONFIG, SimConfig
from ..sim.stats import RunStats

#: PMO counts of the Figure 6/7 sweep (the paper uses stride 16 from 16
#: to 1024; powers of two keep runtimes sane while preserving the shape).
DEFAULT_SWEEP = (16, 32, 64, 128, 256, 512, 1024)


def sweep_points() -> Tuple[int, ...]:
    """The REPRO_SWEEP PMO counts (comma-separated), or the default."""
    raw = os.environ.get("REPRO_SWEEP")
    if not raw:
        return DEFAULT_SWEEP
    return tuple(int(part) for part in raw.split(","))


class ExperimentRunner:
    """Describes benchmark runs as engine jobs and replays them."""

    def __init__(self, config: Optional[SimConfig] = None,
                 *, scale: Optional[float] = None,
                 engine: Optional[Engine] = None):
        self.config = config or DEFAULT_CONFIG
        self.scale = ops_scale() if scale is None else scale
        self.engine = engine if engine is not None else Engine(self.config)

    # -- specs -------------------------------------------------------------------

    def micro_spec(self, benchmark: str, n_pools: int,
                   **overrides) -> WorkloadSpec:
        return WorkloadSpec.micro(benchmark, n_pools, scale=self.scale,
                                  **overrides)

    def whisper_spec(self, benchmark: str, **overrides) -> WorkloadSpec:
        return WorkloadSpec.whisper(benchmark, scale=self.scale, **overrides)

    def service_spec(self, **overrides) -> WorkloadSpec:
        return WorkloadSpec.service(scale=self.scale, **overrides)

    # -- trace generation ---------------------------------------------------------

    def micro_trace(self, benchmark: str, n_pools: int,
                    **overrides) -> Tuple[Trace, WorkloadSpec]:
        """The (cached) trace for one microbenchmark point.

        Returns ``(trace, spec)``; the spec is the trace's cache
        identity.  Overrides are part of it, so overridden traces get
        their own cache slots instead of bypassing the cache.
        """
        spec = self.micro_spec(benchmark, n_pools, **overrides)
        return self.engine.trace_for(spec), spec

    def whisper_trace(self, benchmark: str,
                      **overrides) -> Tuple[Trace, WorkloadSpec]:
        spec = self.whisper_spec(benchmark, **overrides)
        return self.engine.trace_for(spec), spec

    def service_trace(self, **overrides) -> Tuple[Trace, WorkloadSpec]:
        spec = self.service_spec(**overrides)
        return self.engine.trace_for(spec), spec

    # -- replay ------------------------------------------------------------------------

    def replay_micro(self, benchmark: str, n_pools: int,
                     schemes: Iterable[str]) -> Dict[str, RunStats]:
        return self.engine.replay(self.micro_spec(benchmark, n_pools),
                                  schemes, self.config)

    def drop_micro_trace(self, benchmark: str, n_pools: int) -> None:
        """Free a cached trace (the 1024-PMO traces are large)."""
        self.engine.release(self.micro_spec(benchmark, n_pools))

    # -- observability -----------------------------------------------------------------

    def metrics_snapshot(self) -> Optional[Dict[str, object]]:
        """Export of this process's merged metrics registry (or ``None``).

        Covers every replay driven so far — serial and fork-worker runs
        alike, since the executor merges worker registries back into the
        process-global one.  ``None`` whenever observability is off.
        """
        registry = obs.metrics()
        return None if registry is None else registry.as_dict()

    # -- derived results ---------------------------------------------------------------

    def memoize(self, key: Hashable, producer: Callable[[], object]):
        """Compute-once storage for derived results (Figure 6 sweep)."""
        return self.engine.memoize(key, producer)
