"""The experiment engine: jobs in, statistics out.

:class:`Engine` is the facade the experiment drivers run on.  It ties
the three layers together:

* the declarative job model (:mod:`repro.engine.job`),
* the persistent trace cache (:mod:`repro.engine.cache`), and
* the parallel executor (:mod:`repro.engine.executor`).

A driver describes what it wants as :class:`WorkloadSpec`s and scheme
names; the engine warms the trace cache (generating only what no cache
layer has) and hands the resulting cells of :class:`ReplayJob`s to
:func:`~repro.engine.executor.replay_cells`, which fans them over
workers and regroups the :class:`RunStats` per cell with
``baseline_cycles`` wired up — the same path
:func:`repro.sim.simulator.replay_trace` takes.

The engine also hosts a small result-memoization table
(:meth:`memoize`) so expensive derived results (the Figure 6 sweep) can
be shared between drivers without private-attribute hacks.
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

from .. import obs
from ..cpu.trace import Trace
from ..sim.config import DEFAULT_CONFIG, SimConfig
from ..sim.stats import RunStats
from .cache import CacheStats, TraceCache
from .executor import parallel_map, replay_cells, worker_count
from .job import BASELINE, ReplayJob, WorkloadSpec, scheme_cell


def _warm_spec(item: Tuple[WorkloadSpec, Optional[str]]):
    """Worker entry point: materialize one spec's trace into the cache."""
    spec, root = item
    cache = TraceCache(root)
    trace = cache.get_or_generate(spec)
    return trace, cache.stats.generations


class Engine:
    """Generates traces through the cache and replays scheme grids."""

    def __init__(self, config: Optional[SimConfig] = None, *,
                 cache: Optional[TraceCache] = None,
                 jobs: Optional[int] = None):
        self.config = config or DEFAULT_CONFIG
        self.cache = cache if cache is not None else TraceCache()
        self.jobs = jobs  # None -> REPRO_JOBS at call time
        #: Traces this engine currently holds alive (spec key -> Trace).
        self._live: Dict[str, Trace] = {}
        #: Derived-result memo table (see :meth:`memoize`).
        self._memo: Dict[Hashable, object] = {}

    # -- cache plumbing ---------------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    @property
    def trace_generations(self) -> int:
        """Traces actually generated (not served from a cache layer)."""
        return self.cache.stats.generations

    def _root_token(self) -> str:
        """Cache root to embed in jobs shipped to workers."""
        return str(self.cache.root) if self.cache.enabled else "0"

    def _report_cache_delta(self, snapshot: CacheStats) -> None:
        """Report parent-side cache activity since ``snapshot`` (obs).

        Worker-side activity rides back on ``RunStats.metrics``; this
        covers requests the engine serves in-process (warm, trace_for).
        """
        registry = obs.metrics()
        if registry is not None:
            self.cache.stats.delta(snapshot).report_metrics(registry)

    # -- traces ---------------------------------------------------------------------

    def trace_for(self, spec: WorkloadSpec) -> Trace:
        """The trace for ``spec`` — cached layers first, generated last.

        Repeated calls return the identical object until
        :meth:`release`.
        """
        key = spec.cache_key()
        trace = self._live.get(key)
        if trace is None:
            snapshot = self.cache.stats.copy()
            trace = self.cache.get_or_generate(spec)
            self._live[key] = trace
            self._report_cache_delta(snapshot)
        return trace

    def release(self, spec: WorkloadSpec) -> None:
        """Drop a trace from the in-process layers (disk copy stays)."""
        self._live.pop(spec.cache_key(), None)
        TraceCache.drop_memory(spec)

    def warm(self, specs: Sequence[WorkloadSpec]) -> None:
        """Ensure every spec's trace is in the in-process cache.

        Missing traces are generated — in parallel across specs when the
        disk layer is on and ``REPRO_JOBS`` allows it (workers inherit
        the results back through pickling), serially otherwise.
        """
        snapshot = self.cache.stats.copy()
        try:
            unique: Dict[str, WorkloadSpec] = {}
            for spec in specs:
                unique.setdefault(spec.cache_key(), spec)
            missing = [
                spec for spec in unique.values()
                if self.cache.get_or_generate(spec, generate=False) is None]
            if not missing:
                return
            n = worker_count(self.jobs)
            if n > 1 and len(missing) > 1:
                root = self._root_token()
                warmed = parallel_map(
                    _warm_spec, [(spec, root) for spec in missing], jobs=n)
                for spec, (trace, generations) in zip(missing, warmed):
                    self.cache.seed(spec, trace)
                    self.cache.stats.generations += generations
            else:
                for spec in missing:
                    self.cache.get_or_generate(spec)
        finally:
            self._report_cache_delta(snapshot)

    # -- replay --------------------------------------------------------------------

    def replay_grid(self, cells: Sequence[Tuple[WorkloadSpec, SimConfig]],
                    schemes: Iterable[str]) -> List[Dict[str, RunStats]]:
        """Replay every (spec, config) cell under the baseline + schemes.

        Returns one ``scheme -> RunStats`` dict per cell, in order; the
        whole (cell x scheme) job grid fans out over the executor.
        """
        self.warm([spec for spec, _ in cells])
        root = self._root_token()
        return replay_cells([scheme_cell((BASELINE, *schemes), spec=spec,
                                         config=config, cache_root=root)
                             for spec, config in cells], jobs=self.jobs)

    def replay(self, spec: WorkloadSpec, schemes: Iterable[str],
               config: Optional[SimConfig] = None) -> Dict[str, RunStats]:
        """Replay one spec under the baseline plus each named scheme."""
        return self.replay_grid([(spec, config or self.config)], schemes)[0]

    def replay_served(self, cells: Sequence[Tuple[WorkloadSpec,
                                                  Iterable[str]]],
                      config: Optional[SimConfig] = None, *,
                      include_baseline: bool = True
                      ) -> List[Dict[str, List[RunStats]]]:
        """Replay served traces shard by shard, every cell in one grid.

        ``cells`` holds ``(spec, schemes)`` pairs of service specs.  Each
        spec's trace splits into per-worker-slot shards
        (:func:`repro.service.shard.shard_by_worker`); every scheme (plus
        the baseline, unless ``include_baseline`` is false) replays every
        shard with that shard's own marks, and the (shard x scheme) jobs
        of all cells fan out over the executor as one batch.  A one-slot
        trace is its own shard: its jobs name the spec and load the
        trace through the cache, so nothing is pickled.  Several shards
        carry their traces and see ``n_cores = len(shards)``, which turns
        MPKV/libmpk key-remap invalidations into attributed cross-core
        shootdown broadcasts (``docs/MULTICORE.md``).

        Returns one ``scheme -> [RunStats per slot, slot order]`` dict
        per cell, each slot's ``baseline_cycles`` wired from the same
        slot's baseline replay.
        """
        from ..service.shard import shard_by_worker
        config = config or self.config
        self.warm([spec for spec, _ in cells])
        root = self._root_token()
        grid: List[List[ReplayJob]] = []
        layout: List[Tuple[Tuple[str, ...], int]] = []
        for spec, schemes in cells:
            names = (BASELINE, *schemes) if include_baseline \
                else tuple(schemes)
            shards = shard_by_worker(self.trace_for(spec))
            if len(shards) == 1:
                grid.append(scheme_cell(names, spec=spec, config=config,
                                        cache_root=root,
                                        marks=tuple(shards[0].marks)))
            else:
                grid.extend(scheme_cell(names, spec=None, trace=shard.trace,
                                        config=config,
                                        marks=tuple(shard.marks),
                                        n_cores=len(shards))
                            for shard in shards)
            layout.append((names, len(shards)))
        slots = iter(replay_cells(grid, jobs=self.jobs))
        out: List[Dict[str, List[RunStats]]] = []
        for names, n_slots in layout:
            cell = [next(slots) for _ in range(n_slots)]
            out.append({name: [slot[name] for slot in cell]
                        for name in names})
        return out

    # -- derived-result memoization ---------------------------------------------------

    def memoize(self, key: Hashable, producer: Callable[[], object]):
        """Compute-once storage for expensive derived results.

        ``producer()`` runs only the first time ``key`` is seen on this
        engine; later calls return the stored value.  Used by the
        Figure 6 sweep so Figure 7 / Table VII reuse its data.
        """
        if key not in self._memo:
            self._memo[key] = producer()
        return self._memo[key]
