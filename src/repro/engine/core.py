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
from .job import BASELINE, WorkloadSpec, scheme_cell


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
               config: Optional[SimConfig] = None, *,
               marks: Optional[Sequence[int]] = None,
               include_baseline: bool = True) -> Dict[str, RunStats]:
        """Replay one spec under the baseline plus each named scheme.

        With ``marks`` every returned :class:`RunStats` additionally
        carries ``mark_cycles`` — the cycle clock at each marked event
        index; the service layer turns one marked replay into per-batch
        completion times.  ``include_baseline=False`` runs no baseline
        job, so no result has ``baseline_cycles``.
        """
        self.warm([spec])
        if marks is not None:
            marks = tuple(int(mark) for mark in marks)
        names = (BASELINE, *schemes) if include_baseline else tuple(schemes)
        return replay_cells([scheme_cell(
            names, spec=spec, config=config or self.config,
            cache_root=self._root_token(), marks=marks)], jobs=self.jobs)[0]

    def replay_shards(self, shards: Sequence, schemes: Iterable[str],
                      config: Optional[SimConfig] = None, *,
                      include_baseline: bool = True
                      ) -> Dict[str, List[RunStats]]:
        """Replay per-worker trace shards — one simulated core each.

        ``shards`` is the slot-ordered output of
        :func:`repro.service.shard.shard_by_worker`.  Each shard is one
        cell: every scheme (plus the baseline) replays it with that
        shard's own marks, and the whole (shard x scheme) grid fans out
        over the fork executor — a 64-worker service run is a 64-way
        parallel replay.  Returns ``scheme -> [RunStats per slot, slot
        order]`` with each shard's ``baseline_cycles`` wired from the
        same slot's baseline replay.  Schemes see
        ``n_cores = len(shards)``, which is what turns MPKV/libmpk
        key-remap invalidations into attributed cross-core shootdown
        broadcasts (``docs/MULTICORE.md``).
        """
        config = config or self.config
        shards = list(shards)
        names = (BASELINE, *schemes) if include_baseline else tuple(schemes)
        grid = [scheme_cell(names, spec=None, trace=shard.trace,
                            config=config,
                            marks=tuple(int(m) for m in shard.marks),
                            n_cores=len(shards))
                for shard in shards]
        cells = replay_cells(grid, jobs=self.jobs)
        return {job.scheme: [cell[job.scheme] for cell in cells]
                for job in grid[0]}

    def replay_marked_keyed(self, spec: WorkloadSpec,
                            schemes: Iterable[str],
                            config: Optional[SimConfig] = None, *,
                            include_baseline: bool = True
                            ) -> Dict[str, RunStats]:
        """Scheme-keyed marked replay: one spec *variant* per scheme.

        ``dispatch="replay"`` service runs schedule per scheme, so each
        scheme replays its own ``spec.keyed(scheme)`` trace with marks
        derived from *that* trace's batch boundaries.  Each variant is
        one cell: with ``include_baseline`` it is also replayed under
        the baseline scheme (on the variant's own schedule) to wire up
        ``baseline_cycles``.  Unlike :meth:`replay` there is no shared
        ``"baseline"`` entry in the result — each scheme's baseline
        belongs to its own schedule.
        """
        from ..service.server import batch_boundaries
        config = config or self.config
        variants = {name: spec.keyed(name) for name in dict.fromkeys(schemes)}
        self.warm(list(variants.values()))
        root = self._root_token()
        cells = replay_cells([scheme_cell(
            (BASELINE, name) if include_baseline else (name,),
            spec=vspec, config=config, cache_root=root,
            marks=tuple(batch_boundaries(self.trace_for(vspec))))
            for name, vspec in variants.items()], jobs=self.jobs)
        return {name: cell[name] for name, cell in zip(variants, cells)}

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
