"""Parallel execution of replay jobs over ``multiprocessing`` workers.

Scheme replays are embarrassingly parallel once contexts are isolated
(:mod:`repro.engine.context`): each worker rebuilds private state from
the trace layout, so serial and parallel execution produce bit-identical
:class:`~repro.sim.stats.RunStats`.

Worker count comes from ``REPRO_JOBS`` (default 1 = serial).  Workers
are started with the ``fork`` method so they inherit the parent's warm
in-memory trace cache; platforms without ``fork`` fall back to serial
execution rather than re-shipping traces.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (Callable, List, NamedTuple, Optional, Sequence, Tuple,
                    TypeVar)

from .. import obs
from ..errors import EngineError
from ..sim.stats import RunStats
from .job import ReplayJob

ENV_JOBS = "REPRO_JOBS"
ENV_PROFILE = "REPRO_PROFILE"

#: Distinguishes pstats files of jobs replayed by the same process.
_PROFILE_SEQ = itertools.count()

T = TypeVar("T")
R = TypeVar("R")


def worker_count(override: Optional[int] = None) -> int:
    """Resolve the replay worker count (``REPRO_JOBS``, default 1)."""
    if override is not None:
        return max(1, int(override))
    raw = os.environ.get(ENV_JOBS, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def profile_dir(override: Optional[str] = None) -> Optional[pathlib.Path]:
    """Resolve the replay-profiling sink (``REPRO_PROFILE``).

    Off by default; a truthy value dumps one cProfile ``.pstats`` file
    per replay job into ``profiles/`` (or into the directory named by
    the value when it is a path rather than a plain on/off flag).
    """
    raw = override if override is not None else \
        os.environ.get(ENV_PROFILE, "")
    raw = raw.strip()
    if not raw or raw.lower() in ("0", "false", "off", "no"):
        return None
    if raw.lower() in ("1", "true", "on", "yes"):
        return pathlib.Path("profiles")
    return pathlib.Path(raw)


def _replay_job(trace, job: ReplayJob) -> RunStats:
    """Replay one job, honoring the ``REPRO_PROFILE`` knob."""
    from .context import replay_one
    prof_dir = profile_dir()
    if prof_dir is None:
        return replay_one(trace, job.scheme, job.config, marks=job.marks)
    import cProfile
    profile = cProfile.Profile()
    profile.enable()
    try:
        stats = replay_one(trace, job.scheme, job.config, marks=job.marks)
    finally:
        profile.disable()
        prof_dir.mkdir(parents=True, exist_ok=True)
        path = prof_dir / (f"{job.spec.label}-{job.scheme}-"
                           f"{os.getpid()}-{next(_PROFILE_SEQ)}.pstats")
        profile.dump_stats(path)
        ev = obs.active_events()
        if ev is not None:
            ev.emit("job.profile", label=job.spec.label, scheme=job.scheme,
                    path=str(path))
    return stats


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


#: Per-item progress shared with forked workers (0 queued, 1 running,
#: 2 done); installed in each worker by :func:`_init_worker`.
_progress = None


def _init_worker(progress) -> None:
    global _progress
    _progress = progress


def _tracked_call(fn: Callable[[T], R], index: int, item: T) -> R:
    """Run one item in a worker, recording when it starts and ends."""
    _progress[index] = 1
    result = fn(item)
    _progress[index] = 2
    return result


def parallel_map(fn: Callable[[T], R], items: Sequence[T], *,
                 jobs: Optional[int] = None) -> List[R]:
    """``map(fn, items)`` over ``jobs`` forked workers (serial if 1).

    An exception raised by ``fn`` propagates as itself.  A worker that
    dies outright (SIGKILL, OOM kill, segfault) raises
    :class:`~repro.errors.EngineError` naming the items it took down,
    instead of leaving the map blocked forever.
    """
    items = list(items)
    n = worker_count(jobs)
    if n <= 1 or len(items) <= 1 or not _fork_available():
        return [fn(item) for item in items]
    # Flush buffered telemetry before forking: children inherit the
    # parent's event buffer and would re-write its pending records.
    ev = obs.active_events()
    if ev is not None:
        ev.flush()
    ctx = multiprocessing.get_context("fork")
    progress = ctx.Array("b", len(items), lock=False)
    pool = ProcessPoolExecutor(max_workers=min(n, len(items)),
                               mp_context=ctx, initializer=_init_worker,
                               initargs=(progress,))
    try:
        futures = [pool.submit(_tracked_call, fn, index, item)
                   for index, item in enumerate(items)]
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        lost = [index for index, state in enumerate(progress) if state == 1]
        raise EngineError(
            f"a worker process died while running item(s) "
            f"{', '.join(map(str, lost)) or '?'} of {len(items)} "
            f"(killed or crashed, e.g. out of memory)") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _run_job(job: ReplayJob) -> RunStats:
    """Execute one replay job (used as the worker entry point).

    With observability on, the job's wall/CPU time and trace-cache
    activity are folded into the returned ``RunStats.metrics`` so the
    parent can merge them across workers (fork ships nothing back but
    the pickled result).
    """
    from .cache import TraceCache
    cache = TraceCache(job.cache_root)
    if not obs.enabled():
        trace = cache.get_or_generate(job.spec)
        return _replay_job(trace, job)
    label = job.spec.label
    ev = obs.active_events()
    if ev is not None:
        ev.emit("job.replay", label=label, scheme=job.scheme)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    trace = cache.get_or_generate(job.spec)
    stats = _replay_job(trace, job)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    registry = obs.MetricsRegistry()
    if stats.metrics:
        registry.merge(stats.metrics)
    cache.stats.report_metrics(registry)
    registry.counter("engine.jobs.completed").inc()
    registry.histogram("engine.job.wall_s").observe(wall)
    registry.histogram("engine.job.cpu_s").observe(cpu)
    stats.metrics = registry.as_dict()
    if ev is not None:
        ev.emit("job.done", label=label, scheme=job.scheme,
                wall_s=round(wall, 6), cpu_s=round(cpu, 6))
        ev.flush()
    return stats


def _merge_batch_metrics(results: Sequence[RunStats], elapsed: float,
                         workers: int) -> None:
    """Fold per-job worker metrics into the parent's global registry."""
    registry = obs.metrics()
    if registry is None:
        return
    busy = 0.0
    for stats in results:
        if stats.metrics:
            registry.merge(stats.metrics)
            wall = stats.metrics.get("histograms", {}).get("engine.job.wall_s")
            if wall:
                busy += wall.get("sum", 0.0)
    registry.gauge("engine.workers").set(float(workers))
    if elapsed > 0 and workers > 0:
        registry.gauge("engine.worker.utilization").set(
            min(1.0, busy / (elapsed * workers)))
    ev = obs.active_events()
    if ev is not None:
        ev.report_metrics(registry)
        ev.flush()


class TraceJob(NamedTuple):
    """One shard replay shipped directly as a trace (no cache lookup).

    Unlike :class:`~repro.engine.job.ReplayJob` — which names a cached
    spec the worker re-loads — a trace job carries its (sub-)trace in
    the item itself.  Trace shards are slices of an already-generated
    service trace; they have no cache identity of their own, so the
    parent ships them over the fork boundary (``TraceColumns`` pickles
    as its five raw arrays).
    """

    trace: object
    scheme: str
    config: object
    marks: Tuple[int, ...]
    #: Cores of the surrounding simulated machine (the shard count);
    #: schemes attribute cross-core shootdown slices when > 1.
    n_cores: int
    label: str


def _run_trace_job(job: TraceJob) -> RunStats:
    """Execute one shard replay (worker entry point).

    Same obs wrapping as :func:`_run_job` — wall/CPU time and the
    completion counter fold into ``RunStats.metrics`` so the parent's
    :func:`_merge_batch_metrics` treats shard replays and cached-spec
    replays identically.
    """
    from .context import replay_one
    if not obs.enabled():
        return replay_one(job.trace, job.scheme, job.config,
                          marks=job.marks, n_cores=job.n_cores)
    ev = obs.active_events()
    if ev is not None:
        ev.emit("job.replay", label=job.label, scheme=job.scheme)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    stats = replay_one(job.trace, job.scheme, job.config,
                       marks=job.marks, n_cores=job.n_cores)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    registry = obs.MetricsRegistry()
    if stats.metrics:
        registry.merge(stats.metrics)
    registry.counter("engine.jobs.completed").inc()
    registry.histogram("engine.job.wall_s").observe(wall)
    registry.histogram("engine.job.cpu_s").observe(cpu)
    stats.metrics = registry.as_dict()
    if ev is not None:
        ev.emit("job.done", label=job.label, scheme=job.scheme,
                wall_s=round(wall, 6), cpu_s=round(cpu, 6))
        ev.flush()
    return stats


def replay_trace_jobs(items: Sequence[TraceJob], *,
                      jobs: Optional[int] = None) -> List[RunStats]:
    """Run a batch of shard replays, fanning out over workers.

    Results come back in item order; per-job obs metrics merge into the
    parent registry through the same batch-merge path as
    :func:`replay_jobs`.
    """
    items = list(items)
    if not obs.enabled():
        return parallel_map(_run_trace_job, items, jobs=jobs)
    wall0 = time.perf_counter()
    results = parallel_map(_run_trace_job, items, jobs=jobs)
    _merge_batch_metrics(results, time.perf_counter() - wall0,
                         worker_count(jobs))
    return results


def replay_jobs(jobs_list: Sequence[ReplayJob], *,
                jobs: Optional[int] = None) -> List[RunStats]:
    """Run a batch of replay jobs, fanning out over workers.

    Results come back in job order.  Jobs should reference traces the
    parent has already warmed (via :meth:`repro.engine.core.Engine.warm`)
    so workers only replay; a cold job still works — the worker
    generates the trace itself — it just duplicates generation effort
    when several cold jobs share a spec.
    """
    jobs_list = list(jobs_list)
    if not obs.enabled():
        return parallel_map(_run_job, jobs_list, jobs=jobs)
    wall0 = time.perf_counter()
    results = parallel_map(_run_job, jobs_list, jobs=jobs)
    _merge_batch_metrics(results, time.perf_counter() - wall0,
                         worker_count(jobs))
    return results
