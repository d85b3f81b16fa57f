"""Job-based experiment engine: declarative jobs, cached traces,
parallel replay.

Layering (bottom up):

* :mod:`repro.engine.job` — :class:`WorkloadSpec` / :class:`ReplayJob`,
  pure picklable descriptions with stable content hashes;
* :mod:`repro.engine.cache` — :class:`TraceCache`, the two-layer
  (memory + ``REPRO_TRACE_CACHE`` disk) trace store;
* :mod:`repro.engine.context` — :class:`ReplayContext`, isolated replay
  state rebuilt from a trace's recorded layout;
* :mod:`repro.engine.executor` — ``REPRO_JOBS``-wide fan-out of replay
  jobs over ``multiprocessing`` workers, and :func:`replay_cells`, the
  grid every scheme replay runs through;
* :mod:`repro.engine.core` — :class:`Engine`, the facade the experiment
  drivers run on.
"""

from .cache import (DEFAULT_CACHE_DIR, ENV_CACHE, CacheStats, TraceCache,
                    trace_cache_root)
from .context import ReplayContext, replay_one
from .core import Engine
from .executor import (ENV_JOBS, parallel_map, replay_cells, replay_jobs,
                       worker_count)
from .job import ReplayJob, WorkloadSpec

__all__ = [
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "ENV_CACHE",
    "ENV_JOBS",
    "Engine",
    "ReplayContext",
    "ReplayJob",
    "TraceCache",
    "WorkloadSpec",
    "parallel_map",
    "replay_cells",
    "replay_jobs",
    "replay_one",
    "trace_cache_root",
    "worker_count",
]
