"""The declarative job model: what to generate and what to replay.

A :class:`WorkloadSpec` names one traceable execution (suite + fully
resolved parameters); a :class:`ReplayJob` is one replay of a trace
under one protection scheme and one :class:`SimConfig`.  Both are pure
picklable data, shipped to ``multiprocessing`` workers by the parallel
executor.  A spec's stable content hash keys the persistent trace cache
(it covers every parameter plus the trace-format version — any change
regenerates).  A job names its trace by spec or, when the trace has no
cache identity (a per-worker shard, a trace a caller recorded itself),
carries the trace itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Iterable, List, Optional, Tuple

from ..cpu.trace import Trace
from ..errors import EngineError
from ..sim.config import DEFAULT_CONFIG, SimConfig
from ..workloads.base import Workspace
from ..workloads.families import workload_by_name

#: The unprotected replay every scheme's overhead is measured against.
BASELINE = "baseline"


def _canonical(document) -> bytes:
    """Deterministic JSON encoding (the hashing substrate)."""
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode()


def _digest(document) -> str:
    return hashlib.sha256(_canonical(document)).hexdigest()[:32]


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """One traceable execution: a suite plus its full parameter set."""

    suite: str
    params: object  # MicroParams | WhisperParams (frozen dataclasses)
    #: Scheme-keyed service specs (``dispatch="replay"``): the dispatch
    #: schedule is derived from this scheme's replayed completions, so
    #: each (params, scheme) pair is its own deterministic cacheable
    #: trace.  ``None`` (every other suite, and nominal-dispatch
    #: service runs) keeps the pre-existing spec identity.
    scheme: Optional[str] = None

    @classmethod
    def build(cls, suite: str, *, scale: float = 1.0,
              **overrides) -> "WorkloadSpec":
        """Construct a spec for any registered workload family.

        ``overrides`` are the family's params fields; ``scale`` is the
        ``REPRO_OPS`` hook (applied through the params' ``scaled``).
        The scenario compiler builds every spec through here, so a
        compiled spec is **constructed identically** to a handwritten
        one — same params class, same defaults, same hash.
        """
        family = workload_by_name(suite)
        params = family.params_type(**overrides).scaled(scale)
        return cls(suite=suite, params=params)

    @classmethod
    def micro(cls, benchmark: str, n_pools: int, *, scale: float = 1.0,
              **overrides) -> "WorkloadSpec":
        return cls.build("micro", scale=scale, benchmark=benchmark,
                         n_pools=n_pools, **overrides)

    @classmethod
    def whisper(cls, benchmark: str, *, scale: float = 1.0,
                **overrides) -> "WorkloadSpec":
        return cls.build("whisper", scale=scale, benchmark=benchmark,
                         **overrides)

    @classmethod
    def service(cls, *, scale: float = 1.0, **overrides) -> "WorkloadSpec":
        return cls.build("service", scale=scale, **overrides)

    def keyed(self, scheme: str) -> "WorkloadSpec":
        """The scheme-keyed variant of a spec (service-style suites)."""
        if workload_by_name(self.suite).generate_keyed is None:
            raise EngineError(
                f"scheme-keyed specs exist only for suites with keyed "
                f"generation (the service suite); got {self.suite!r}")
        return dataclasses.replace(self, scheme=scheme)

    # -- identity ---------------------------------------------------------------

    def describe(self) -> dict:
        """JSON-safe identity document (everything that shapes the trace).

        Params fields declared with ``metadata={"elide_default": True}``
        are dropped while they hold their default value: a knob added
        *after* traces were cached does not change the identity of runs
        that never touch it, so the content-addressed cache (and every
        pinned golden hash) survives parameter-space growth.
        """
        from ..cpu.tracefile import FORMAT_VERSION
        params = dataclasses.asdict(self.params)
        for field in dataclasses.fields(self.params):
            if field.metadata.get("elide_default") and \
                    params.get(field.name) == field.default:
                del params[field.name]
        document = {"suite": self.suite,
                    "format": FORMAT_VERSION,
                    "params": params}
        if self.scheme is not None:
            # Only keyed specs carry the key, so unkeyed hashes are
            # unchanged from before scheme-keyed specs existed.
            document["scheme"] = self.scheme
        return document

    def cache_key(self) -> str:
        """Stable content hash — the persistent trace cache's file key."""
        return _digest(self.describe())

    @property
    def label(self) -> str:
        if self.suite == "service":
            label = (f"service-{getattr(self.params, 'n_clients', 0)}c-"
                     f"{getattr(self.params, 'batching', '?')}")
            if self.scheme is not None:
                label += f"-{self.scheme}"
            return label
        benchmark = getattr(self.params, "benchmark", "?")
        if self.suite == "micro":
            return f"micro-{benchmark}-{getattr(self.params, 'n_pools', 0)}"
        return f"{self.suite}-{benchmark}"

    # -- generation --------------------------------------------------------------

    def generate(self) -> Tuple[Trace, Workspace]:
        """Run the instrumented workload; returns its trace + workspace.

        Generation is dispatched through the workload-family registry
        (:mod:`repro.workloads.families`) — a registered plugin family
        replays, caches and fans out exactly like the built-in suites.
        """
        try:
            family = workload_by_name(self.suite)
        except KeyError as error:
            # Registry lookups raise a helpful KeyError; the engine's
            # contract for a malformed spec is EngineError.
            raise EngineError(str(error)) from None
        if self.scheme is not None:
            if family.generate_keyed is None:
                raise EngineError(
                    f"scheme-keyed specs exist only for suites with "
                    f"keyed generation (the service suite); got "
                    f"{self.suite!r}")
            return family.generate_keyed(self.params, self.scheme)
        return family.generate(self.params)


@dataclasses.dataclass(frozen=True)
class ReplayJob:
    """One scheme replay of one trace — pure data, safe to pickle.

    The trace is named by ``spec`` and loaded through the trace cache,
    or carried as ``trace`` when it has no cache identity (a shard of
    a service trace, a trace recorded by the caller).
    """

    spec: Optional[WorkloadSpec]
    scheme: str
    config: SimConfig = DEFAULT_CONFIG
    #: Trace-cache root for the executing worker; ``None`` = environment
    #: default, ``"0"`` = disabled (the worker then relies on the
    #: fork-inherited in-memory cache).
    cache_root: Optional[str] = None
    #: Event indices to snapshot elapsed cycles at
    #: (``RunStats.mark_cycles``); the service layer derives per-batch
    #: completion times from these.  ``None`` = plain unmarked replay.
    marks: Optional[Tuple[int, ...]] = None
    #: The trace itself, for jobs without a ``spec``.
    trace: Optional[Trace] = None
    #: Cores of the surrounding simulated machine (a sharded replay's
    #: shard count); schemes attribute cross-core shootdowns when > 1.
    n_cores: int = 1

    @property
    def label(self) -> str:
        return self.spec.label if self.trace is None else self.trace.label


def scheme_cell(schemes: Iterable[str], **fields) -> List[ReplayJob]:
    """One job per scheme (duplicates collapse), all sharing ``fields``."""
    return [ReplayJob(scheme=name, **fields)
            for name in dict.fromkeys(schemes)]
