"""Trace replay with cycle-approximate timing — the Sniper stand-in.

:class:`ReplayEngine` is the base of the replay engine: it replays a
recorded trace against a fresh TLB + cache hierarchy and one protection
scheme, accumulating cycles:

* retired instructions cost ``base_cpi`` cycles each;
* a memory access pays its TLB cost (L1 hit free, L2 hit 4 cycles, full
  miss 30 cycles including the page-table walk) plus its cache/main-memory
  latency (NVM-backed PMO frames cost 3x DRAM);
* the protection scheme charges its own extra cycles through the stats
  buckets (see :mod:`repro.core.schemes`).

The baseline run uses the ``NullProtection`` scheme over the *same* trace,
so overhead percentages isolate exactly the protection machinery, as in
the paper's methodology (Section V).

The base holds what every replay shares: :meth:`ReplayEngine.run` and
its hooks — the event span, the metrics harvest and the cold-event
dispatch.  The body that walks the events, ``_simulate``, is the
array-backed engine's (:mod:`repro.cpu.fast_timing`); the test suite's
reference interpreter (``tests/oracle.py``) is a second body over the
same hooks.  Traced, every hook that can emit a record (a TLB fill, a
permission check, a cold event) first stamps ``ev.cycle``: the machine
cycles before the event, plus its ``icount*cpi``, plus its TLB penalty
(fill or check), plus the scheme charges so far, added in that order.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Type

from .. import obs
from ..core.schemes import ProtectionScheme
from ..errors import SimulationError
from ..mem.cache import CacheHierarchy
from ..mem.tlb import TwoLevelTLB
from ..os.kernel import Kernel
from ..os.process import Process
from ..sim.config import SimConfig
from ..sim.stats import RunStats
from . import trace as tr
from .trace import ATTACH, CTXSW, DETACH, INIT_PERM, PERM


class ReplayEngine:
    """Replays one trace under one protection scheme; subclasses supply
    the walk (``_simulate``)."""

    #: TLB/cache model classes (the test oracle swaps in its own).
    tlb_class = TwoLevelTLB
    cache_class = CacheHierarchy

    def __init__(self, config: SimConfig, kernel: Kernel, process: Process,
                 scheme_class: Type[ProtectionScheme], *,
                 attach_info: Optional[Dict[int, Tuple]] = None,
                 n_cores: int = 1):
        self.config = config
        self.kernel = kernel
        self.process = process
        #: Engine-local attach table (domain -> (vma, intent)).  When set,
        #: ATTACH events resolve here instead of ``trace.attach_info``, so
        #: schemes that mutate their VMA (libmpk's pkey rewrites) touch a
        #: replay-private copy, never the recorded trace's objects.
        self.attach_info = attach_info
        tlb_cfg = config.tlb
        cache_cfg = config.cache
        self.tlb = self.tlb_class(
            l1_entries=tlb_cfg.l1_entries, l1_ways=tlb_cfg.l1_ways,
            l2_entries=tlb_cfg.l2_entries, l2_ways=tlb_cfg.l2_ways)
        self.caches = self.cache_class(
            l1_size=cache_cfg.l1_size, l1_ways=cache_cfg.l1_ways,
            l2_size=cache_cfg.l2_size, l2_ways=cache_cfg.l2_ways)
        self.stats = RunStats()
        self.scheme = scheme_class(config, process, self.tlb, self.stats)
        #: Cores of the surrounding machine (sharded multi-core replay
        #: sets this to the worker count so schemes can attribute the
        #: cross-core slice of their shootdown broadcasts; 1 — the
        #: default — leaves every scheme's accounting untouched).
        self.n_cores = max(1, int(n_cores))
        self.scheme.n_cores = self.n_cores

    def run(self, trace: tr.Trace, *,
            marks: Optional[Sequence[int]] = None) -> RunStats:
        """Replay the whole trace; returns the populated statistics.

        ``marks`` is an optional ascending sequence of event indices; the
        total elapsed cycles (machine cycles plus scheme charges) are
        snapshotted just before each marked index and stored on
        ``RunStats.mark_cycles``.  Equal marks take the same snapshot,
        and a mark at or past ``len(trace)`` the final total; a negative
        or descending mark raises :class:`SimulationError`.  The service
        layer uses this for per-request latency accounting; the replay
        itself is unaffected (the event stream is processed identically,
        so cycle totals are bit-identical with and without marks).
        """
        previous = 0
        for index, mark in enumerate(marks or ()):
            if mark < previous:
                raise SimulationError(
                    f"mark {index} is {mark}, below {previous}: marks "
                    f"must ascend from 0")
            previous = mark
        ev = self._begin(trace)
        try:
            self._simulate(trace, marks)
            return self._finish()
        finally:
            # An aborted replay (protection fault, key exhaustion) emits
            # no replay.done, but its span still closes: later records
            # must not carry its scheme/label/cycle.
            if ev is not None:
                ev.end_replay()
                ev.flush()

    def _simulate(self, trace: tr.Trace,
                  marks: Optional[Sequence[int]]) -> None:
        """Replay every event into ``self.stats``: cycles, counters and,
        with ``marks``, ``mark_cycles``."""
        raise NotImplementedError

    # -- hooks ----------------------------------------------------------------

    def _begin(self, trace: tr.Trace):
        """Resolve the attach table and open the event span; returns the
        event trace, or ``None`` when tracing is off.  Tracing charges
        nothing: ``RunStats`` are bit-identical with it on or off."""
        self._attach_table = (self.attach_info
                              if self.attach_info is not None
                              else trace.attach_info)
        ev = self._ev = obs.active_events()
        if ev is not None:
            ev.begin_replay(self.scheme.name, trace.label)
            ev.emit("replay.start")
        return ev

    def _finish(self) -> RunStats:
        """Emit ``replay.done`` and harvest a completed replay's metrics."""
        stats = self.stats
        ev = self._ev
        if ev is not None:
            ev.cycle = stats.cycles
            ev.emit("replay.done", cycles=stats.cycles,
                    instructions=stats.instructions,
                    buckets=dict(stats.buckets))
        if obs.metrics_enabled():
            registry = obs.MetricsRegistry()
            self.tlb.report_metrics(registry)
            self.caches.report_metrics(registry)
            self.scheme.report_metrics(registry)
            stats.metrics = registry.as_dict()
        return stats

    def _cold_event(self, kind: int, tid: int, a: int, b: int) -> None:
        """One PERM/INIT_PERM/CTXSW/ATTACH/DETACH event: its counter, its
        record and the scheme hook.  ``b`` is a :class:`Perm` for PERM
        and INIT_PERM.  The caller has stamped ``ev.cycle`` when tracing
        is on."""
        stats = self.stats
        scheme = self.scheme
        ev = self._ev
        if kind == PERM:
            stats.perm_switches += 1
            if ev is not None:
                ev.emit("perm_switch", tid=tid, domain=a, perm=int(b))
            scheme.perm_switch(tid, a, b)
        elif kind == INIT_PERM:
            scheme.set_initial_perm(a, tid, b)
        elif kind == CTXSW:
            stats.context_switches += 1
            if ev is not None:
                ev.emit("ctx_switch", old_tid=tid, new_tid=a)
            scheme.context_switch(tid, a)
        elif kind == ATTACH:
            vma, intent = self._attach_table[a]
            # Replay against a process whose attachments may already
            # exist (trace generation used the same process).
            if a not in self.process.attachments and vma.pmo_id != a:
                raise SimulationError(f"attach of unknown domain {a}")
            if ev is not None:
                ev.emit("attach", domain=a)
            scheme.attach_domain(vma, intent)
        elif kind == DETACH:
            if ev is not None:
                ev.emit("detach", domain=a)
            scheme.detach_domain(a)
        else:  # pragma: no cover - malformed trace
            raise SimulationError(f"unknown event kind {kind}")
