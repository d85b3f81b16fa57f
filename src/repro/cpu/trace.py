"""Execution traces — the Pin-equivalent of the evaluation methodology.

The paper obtains traces of the benchmarks with Intel Pin and replays them
in Sniper with the protection schemes' extra events and latencies
(Section V).  Here the instrumented workloads *generate* the trace
directly: every load/store against pool or volatile memory is recorded
with its virtual address, and the instrumentation inserts permission
switches (WRPKRU/SETPERM) exactly where the methodology prescribes.

Every event has five fields, ``(kind, tid, icount, a, b)``, stored as
five parallel numpy columns (:class:`TraceColumns`; row tuples are a
view built on demand).  ``icount`` counts the instructions retired
since the previous event (including this one) and ``a``/``b`` are
per-kind operands:

===========  ==========================================
LOAD/STORE   a = virtual address, b = access size
PERM         a = domain ID,      b = Perm value
INIT_PERM    a = domain ID,      b = Perm value (setup, uncharged)
CTXSW        a = incoming tid    (tid field = outgoing)
ATTACH       a = domain ID       (VMA looked up in side table)
DETACH       a = domain ID
===========  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..permissions import Perm
from ..errors import TraceError
from ..os.address_space import VMA

LOAD = 0
STORE = 1
PERM = 2
INIT_PERM = 3
CTXSW = 4
ATTACH = 5
DETACH = 6
FETCH = 7  #: instruction fetch (execute-only memory, Section II-B)

KIND_NAMES = {LOAD: "load", STORE: "store", PERM: "perm",
              INIT_PERM: "init_perm", CTXSW: "ctxsw", ATTACH: "attach",
              DETACH: "detach", FETCH: "fetch"}

#: Instructions modelled per memory access (the access itself plus the
#: address arithmetic / loop control around it).
ICOUNT_PER_ACCESS = 3
#: Instructions modelled per permission switch (the SETPERM/WRPKRU).
ICOUNT_PER_PERM = 1


@dataclass
class TraceLayout:
    """The process image a replay needs, captured when recording finishes.

    A trace's virtual addresses only make sense against the address space
    that generated them.  The layout snapshots that state — every VMA, the
    page-table contents (fault order preserved, so frame numbers are
    reproducible), and the thread count — which lets a replay reconstruct
    a *fresh* kernel/process instead of mutating the workload's, and lets
    a trace loaded from the persistent cache replay with no workspace at
    all.
    """

    #: Every VMA of the generating process (PMO and volatile regions).
    vmas: List[VMA]
    #: Leaf page-table entries as ``(vpn, pfn, perm, pkey, domain)``, in
    #: fault order (insertion order of the generating page table).
    ptes: List[Tuple[int, int, int, int, int]]
    #: Threads the generating process had spawned.
    n_threads: int = 1


class TraceColumns:
    """The five event fields as parallel numpy arrays (columnar layout).

    ``kinds`` (uint8), ``tids`` (uint32), ``icounts`` (uint32),
    ``operand_a`` (uint64) and ``operand_b`` (uint64) — exactly the
    arrays the .npz trace format stores (``docs/TRACE_FORMAT.md``), so a
    loaded trace hands them over without building a tuple per event.
    The inspection tools and traced replays read plain-int list views of
    the columns (:meth:`lists`); the fast replay engine memoizes derived
    data (access radiographs, run tables, cycle folds) in
    :meth:`replay_cache`.
    """

    __slots__ = ("kinds", "tids", "icounts", "operand_a", "operand_b",
                 "_lists", "_replay_cache")

    def __init__(self, kinds: np.ndarray, tids: np.ndarray,
                 icounts: np.ndarray, operand_a: np.ndarray,
                 operand_b: np.ndarray):
        self.kinds = kinds
        self.tids = tids
        self.icounts = icounts
        self.operand_a = operand_a
        self.operand_b = operand_b
        self._lists = None
        self._replay_cache: Dict = {}

    @classmethod
    def from_events(cls,
                    events: List[Tuple[int, int, int, int, int]]
                    ) -> "TraceColumns":
        n = len(events)
        return cls(
            np.fromiter((e[0] for e in events), dtype=np.uint8, count=n),
            np.fromiter((e[1] for e in events), dtype=np.uint32, count=n),
            np.fromiter((e[2] for e in events), dtype=np.uint32, count=n),
            np.fromiter((e[3] for e in events), dtype=np.uint64, count=n),
            np.fromiter((e[4] for e in events), dtype=np.uint64, count=n))

    def __len__(self) -> int:
        return int(self.kinds.shape[0])

    def lists(self) -> Tuple[list, list, list, list, list]:
        """The five columns as plain-int Python lists (cached)."""
        if self._lists is None:
            self._lists = (self.kinds.tolist(), self.tids.tolist(),
                           self.icounts.tolist(), self.operand_a.tolist(),
                           self.operand_b.tolist())
        return self._lists

    def replay_cache(self, key, build):
        """Memoize replay-derived data (penalties, radiographs) by key."""
        out = self._replay_cache.get(key)
        if out is None:
            out = self._replay_cache[key] = build()
        return out

    def select(self, index: np.ndarray) -> "TraceColumns":
        """A new column set holding the rows picked by ``index``.

        ``index`` is a slice, a boolean mask or an integer index array.
        A mask or index array copies the five columns, a slice views
        them; derived caches do not carry over — they are keyed to the
        full event stream.
        """
        return TraceColumns(self.kinds[index], self.tids[index],
                            self.icounts[index], self.operand_a[index],
                            self.operand_b[index])

    # Derived caches are cheap to rebuild and can hold context-bound
    # state; ship only the raw columns across process boundaries.
    def __getstate__(self):
        return (self.kinds, self.tids, self.icounts,
                self.operand_a, self.operand_b)

    def __setstate__(self, state):
        self.__init__(*state)


class TraceColumnsBuilder:
    """Grows a :class:`TraceColumns` out of appended chunks.

    :class:`TraceRecorder` lands each chunk — a batch of recorded rows,
    or a bulk chunk from a streaming generator such as
    :mod:`repro.service.server` — into preallocated arrays, doubling
    capacity when a chunk would overflow, so million-event traces are
    assembled with a handful of allocations.  A producer that knows the
    final size calls :meth:`reserve` and pays zero regrows.
    """

    __slots__ = ("_kinds", "_tids", "_icounts", "_a", "_b", "_n")

    def __init__(self):
        capacity = 1024
        self._kinds = np.empty(capacity, dtype=np.uint8)
        self._tids = np.empty(capacity, dtype=np.uint32)
        self._icounts = np.empty(capacity, dtype=np.uint32)
        self._a = np.empty(capacity, dtype=np.uint64)
        self._b = np.empty(capacity, dtype=np.uint64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _grow(self, needed: int) -> None:
        capacity = len(self._kinds)
        while capacity < needed:
            capacity *= 2
        for name in ("_kinds", "_tids", "_icounts", "_a", "_b"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[:self._n] = old[:self._n]
            setattr(self, name, grown)

    def reserve(self, total: int) -> None:
        """Ensure capacity for ``total`` rows (no-op when already there).

        Producers that can price the stream up front call this once and
        pay zero regrows on the chunks that follow.
        """
        if total > len(self._kinds):
            self._grow(total)

    def extend(self, kinds, tids, icounts, operand_a, operand_b) -> None:
        """Append one chunk (five equal-length array-likes)."""
        chunk = len(kinds)
        end = self._n + chunk
        if end > len(self._kinds):
            self._grow(end)
        n = self._n
        self._kinds[n:end] = kinds
        self._tids[n:end] = tids
        self._icounts[n:end] = icounts
        self._a[n:end] = operand_a
        self._b[n:end] = operand_b
        self._n = end

    def finish(self) -> TraceColumns:
        """The assembled columns (trimmed views of the buffers)."""
        n = self._n
        return TraceColumns(self._kinds[:n], self._tids[:n],
                            self._icounts[:n], self._a[:n], self._b[:n])


class Trace:
    """An immutable recorded execution, stored as event columns.

    ``.columns`` is the one representation: the replay engine, the
    trace writer and the service layer read it directly.  ``.events``
    is a row-tuple view built on demand; only the test suite's
    reference interpreter reads it.
    """

    def __init__(self, columns: TraceColumns,
                 attach_info: Optional[Dict[int, Tuple[VMA, Perm]]] = None,
                 total_instructions: int = 0, label: str = "",
                 layout: Optional[TraceLayout] = None):
        self.columns = columns
        #: domain -> (vma, intent) for replaying attach events.
        self.attach_info = attach_info if attach_info is not None else {}
        self.total_instructions = total_instructions
        self.label = label
        #: Process image for isolated replay; ``None`` for hand-built
        #: traces, which the replay engine refuses.
        self.layout = layout

    @property
    def events(self) -> List[Tuple[int, int, int, int, int]]:
        """The events as ``(kind, tid, icount, a, b)`` rows, built per call."""
        return list(zip(*self.columns.lists()))

    def __len__(self) -> int:
        return len(self.columns)

    def subset(self, index, label: str = "") -> "Trace":
        """A new trace holding the events picked by ``index``.

        ``index`` is a numpy boolean mask or integer index array over
        the event stream.  The subset *shares* this trace's
        ``attach_info`` and ``layout`` (replay contexts copy both before
        mutating anything, so sharing is safe) — which is exactly what a
        per-worker shard needs: the same process image, a filtered event
        stream.  See :func:`repro.service.shard.shard_by_worker`.
        """
        columns = self.columns.select(index)
        return Trace(columns, self.attach_info,
                     int(columns.icounts.sum()), label or self.label,
                     self.layout)

    def counts(self) -> Dict[str, int]:
        """Histogram of event kinds (debugging/report aid)."""
        counts = np.bincount(self.columns.kinds, minlength=len(KIND_NAMES))
        return {KIND_NAMES[kind]: int(n)
                for kind, n in enumerate(counts.tolist()) if n}


#: Recorded rows buffered before they move into the column builder.
ROW_CHUNK = 1 << 16


class TraceRecorder:
    """Builds a :class:`Trace`; the instrumented workloads drive this.

    Events arrive one at a time (:meth:`load`, :meth:`perm`, ...) or as
    column chunks (:meth:`extend`).  Single events are buffered as rows
    and move into a :class:`TraceColumnsBuilder` every :data:`ROW_CHUNK`.
    """

    def __init__(self, label: str = ""):
        #: Rows recorded since the last move into the builder.
        self._events: List[Tuple[int, int, int, int, int]] = []
        self._builder: Optional[TraceColumnsBuilder] = TraceColumnsBuilder()
        self._attach_info: Dict[int, Tuple[VMA, Perm]] = {}
        self._pending_icount = 0
        self._total_instructions = 0
        self.label = label

    # -- instruction accounting -----------------------------------------------

    def compute(self, instructions: int) -> None:
        """Model ``instructions`` of non-memory work before the next event."""
        self._pending_icount += instructions

    def _emit(self, kind: int, tid: int, icount: int, a: int, b: int) -> None:
        if self._builder is None:
            raise TraceError("recorder already finished")
        icount += self._pending_icount
        self._pending_icount = 0
        self._total_instructions += icount
        rows = self._events
        rows.append((kind, tid, icount, a, b))
        if len(rows) >= ROW_CHUNK:
            self._flush()

    def _flush(self) -> None:
        """Move the buffered rows into the column builder."""
        if self._builder is None:
            raise TraceError("recorder already finished")
        if self._events:
            block = TraceColumns.from_events(self._events)
            self._builder.extend(block.kinds, block.tids, block.icounts,
                                 block.operand_a, block.operand_b)
            self._events = []

    # -- events --------------------------------------------------------------------

    def load(self, tid: int, vaddr: int, size: int = 8) -> None:
        self._emit(LOAD, tid, ICOUNT_PER_ACCESS, vaddr, size)

    def store(self, tid: int, vaddr: int, size: int = 8) -> None:
        self._emit(STORE, tid, ICOUNT_PER_ACCESS, vaddr, size)

    def fetch(self, tid: int, vaddr: int, size: int = 8) -> None:
        """An instruction fetch: legal even from execute-only domains
        (MPK's access-disable blocks data reads/writes, not execution —
        Section II-B)."""
        self._emit(FETCH, tid, ICOUNT_PER_ACCESS, vaddr, size)

    def perm(self, tid: int, domain: int, perm: Perm) -> None:
        """A measured SETPERM/WRPKRU permission switch."""
        self._emit(PERM, tid, ICOUNT_PER_PERM, domain, int(perm))

    def init_perm(self, tid: int, domain: int, perm: Perm) -> None:
        """Attach-time default permission (setup; replayed uncharged)."""
        self._emit(INIT_PERM, tid, 0, domain, int(perm))

    def context_switch(self, old_tid: int, new_tid: int) -> None:
        self._emit(CTXSW, old_tid, 0, new_tid, 0)

    def attach(self, domain: int, vma: VMA, intent: Perm) -> None:
        self._attach_info[domain] = (vma, intent)
        self._emit(ATTACH, 0, 0, domain, 0)

    def detach(self, domain: int) -> None:
        self._emit(DETACH, 0, 0, domain, 0)

    # -- bulk chunks -----------------------------------------------------------------

    def reserve(self, events: int) -> None:
        """Make room for ``events`` more events than recorded so far.

        A producer that can price its stream up front calls this once
        and pays no regrow on the :meth:`extend` calls that follow.
        """
        self._flush()
        self._builder.reserve(len(self._builder) + events)

    def extend(self, kinds, tids, icounts, operand_a, operand_b) -> None:
        """Append one chunk of events given as five equal-length columns.

        The chunk follows every event recorded before it.  Instructions
        pending from :meth:`compute` stay pending: they land on the next
        event recorded one at a time.
        """
        self._flush()
        self._builder.extend(kinds, tids, icounts, operand_a, operand_b)
        self._total_instructions += int(np.sum(icounts, dtype=np.int64))

    # -- completion --------------------------------------------------------------------

    def finish(self) -> Trace:
        """The recorded trace.  The recorder keeps no reference to its
        columns, so it cannot pin them once the trace is dropped."""
        self._flush()
        columns = self._builder.finish()
        self._builder = None
        return Trace(columns, self._attach_info, self._total_instructions,
                     self.label)
