"""Execution traces — the Pin-equivalent of the evaluation methodology.

The paper obtains traces of the benchmarks with Intel Pin and replays them
in Sniper with the protection schemes' extra events and latencies
(Section V).  Here the instrumented workloads *generate* the trace
directly: every load/store against pool or volatile memory is recorded
with its virtual address, and the instrumentation inserts permission
switches (WRPKRU/SETPERM) exactly where the methodology prescribes.

Event encoding (plain tuples for replay speed):
``(kind, tid, icount, a, b)`` where ``icount`` counts the instructions
retired since the previous event (including this one) and ``a``/``b``
are per-kind operands:

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

from ..core.permissions import Perm
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
    The fast replay engine iterates plain-int list views of the columns
    (:meth:`lists`) and memoizes derived per-config data (penalty
    columns, access radiographs) in :meth:`replay_cache`.
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

    @classmethod
    def concat(cls, blocks: List["TraceColumns"]) -> "TraceColumns":
        """One column set holding every block's rows, in block order."""
        if len(blocks) == 1:
            return blocks[0]
        return cls(np.concatenate([b.kinds for b in blocks]),
                   np.concatenate([b.tids for b in blocks]),
                   np.concatenate([b.icounts for b in blocks]),
                   np.concatenate([b.operand_a for b in blocks]),
                   np.concatenate([b.operand_b for b in blocks]))

    def __len__(self) -> int:
        return int(self.kinds.shape[0])

    def lists(self) -> Tuple[list, list, list, list, list]:
        """The five columns as plain-int Python lists (cached)."""
        if self._lists is None:
            self._lists = (self.kinds.tolist(), self.tids.tolist(),
                           self.icounts.tolist(), self.operand_a.tolist(),
                           self.operand_b.tolist())
        return self._lists

    def events(self) -> List[Tuple[int, int, int, int, int]]:
        """Materialize the row-wise tuple list (reference-engine view)."""
        return list(zip(*self.lists()))

    def replay_cache(self, key, build):
        """Memoize replay-derived data (penalties, radiographs) by key."""
        out = self._replay_cache.get(key)
        if out is None:
            out = self._replay_cache[key] = build()
        return out

    def select(self, index: np.ndarray) -> "TraceColumns":
        """A new column set holding the rows picked by ``index``.

        ``index`` is anything numpy fancy indexing accepts (a boolean
        mask or an integer index array).  The selection copies the five
        columns; derived caches do not carry over — they are keyed to
        the full event stream.
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
    """Grows a :class:`TraceColumns` out of streamed chunks.

    The streaming trace generators (:mod:`repro.service.server`) emit
    events in fixed-size chunks; the builder lands each chunk into
    preallocated arrays, doubling capacity when a chunk would overflow
    — so million-event traces are assembled with a handful of
    allocations instead of one Python tuple per event.  Callers that
    know the final size pass it as ``capacity`` and pay zero regrows.
    """

    __slots__ = ("_kinds", "_tids", "_icounts", "_a", "_b", "_n")

    def __init__(self, capacity: int = 1024):
        capacity = max(1, int(capacity))
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

    def append_columns(self, block: TraceColumns) -> None:
        self.extend(block.kinds, block.tids, block.icounts,
                    block.operand_a, block.operand_b)

    def finish(self) -> TraceColumns:
        """The assembled columns (trimmed views of the buffers)."""
        n = self._n
        return TraceColumns(self._kinds[:n], self._tids[:n],
                            self._icounts[:n], self._a[:n], self._b[:n])


class Trace:
    """An immutable recorded execution.

    Events live in whichever representation the producer had on hand —
    a row-wise tuple list (fresh recordings) or columnar numpy arrays
    (traces loaded from .npz) — and the other view materializes lazily:
    ``.events`` for the reference interpreter, ``.columns`` for the
    array-backed fast engine and the trace writer.
    """

    def __init__(self, events: Optional[List[Tuple[int, int, int, int,
                                                   int]]] = None,
                 attach_info: Optional[Dict[int, Tuple[VMA, Perm]]] = None,
                 total_instructions: int = 0, label: str = "",
                 layout: Optional[TraceLayout] = None, *,
                 columns: Optional[TraceColumns] = None):
        if events is None and columns is None:
            raise ValueError("Trace needs events or columns")
        self._events = events
        self._columns = columns
        #: domain -> (vma, intent) for replaying attach events.
        self.attach_info = attach_info if attach_info is not None else {}
        self.total_instructions = total_instructions
        self.label = label
        #: Process image for isolated replay; ``None`` for hand-built
        #: traces, which the replay engine refuses.
        self.layout = layout

    @property
    def events(self) -> List[Tuple[int, int, int, int, int]]:
        events = self._events
        if events is None:
            events = self._events = self._columns.events()
        return events

    @property
    def columns(self) -> TraceColumns:
        columns = self._columns
        if columns is None:
            columns = self._columns = TraceColumns.from_events(self._events)
        return columns

    def __len__(self) -> int:
        if self._events is not None:
            return len(self._events)
        return len(self._columns)

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
        return Trace(attach_info=self.attach_info,
                     total_instructions=int(columns.icounts.sum()),
                     label=label or self.label, layout=self.layout,
                     columns=columns)

    def counts(self) -> Dict[str, int]:
        """Histogram of event kinds (debugging/report aid)."""
        if self._events is not None:
            kinds = [event[0] for event in self._events]
        else:
            kinds = self._columns.kinds.tolist()
        out: Dict[str, int] = {}
        for kind in kinds:
            name = KIND_NAMES[kind]
            out[name] = out.get(name, 0) + 1
        return out


class TraceRecorder:
    """Builds a :class:`Trace`; the instrumented workloads drive this."""

    def __init__(self, label: str = ""):
        self._events: List[Tuple[int, int, int, int, int]] = []
        self._attach_info: Dict[int, Tuple[VMA, Perm]] = {}
        self._pending_icount = 0
        self._total_instructions = 0
        self._finished = False
        self.label = label

    # -- instruction accounting -----------------------------------------------

    def compute(self, instructions: int) -> None:
        """Model ``instructions`` of non-memory work before the next event."""
        self._pending_icount += instructions

    def _emit(self, kind: int, tid: int, icount: int, a: int, b: int) -> None:
        if self._finished:
            raise TraceError("recorder already finished")
        icount += self._pending_icount
        self._pending_icount = 0
        self._total_instructions += icount
        self._events.append((kind, tid, icount, a, b))

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

    # -- streaming hand-off ----------------------------------------------------------

    @property
    def attach_info(self) -> Dict[int, Tuple[VMA, Perm]]:
        return self._attach_info

    @property
    def total_instructions(self) -> int:
        """Instructions across every event emitted so far (drained or
        not) — streaming builders add their own chunks on top."""
        return self._total_instructions

    def drain(self) -> List[Tuple[int, int, int, int, int]]:
        """Hand over the buffered events; the recorder keeps recording.

        Streaming trace builders interleave recorder-emitted stretches
        (setup prologues, post-serve injections) with array-assembled
        chunks: each stretch is drained into the builder at the point it
        belongs in the stream.  The instruction total keeps accumulating
        across drains.
        """
        if self._finished:
            raise TraceError("recorder already finished")
        events, self._events = self._events, []
        return events

    def close(self) -> None:
        """Mark the recorder finished without building a Trace (the
        streaming builder assembles the trace itself)."""
        if self._finished:
            raise TraceError("recorder already finished")
        self._finished = True

    # -- completion --------------------------------------------------------------------

    def finish(self) -> Trace:
        if self._finished:
            raise TraceError("recorder already finished")
        self._finished = True
        return Trace(events=self._events, attach_info=self._attach_info,
                     total_instructions=self._total_instructions,
                     label=self.label)
