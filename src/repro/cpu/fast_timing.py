"""The replay engine: array-backed, and bit-identical to the reference.

:class:`FastReplayEngine` replays every run.  The test suite keeps the
reference interpreter (``tests/oracle.py``), which walks Python event
tuples through dict/OrderedDict TLB and cache models; this engine
replays the same traces several times faster while producing
**bit-identical** :class:`~repro.sim.stats.RunStats` (cycles, every
bucket, every counter, mark snapshots, metrics).  The design splits
per-event work into what is
a pure function of the access stream and what depends on evolving
protection state:

* **Runs** — most accesses repeat the previous event's page and thread.
  Such a *run tail* (:func:`run_tails`) hits the L1 TLB entry its
  predecessor just touched, the most recently used of its set, and
  nothing between them can change a permission; so every per-event loop
  below visits only run heads and cold events, and a tail costs no
  lookup.  Skipping a tail's LRU age bump keeps every set's order, and
  its outcome follows from its head's: TLB level L1, and a violation
  exactly when the head's effective permission is 0 (every access) or
  1 (every store).

* **Radiograph** — one classification pass over the trace packs every
  event into a one-byte code: memory access or not, store or not, TLB
  level (L1/L2/miss), cache level (L1/L2/DRAM/NVM), and whether the page
  belongs to a PMO — in the baseline view and in ``domain_virt``'s view,
  where a domain tags TLB entries only while it is attached.  The
  *cache* levels are a pure function of the access stream for **every**
  scheme (schemes never touch the caches); the *TLB* levels stay valid
  for any scheme that never invalidates TLB entries.  The pass walks
  line heads — a tail that also repeats its predecessor's cache line
  hits that L1 line, and its code is filled in with numpy — and derives
  one permission-check record per page run for ``domain_virt``.
  Everything is cached on the trace's
  :class:`~repro.cpu.trace.TraceColumns`, so a sweep pays the pass once
  per trace and geometry.

* **One cycle fold** — per memory event the reference adds
  ``icount*cpi``, then the TLB penalty, then the cache penalty, as three
  separate ``+=``.  :func:`_fold_cycles` interleaves the three addend
  streams and folds them with ``np.cumsum``, a strictly sequential left
  fold, so every prefix total is the reference's float bit for bit (a
  zero addend is exact).  It runs in chunks, carrying the running total
  into each chunk's first addend, so its transient memory is O(chunk).
  The final total and every mark snapshot are index lookups into the
  fold.  For ``codes``/``dv`` schemes the fold does not depend on the
  scheme and is cached next to the radiograph; live-TLB schemes fold
  from the TLB levels their walk records.

* **Two walkers** replay what depends on protection state; neither adds
  a float.  The *stream walker* (``codes``: baseline, lowerbound;
  ``dv``: domain_virt) visits only the cold events and, for dv, the
  radiograph's run records — the head's PTLB lookup with an inlined
  pseudo-LRU touch, one access charge per PTLB hit (the head's and the
  tails'), and the scheme's own refill/writeback methods on misses.
  The *live-TLB walker* (``mpk``: mpk, mpk_virt, erim, pks_seal, poe2;
  ``swtable``: libmpk, dpti) simulates the TLB against its flat-array
  levels (:class:`~repro.mem.tlb.TLBLevel`), because
  key remapping or domain closing flushes entries; it visits the run
  heads and cold events of a run table cached next to the radiograph.
  Its permission check reads the entry's tag — the pkey for a PKRU
  register read, the domain for the scheme's ``_swtable_probe`` —
  memoised per (tag, thread) until the next cold event or full TLB
  walk.  Every cold path (page walk, key remap, SETPERM, context switch,
  attach/detach) calls the *real* scheme methods, so charging and state
  transitions are the reference code's own.  A replay enters its walker
  once, marks or not: before its first visit at or past a mark, the
  walker snapshots the scheme charges made so far, which costs one
  integer comparison per visit.  A tail charges nothing but its PTLB
  hit, so a mark inside a dv run counts the hits before it and the
  walk never stops at a mark.

Which walker a scheme gets is decided by :func:`kernel_for` from the
``check`` kind of the scheme's declared
:class:`~repro.core.schemes.CostDescriptor` — not by matching scheme
classes, so a new scheme that declares its cost model correctly replays
from its first run.  The descriptor refuses a ``page`` or ``ptlb``
check on a scheme that invalidates TLB entries (the radiograph's TLB
levels would not be its own), and the engine refuses a scheme with no
descriptor, by name.

While every charge ``DomainVirtScheme.charge_cycles`` lists is an
integer, the dv walker batches ``n`` PTLB hits as one ``n*c`` (exact in
a float accumulator, in any grouping); otherwise it books each check
record's hits one by one, before anything else can charge.  Event counters
(loads/stores/PMO accesses, TLB and cache hits/misses) are credited
from the event codes over exactly the events the replay reached: the
whole trace, or, when an enforced :class:`~repro.errors.ProtectionFault`
aborts it, the faulting prefix — the faulting access's TLB lookup and
load/store/PMO counts included, its cache access not, in the
reference's order.

With event tracing on, the engine emits the reference's records through
the hooks of :class:`~repro.cpu.timing.ReplayEngine`, stamped by the
rule documented there with ``fold[i]`` as the machine cycles before
event ``i``; the dv walker adds the hit charges it has not booked yet.
A live-TLB walk extends its fold on demand up to the event it stamps.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..permissions import Perm
from ..core.schemes import ProtectionScheme
from ..errors import ProtectionFault, SimulationError
from ..mem.cache import CacheLevel
from ..mem.memory import NVM_FRAME_BASE
from ..mem.tlb import TLBLevel
from ..os.kernel import Kernel
from ..os.process import Process
from ..sim.config import SimConfig
from . import trace as tr
from .timing import ReplayEngine

# Kernel families; which one a scheme gets is derived from its
# CostDescriptor by kernel_for().
_CODES = "codes"
_DV = "dv"
_MPK = "mpk"
_SWTABLE = "swtable"

# Event codes (one byte per event).  Bits 0-1 hold the cache level
# (L1/L2/DRAM/NVM), bits 2-3 the TLB level (L1/L2/miss); non-memory
# events are 0.  The live-TLB walker records its own TLB levels in the
# same bit positions.
_TLB_L2 = 1 << 2
_TLB_MISS = 2 << 2
_PMO = 16      # the page belongs to a PMO
_DV_PMO = 32   # ... whose domain is attached (domain_virt's TLB tag)
_MEM = 64      # a load, store or instruction fetch
_STORE = 128

_CODE = np.arange(256)
#: Per-code indicator columns: loads, stores, PMO accesses, dv PMO
#: accesses, TLB L2 hits, TLB misses, cache L1 hits, cache L2 hits,
#: memory accesses.  ``np.bincount(codes) @ _TALLY`` counts them all.
_TALLY = np.stack([
    (_CODE & (_MEM | _STORE)) == _MEM,
    (_CODE & _STORE) != 0,
    (_CODE & _PMO) != 0,
    (_CODE & _DV_PMO) != 0,
    ((_CODE >> 2) & 3) == 1,
    ((_CODE >> 2) & 3) == 2,
    ((_CODE & _MEM) != 0) & ((_CODE & 3) == 0),
    ((_CODE & _MEM) != 0) & ((_CODE & 3) == 1),
    ((_CODE & _MEM) != 0) & ((_CODE & 3) >= 2),
], axis=1).astype(np.int64)
_TLB_TALLY = slice(4, 6)
_CACHE_TALLY = slice(6, 9)

#: Events per chunk of the cycle fold (three float64 addends each).
_FOLD_CHUNK = 1 << 16

#: CostDescriptor.check -> kernel family.
_FAMILIES = {"page": _CODES, "ptlb": _DV, "pkru": _MPK, "swtable": _SWTABLE}


def kernel_for(config: SimConfig,
               scheme_class: Type[ProtectionScheme]) -> Optional[str]:
    """The kernel family for a scheme's declared cost model, looked up
    on its :class:`~repro.core.schemes.CostDescriptor`'s ``check``:

    * free page checks                         → codes (stream walker)
    * PTLB consultation                        → dv (stream walker)
    * PKRU-register checks                     → mpk (live-TLB walker)
    * software-table checks (``_swtable_probe``) → swtable (live-TLB
      walker)

    The descriptor itself rules out the pairs no family covers (a
    ``page`` or ``ptlb`` check on a scheme that invalidates TLB
    entries), and no config changes the family.  Returns ``None`` for a
    scheme without a descriptor, which :class:`FastReplayEngine`
    refuses.
    """
    desc = getattr(scheme_class, "cost", None)
    return None if desc is None else _FAMILIES[desc.check]


def supports_fast_replay(config: SimConfig,
                         scheme_class: Type[ProtectionScheme]) -> bool:
    """Whether the engine can replay this scheme/config pair."""
    return kernel_for(config, scheme_class) is not None


def _cold_stream(columns: tr.TraceColumns) -> List[tuple]:
    """The trace's non-memory events as ``(index, kind, tid, a, b)``.

    A walk consumes them in index order.  ``b`` is pre-converted to
    :class:`Perm` for PERM/INIT_PERM events, saving an enum construction
    per event per replay.
    """
    kinds = columns.kinds
    idx = np.nonzero((kinds >= 2) & (kinds != 7))[0]
    return [(i, k, tid, a, Perm(b) if k <= 3 else b)
            for i, k, tid, a, b in zip(
                idx.tolist(), kinds[idx].tolist(), columns.tids[idx].tolist(),
                columns.operand_a[idx].tolist(),
                columns.operand_b[idx].tolist())]


def run_tails(columns: tr.TraceColumns) -> Tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the trace's page-run tails and line-run tails.

    A page-run tail is a LOAD or STORE whose previous event is a LOAD or
    STORE on the same page (``a >> 12``) by the same thread; a line-run
    tail also repeats that event's 64-byte line (``a >> 6``).  Every
    other memory event heads a run — a FETCH always does, since it does
    not probe — and a cold event ends one.
    """
    kinds = columns.kinds
    n = len(kinds)
    page = np.zeros(n, dtype=bool)
    line = np.zeros(n, dtype=bool)
    if n > 1:
        a = columns.operand_a
        access = kinds <= tr.STORE
        # Two addresses share a page (line) iff their XOR is below its size.
        apart = a[1:] ^ a[:-1]
        np.logical_and(access[1:], access[:-1], out=page[1:])
        page[1:] &= columns.tids[1:] == columns.tids[:-1]
        page[1:] &= apart < 4096
        np.logical_and(page[1:], apart < 64, out=line[1:])
    return page, line


def _run_table(columns: tr.TraceColumns) -> Tuple[list, ...]:
    """The run heads and cold events — every event but the page-run
    tails — in index order, as five lists: index, run end (the next
    index; its tails lie between), kind, tid and operand ``a``."""
    visits = np.flatnonzero(~run_tails(columns)[0])
    index = visits.tolist()
    return (index, index[1:] + [len(columns)], columns.kinds[visits].tolist(),
            columns.tids[visits].tolist(),
            columns.operand_a[visits].tolist())


def _fold_cycles(icounts: np.ndarray, cpi, tlb_codes: np.ndarray,
                 tlb_pen: np.ndarray, codes: np.ndarray,
                 cache_pen: np.ndarray, out: np.ndarray, start: int,
                 stop: int) -> None:
    """Machine cycles after every event prefix, exactly as the reference.

    ``out[i]`` is the total after events ``[0, i)``; this fills
    ``out[start + 1 : stop + 1]``, resuming from ``out[start]``.  Per
    event the addends ``icount*cpi``, ``tlb_pen[tlb_code]`` and
    ``cache_pen[code]`` are interleaved and folded by ``np.cumsum`` —
    a strictly sequential left fold, i.e. the reference's three ``+=``
    in the reference's order.  Each chunk's first addend absorbs the
    running total, which continues the same fold across chunks.
    """
    buf = np.empty(3 * min(stop - start, _FOLD_CHUNK))
    total = out[start]
    for s in range(start, stop, _FOLD_CHUNK):
        e = min(stop, s + _FOLD_CHUNK)
        x = buf[:3 * (e - s)]
        x[0::3] = icounts[s:e]
        x[0::3] *= cpi
        x[1::3] = tlb_pen[tlb_codes[s:e]]
        x[2::3] = cache_pen[codes[s:e]]
        x[0] += total
        np.cumsum(x, out=x)
        out[s + 1:e + 1] = x[2::3]
        total = x[-1]


class FastReplayEngine(ReplayEngine):
    """Replays one trace under one protection scheme — fast and exact.

    Every scheme that declares a
    :class:`~repro.core.schemes.CostDescriptor` gets a kernel family
    (:func:`kernel_for`); a scheme without one is refused here, by name.
    """

    def __init__(self, config: SimConfig, kernel: Kernel, process: Process,
                 scheme_class: Type[ProtectionScheme], *,
                 attach_info: Optional[Dict[int, Tuple]] = None,
                 n_cores: int = 1):
        self._kernel_kind = kernel_for(config, scheme_class)
        if self._kernel_kind is None:
            raise ValueError(
                f"scheme {getattr(scheme_class, 'name', scheme_class)!r} "
                f"declares no CostDescriptor; the replay engine picks its "
                f"kernel from the descriptor")
        super().__init__(config, kernel, process, scheme_class,
                         attach_info=attach_info, n_cores=n_cores)
        cache_cfg = config.cache
        overlap = config.processor.stall_overlap
        l1 = cache_cfg.l1_latency
        # Exact reference arithmetic: latency sums are formed first (all
        # ints), then the subtraction, then one multiply — the reference
        # interpreter's parenthesisation.
        self._pen_zero = (l1 - l1) * overlap
        self._pen_l2 = (l1 + cache_cfg.l2_latency - l1) * overlap
        self._dram_pen = (l1 + cache_cfg.l2_latency
                          + config.memory.dram_latency - l1) * overlap
        self._nvm_pen = (l1 + cache_cfg.l2_latency
                         + config.memory.nvm_latency - l1) * overlap
        #: The dv walker's per-hit PTLB charge, and whether it books
        #: each hit on its own: batching hits as one n*c after the
        #: charges made meanwhile is exact only while every charge is an
        #: integer.
        self._access_cycles = 0
        self._per_hit = False
        if self._kernel_kind == _DV:
            self._access_cycles = getattr(
                config, scheme_class.config_section).ptlb_access_cycles
            self._per_hit = not all(
                isinstance(c, int)
                for c in scheme_class.charge_cycles(config))
        #: vpn -> VMA memo for the TLB-walk path (the address space does
        #: not change during a replay).
        self._vma_of_vpn: Dict[int, object] = {}

    # -- shared slow path -----------------------------------------------------

    def _tlb_miss(self, vpn: int, a: int, tid: int) -> tuple:
        """Full TLB miss: page walk (+fault), tag fill, install both levels.

        Mirrors the reference order: the walk follows the miss (an
        unmapped page faults into the engine's process here, in trace
        order), the scheme supplies the tags, then both levels are
        filled.
        """
        process = self.process
        pte = process.page_table.get(vpn)
        if pte is None:
            pte = self.kernel.handle_page_fault(process, a)
        vma = self._vma_of_vpn.get(vpn)
        if vma is None:
            vma = process.address_space.find(a)
            if vma is None:
                raise SimulationError(
                    f"trace access at {a:#x} outside any VMA")
            self._vma_of_vpn[vpn] = vma
        pkey, domain = self.scheme.fill_tags(vma, tid)
        pfn = pte.pfn
        rec = (vpn, pfn, pte.perm, pkey, domain, pfn << 6, None)
        self.tlb.l1.fill_rec(rec)
        self.tlb.l2.fill_rec(rec)
        return rec

    # -- radiograph -----------------------------------------------------------

    def _build_radiograph(self, columns: tr.TraceColumns,
                          attach_table) -> Tuple[np.ndarray, List[tuple]]:
        """Classify every event by TLB/cache outcome.

        Returns the per-event codes (one ``uint8`` each, bit layout
        beside ``_TLB_L2``) and ``domain_virt``'s permission-check
        records.

        The TLB/cache classification replays baseline behaviour — a pure
        function of the access stream; the cache half is valid for every
        scheme (nothing ever invalidates cache lines), the TLB half for
        any scheme that never invalidates TLB entries (baseline,
        lowerbound, domain_virt).  Page faults are taken in trace order
        against a copy of the kernel's frame allocator and a private
        page map, so each page gets the frame (and hence the DRAM/NVM
        class and cache sets) that the engine's process gives it when
        it faults the page in itself, at its first access, as the
        reference does.  Faulting into that process here would map
        pages ahead of the walk, where libmpk's ``pkey_mprotect``
        counts the PTEs mapped so far.

        Alongside the codes the pass derives the ``dv`` view: the domain
        tag ``domain_virt.fill_tags`` (DRT walk against the attach/detach
        timeline) would put in each TLB entry, and one permission-check
        record per page run, ``(head, domain, page perm, head is a
        store, tid, address, run end)`` — for a domainless run only when
        some access in it breaks the page permission.

        The loop visits line heads and cold events only
        (:func:`run_tails`).  A line tail hits the L1 TLB slot and the
        L1 cache line its predecessor just touched, the most recently
        used of their sets, so skipping its age bumps keeps every LRU
        order; its code is its head's PMO bits, ``_MEM`` and its own
        ``_STORE``, filled in after the loop.
        """
        config = self.config
        tlb_cfg = config.tlb
        cache_cfg = config.cache
        tl1 = TLBLevel(tlb_cfg.l1_entries, tlb_cfg.l1_ways)
        tl2 = TLBLevel(tlb_cfg.l2_entries, tlb_cfg.l2_ways)
        cl1 = CacheLevel(cache_cfg.l1_size, cache_cfg.l1_ways)
        cl2 = CacheLevel(cache_cfg.l2_size, cache_cfg.l2_ways)
        g1 = tl1.slot_of.get
        g2 = tl2.slot_of.get
        sl1 = tl1.slot_of
        recs1 = tl1.recs
        recs2 = tl2.recs
        ages1 = tl1.ages
        ages2 = tl2.ages
        t1 = tl1._age
        t2 = tl2._age
        ns1 = tl1.n_sets
        w1 = tl1.ways
        cg1 = cl1.slot_of.get
        cg2 = cl2.slot_of.get
        csl1 = cl1.slot_of
        csl2 = cl2.slot_of
        clines1 = cl1.lines
        clines2 = cl2.lines
        cages1 = cl1.ages
        cages2 = cl2.ages
        u1 = cl1._age
        u2 = cl2._age
        cns1 = cl1.n_sets
        cw1 = cl1.ways
        cns2 = cl2.n_sets
        cw2 = cl2.ways

        process = self.process
        memory = copy.copy(self.kernel.physical_memory)
        faulted: Dict[int, object] = {}
        pt_get = process.page_table.get
        find = process.address_space.find

        kinds = columns.kinds
        n = len(kinds)
        page_tail, line_tail = run_tails(columns)
        visits = np.flatnonzero(~line_tail)
        # Per visit, the end of the page run it heads (0: a page tail).
        heads = ~page_tail[visits]
        run_end = np.zeros(len(visits), dtype=np.int64)
        run_end[heads] = np.append(visits[heads][1:], n)
        a_arr = columns.operand_a[visits]
        kinds_b = columns.replay_cache(("kinds_b",), kinds.tobytes)
        codes = bytearray(n)
        attached: set = set()
        dv_checks: List[tuple] = []

        for i, k, tid, a, vpn, sub, end in zip(
                visits.tolist(), kinds[visits].tolist(),
                columns.tids[visits].tolist(), a_arr.tolist(),
                (a_arr >> 12).tolist(), ((a_arr >> 6) & 63).tolist(),
                run_end.tolist()):
            if k <= 1 or k == 7:
                s = g1(vpn)
                if s is not None:
                    ages1[s] = t1
                    t1 += 1
                    rec = recs1[s]
                    code = _MEM
                else:
                    s = g2(vpn)
                    if s is not None:
                        ages2[s] = t2
                        t2 += 1
                        rec = recs2[s]
                        code = _MEM | _TLB_L2
                        # Inline L1 promote (vpn absent: install only).
                        base = ((vpn ^ (vpn >> 8) ^ (vpn >> 16)
                                 ^ (vpn >> 24)) % ns1) * w1
                        free = -1
                        vs = base
                        va = 1 << 62
                        for s2 in range(base, base + w1):
                            if recs1[s2] is None:
                                free = s2
                                break
                            ag = ages1[s2]
                            if ag < va:
                                va = ag
                                vs = s2
                        if free < 0:
                            free = vs
                            del sl1[recs1[free][0]]
                        recs1[free] = rec
                        sl1[vpn] = free
                        ages1[free] = t1
                        t1 += 1
                    else:
                        pte = pt_get(vpn) or faulted.get(vpn)
                        if pte is None:
                            pte = faulted[vpn] = Kernel.fault_pte(
                                process, a, memory)
                        vma = find(a)
                        if vma is None:
                            raise SimulationError(
                                f"trace access at {a:#x} outside any VMA")
                        pfn = pte.pfn
                        pmo = vma.pmo_id
                        # Private rec layout: [3] is the dv-view domain
                        # (attach-gated), [6] flags an NVM frame.
                        rec = (vpn, pfn, pte.perm,
                               pmo if pmo in attached else 0, pmo,
                               pfn << 6, pfn >= NVM_FRAME_BASE)
                        tl1._age = t1
                        tl2._age = t2
                        tl1.fill_rec(rec)
                        tl2.fill_rec(rec)
                        t1 = tl1._age
                        t2 = tl2._age
                        code = _MEM | _TLB_MISS
                if k == 1:
                    code |= _STORE
                if rec[4]:
                    code |= _PMO
                dv_dom = rec[3]
                if dv_dom:
                    code |= _DV_PMO
                    if end and k != 7:
                        dv_checks.append(
                            (i, dv_dom, rec[2], k == 1, tid, a, end))
                elif end and k != 7:
                    pperm = rec[2]
                    if pperm == 0 or pperm == 1 and (
                            k == 1 or kinds_b.find(b"\x01", i + 1, end) >= 0):
                        # The run breaks the page permission — the only
                        # way dv faults outside a domain.
                        dv_checks.append((i, 0, pperm, k == 1, tid, a, end))
                line = rec[5] | sub
                cs = cg1(line)
                if cs is not None:
                    cages1[cs] = u1
                    u1 += 1
                else:
                    cs = cg2(line)
                    if cs is not None:
                        cages2[cs] = u2
                        u2 += 1
                        code |= 1
                    else:
                        code |= 3 if rec[6] else 2
                        # Inline L2 install (line missed both levels).
                        base = (line % cns2) * cw2
                        free = -1
                        vs = base
                        va = 1 << 62
                        for s2 in range(base, base + cw2):
                            if clines2[s2] < 0:
                                free = s2
                                break
                            ag = cages2[s2]
                            if ag < va:
                                va = ag
                                vs = s2
                        if free < 0:
                            free = vs
                            del csl2[clines2[free]]
                        clines2[free] = line
                        csl2[line] = free
                        cages2[free] = u2
                        u2 += 1
                    # Inline L1 install (line was an L1 miss).
                    base = (line % cns1) * cw1
                    free = -1
                    vs = base
                    va = 1 << 62
                    for s2 in range(base, base + cw1):
                        if clines1[s2] < 0:
                            free = s2
                            break
                        ag = cages1[s2]
                        if ag < va:
                            va = ag
                            vs = s2
                    if free < 0:
                        free = vs
                        del csl1[clines1[free]]
                    clines1[free] = line
                    csl1[line] = free
                    cages1[free] = u1
                    u1 += 1
                codes[i] = code
            elif k <= 6:
                if k == 5:
                    vma, _ = attach_table[a]
                    attached.add(vma.pmo_id)
                elif k == 6:
                    attached.discard(a)
            else:  # pragma: no cover - malformed trace
                raise SimulationError(f"unknown event kind {k}")

        codes = np.frombuffer(codes, dtype=np.uint8)
        if len(visits) < n:
            # Line tails: the PMO bits of the visit they follow, _MEM and
            # their own _STORE; TLB and cache level 0 (L1 hits).
            carried = np.repeat(codes[visits] & (_PMO | _DV_PMO),
                                np.diff(visits, append=n))
            carried |= _MEM
            carried |= (kinds == tr.STORE).view(np.uint8) << 7
            codes = np.where(line_tail, carried, codes)
        return codes, dv_checks

    # -- driver ---------------------------------------------------------------

    def _simulate(self, trace: tr.Trace,
                  marks: Optional[Sequence[int]]) -> None:
        """The fast body of :meth:`run` — same contract as the reference
        interpreter, ``marks`` snapshots and event records included."""
        stats = self.stats
        config = self.config
        columns = trace.columns
        n = len(columns)
        cache = columns.replay_cache

        tlb_cfg = config.tlb
        cache_cfg = config.cache
        geometry = (tlb_cfg.l1_entries, tlb_cfg.l1_ways,
                    tlb_cfg.l2_entries, tlb_cfg.l2_ways,
                    cache_cfg.l1_size, cache_cfg.l1_ways,
                    cache_cfg.l2_size, cache_cfg.l2_ways)
        codes, dv_checks = cache(
            ("radiograph", *geometry),
            lambda: self._build_radiograph(columns, self._attach_table))
        self._cold = cache(("cold",), lambda: _cold_stream(columns))
        # Per-code penalty addends: raw config values for the TLB,
        # overlap-scaled floats for the cache — the reference's own.
        cpi = config.processor.base_cpi
        tlb_pen = np.array([0, tlb_cfg.l2_latency, tlb_cfg.miss_penalty, 0],
                           dtype=np.float64)[(_CODE >> 2) & 3]
        cache_pen = np.array([self._pen_zero, self._pen_l2, self._dram_pen,
                              self._nvm_pen], dtype=np.float64)[_CODE & 3]

        kind = self._kernel_kind
        stream = kind in (_CODES, _DV)
        # Run tails look their stores up here (bytes.find/count).
        self._kinds_b = cache(("kinds_b",), columns.kinds.tobytes)
        self._columns = columns
        if stream:
            walk = self._walk_stream
            self._checks = dv_checks if kind == _DV else ()
            tlb_codes = codes
        else:
            walk = self._walk_live
            self._runs = cache(("runs",), lambda: _run_table(columns))
            self._tlev = bytearray(n)
            tlb_codes = np.frombuffer(self._tlev, dtype=np.uint8)
            if kind == _MPK:
                # The thread's PKRU register for the entry's pkey
                # (created on first use, as the reference does).
                for_thread = self.scheme.pkru.for_thread
                self._tag_field = 3
                self._probe = lambda key, tid: for_thread(tid)[key]
            else:
                self._tag_field = 4
                self._probe = self.scheme._swtable_probe
        self._addends = (columns.icounts, cpi, tlb_codes, tlb_pen, codes,
                         cache_pen)

        def new_fold():
            out = np.empty(n + 1)
            out[0] = 0.0
            if stream:
                _fold_cycles(*self._addends, out, 0, n)
            return out

        def get_fold():
            if not stream:
                return new_fold()
            # Radiograph TLB levels: the fold is scheme-independent.
            return cache(
                ("fold", *geometry, cpi, tlb_cfg.l2_latency,
                 tlb_cfg.miss_penalty, cache_cfg.l1_latency,
                 cache_cfg.l2_latency, config.memory.dram_latency,
                 config.memory.nvm_latency, config.processor.stall_overlap),
                new_fold)

        # A live-TLB walk's fold fills in behind the walk.  An untraced
        # replay takes its fold after the walk, as late as it can.
        self._folded = n if stream else 0
        self._fold = None
        if self._ev is not None:
            self._fold = get_fold()
            # Scalar views of the addends for stamping.
            self._icounts = columns.lists()[2]
            self._codes_b = codes.tobytes()
            self._tlb_b = self._codes_b if stream else self._tlev
            self._tlb_pen = tlb_pen.tolist()
            self._cache_pen = cache_pen.tolist()

        # One walk: before its first visit at or past a mark, the walker
        # snapshots the scheme charges made so far (_snap); marks at or
        # past its last visit see every charge.  The machine cycles come
        # from the fold.  The pending marks end with n, which no visit
        # reaches.
        marks = list(marks or ())
        self._pending = iter([*marks, n])
        charged = self._charged = []
        try:
            walk()
        except ProtectionFault:
            self._settle(codes, tlb_codes, self._fault_at + 1, faulted=True)
            raise
        charged += [stats.cycles] * (len(marks) - len(charged))
        self._settle(codes, tlb_codes, n, faulted=False)
        fold = self._fold if self._fold is not None else get_fold()
        if self._folded < n:
            _fold_cycles(*self._addends, fold, self._folded, n)
        if marks:
            stats.mark_cycles = [
                machine + charges for machine, charges in zip(
                    fold[np.minimum(marks, n)].tolist(), charged)]
        stats.cycles += float(fold[n])
        stats.instructions = int(columns.icounts.sum(dtype=np.int64))

    def _stamp(self, i: int, charged: float) -> None:
        """Stamp ``ev.cycle`` for a hook at event ``i``, given the scheme
        charges so far; first extends the fold through ``i`` in Python
        (a live-TLB walk has recorded the TLB levels before ``i``; its
        stamps sit too close for numpy's per-call cost to pay off)."""
        fold = self._fold
        cpi = self._addends[1]
        icounts = self._icounts
        tlb_b = self._tlb_b
        tlb_pen = self._tlb_pen
        j = self._folded
        if i > j:
            codes_b = self._codes_b
            cache_pen = self._cache_pen
            total = fold.item(j)
            hop = []
            for k in range(j, i):
                total = (total + icounts[k] * cpi + tlb_pen[tlb_b[k]]
                         + cache_pen[codes_b[k]])
                hop.append(total)
            fold[j + 1:i + 1] = hop
            self._folded = i
        self._ev.cycle = (fold.item(i) + icounts[i] * cpi
                          + tlb_pen[tlb_b[i]] + charged)

    # -- counter settlement ---------------------------------------------------

    def _settle(self, codes: np.ndarray, tlb_codes: np.ndarray, end: int, *,
                faulted: bool) -> None:
        """Credit the event counters of events ``[0, end)``.

        TLB levels come from ``tlb_codes`` (the radiograph's, or the
        live walk's).  When the replay ``faulted`` at event ``end - 1``,
        that access stopped at its permission check: its TLB lookup and
        load/store/PMO counts happened, its cache access did not.
        """
        tally = np.bincount(codes[:end], minlength=256) @ _TALLY
        if faulted:
            tally[_CACHE_TALLY] -= _TALLY[codes[end - 1], _CACHE_TALLY]
        if tlb_codes is not codes:
            tally[_TLB_TALLY] = (np.bincount(tlb_codes[:end], minlength=256)
                                 @ _TALLY)[_TLB_TALLY]
        loads, stores, pmo, dv_pmo, l2h, tm, c1h, c2h, cmem = tally.tolist()
        l1h = loads + stores - l2h - tm
        stats = self.stats
        stats.loads += loads
        stats.stores += stores
        stats.pmo_accesses += dv_pmo if self._kernel_kind == _DV else pmo
        stats.tlb_l1_hits += l1h
        stats.tlb_l2_hits += l2h
        stats.tlb_misses += tm
        tlb = self.tlb
        tlb.l1.hits += l1h
        tlb.l1.misses += l2h + tm
        tlb.l2.hits += l2h
        tlb.l2.misses += tm
        caches = self.caches
        caches.l1.hits += c1h
        caches.l1.misses += c2h + cmem
        caches.l2.hits += c2h
        caches.l2.misses += cmem
        caches.mem_accesses += cmem

    # -- shared event paths ---------------------------------------------------

    def _violation(self, i: int, a: int, domain: int, tid: int,
                   is_write: bool) -> None:
        """Event ``i`` failed its permission check: count it, and raise
        when protection is enforced."""
        self.stats.protection_faults += 1
        if self.config.enforce_protection:
            self._fault_at = i
            raise ProtectionFault(
                f"illegal {'store' if is_write else 'load'} at {a:#x} "
                f"(domain {domain}, thread {tid})",
                vaddr=a, domain=domain, thread=tid, is_write=is_write)

    def _snap(self, i: int, charges: float) -> int:
        """Snapshot ``charges`` for the pending mark, which the walker
        has reached at event ``i``, and for every later mark at or
        before ``i``; returns the first pending mark past ``i``."""
        mark = i
        while mark <= i:
            self._charged.append(charges)
            mark = next(self._pending)
        return mark

    def _tails(self, lo: int, end: int, pm: int, domain: int,
               tid: int) -> int:
        """Check the run tails ``[lo, end)`` under their head's effective
        permission ``pm``: with 0 every tail violates, with 1 every tail
        store, with 2 none.  Counts the violations and returns the tails
        checked — unless protection is enforced, when the first
        violating tail raises instead (``_fault_at``)."""
        if pm < 2:
            kinds = self._kinds_b
            if pm:
                j = kinds.find(b"\x01", lo, end)
                bad = 0 if j < 0 else kinds.count(b"\x01", j, end)
            else:
                j = lo
                bad = end - lo
            if bad:
                if self.config.enforce_protection:
                    self._violation(j, int(self._columns.operand_a[j]),
                                    domain, tid, kinds[j] == tr.STORE)
                self.stats.protection_faults += bad
        return end - lo

    # -- stream walker (codes / dv) -------------------------------------------

    def _walk_stream(self) -> None:
        """Replay the protection state of every event for a scheme whose
        TLB levels the radiograph already holds.

        Visits the cold events and, for dv, the radiograph's check
        records, in index order.  A record stands for one page run: its
        head's PTLB lookup, with an inlined pseudo-LRU touch (a miss
        calls the scheme's own refill), then one PTLB hit per tail.
        With integer charges the hits are booked once, after the walk,
        and a stamp or a mark snapshot adds the ones still pending;
        otherwise (``_per_hit``) each record's hits are booked one by
        one before anything else can charge, and a mark inside the run
        sees those before it booked and the rest not yet.
        """
        stats = self.stats
        scheme = self.scheme
        ev = self._ev
        acc = self._access_cycles
        per_hit = self._per_hit
        checks = self._checks
        cold = self._cold
        n = len(self._columns)
        nm = next(self._pending)
        n_chk = len(checks)
        n_cold = len(cold)
        ci = cj = 0
        # PTLB locals, rebound after every cold event (a CTXSW flush
        # rebinds the slot list and PLRU bits; SETPERM rewrites entries).
        stale = True
        n_ph = 0

        try:
            while True:
                ii = checks[cj][0] if cj < n_chk else n
                jj = cold[ci][0] if ci < n_cold else n
                if ii < jj:
                    if ii >= nm:
                        nm = self._snap(ii, stats.cycles + n_ph * acc)
                    _, dom, pm, w, tid, a, end = checks[cj]
                    cj += 1
                    if dom:
                        if stale:
                            ptlb = scheme.ptlb
                            pget = ptlb._slot_of.get
                            slots = ptlb._slots
                            bits = ptlb._plru._bits
                            touch_ops = ptlb._plru._touch_ops
                            noted = scheme._current_tid != -1
                            lsl = -1
                            stale = False
                        if not noted:
                            if scheme._current_tid == -1:
                                scheme._current_tid = tid
                            noted = True
                        sl = pget(dom)
                        if sl is not None:
                            n_ph += 1
                            if sl != lsl:
                                # PseudoLRU.touch writes absolute bit
                                # values — idempotent per slot, so
                                # repeats since the last state change
                                # (and a run's tails) are free.
                                ops = touch_ops[sl]
                                o = 0
                                n_ops = len(ops)
                                while o < n_ops:
                                    bits[ops[o]] = ops[o + 1]
                                    o += 2
                                lsl = sl
                                ldp = slots[sl].perm
                            dp = ldp
                        else:
                            ptlb.misses += 1
                            if ev is not None:
                                self._stamp(ii, stats.cycles + n_ph * acc)
                            dp = scheme._ptlb_refill(dom, tid).perm
                            lsl = -1
                        if dp < pm:
                            pm = dp
                    if not (pm == 2 if w else pm != 0):
                        self._violation(ii, a, dom, tid, w)
                    if end - ii > 1:
                        # The tails (:meth:`_tails`): one PTLB hit each
                        # for a domain, through the faulting tail when
                        # one raises.
                        try:
                            checked = self._tails(ii + 1, end, pm, dom, tid)
                        except ProtectionFault:
                            if dom:
                                n_ph += self._fault_at - ii
                            raise
                        if dom:
                            n_ph += checked
                        while nm < end:
                            # A mark inside the run: the tails from it
                            # on have not happened yet.
                            ahead = end - nm if dom else 0
                            if per_hit:
                                self._book_hits(n_ph - ahead)
                                n_ph = ahead
                            nm = self._snap(nm, stats.cycles
                                            + (n_ph - ahead) * acc)
                    if per_hit and n_ph:
                        self._book_hits(n_ph)
                        n_ph = 0
                elif jj < n:
                    if jj >= nm:
                        nm = self._snap(jj, stats.cycles + n_ph * acc)
                    _, k, tid, a, b = cold[ci]
                    ci += 1
                    if ev is not None:
                        self._stamp(jj, stats.cycles + n_ph * acc)
                    self._cold_event(k, tid, a, b)
                    stale = True
                else:
                    break
        finally:
            if n_ph:
                self._book_hits(n_ph)

    def _book_hits(self, n: int) -> None:
        """Book ``n`` PTLB hits and their access charges: one ``n*c``
        while every charge is an integer (exact in any grouping), else
        one charge per hit, as the reference does."""
        self.scheme.ptlb.hits += n
        acc = self._access_cycles
        stats = self.stats
        if self._per_hit:
            for _ in range(n):
                stats.charge("access_latency", acc)
        else:
            total = n * acc
            stats.buckets["access_latency"] += total
            stats.cycles += total

    # -- live-TLB walker (mpk / swtable) --------------------------------------

    def _walk_live(self) -> None:
        """Replay every event against the live TLB, visiting run heads
        and cold events only.

        L1 hits stay inline; L2 hits and full misses are recorded in
        the walk's TLB levels for the fold.  The permission check reads
        the entry's tag (``_tag_field``: the pkey or the domain) through
        ``_probe``, memoised per (tag, thread) until anything runs that
        can rewrite scheme metadata — a cold event or a full TLB walk
        (``fill_tags`` may remap keys or evict a domain's mapping).
        A run's tails hit the L1 entry their head just touched and keep
        TLB level 0; they check against the head's effective permission
        (:meth:`_tails`) and charge nothing, so a mark inside the run
        sees the charges made before its next visit.
        """
        tlev = self._tlev
        stats = self.stats
        ev = self._ev
        cold = self._cold
        field = self._tag_field
        probe = self._probe
        nm = next(self._pending)
        ci = 0

        l1 = self.tlb.l1
        l2 = self.tlb.l2
        g1 = l1.slot_of.get
        g2 = l2.slot_of.get
        recs1 = l1.recs
        recs2 = l2.recs
        ages1 = l1.ages
        ages2 = l2.ages
        t1 = l1._age
        t2 = l2._age

        ltag = -1
        ltid = -1
        lperm = 0

        try:
            for i, e, k, tid, a in zip(*self._runs):
                if i >= nm:
                    nm = self._snap(i, stats.cycles)
                if k <= 1 or k == 7:
                    vpn = a >> 12
                    s = g1(vpn)
                    if s is not None:
                        ages1[s] = t1
                        t1 += 1
                        rec = recs1[s]
                    else:
                        s = g2(vpn)
                        if s is not None:
                            ages2[s] = t2
                            t2 += 1
                            rec = recs2[s]
                            l1._age = t1
                            l1.fill_rec(rec)
                            t1 = l1._age
                            tlev[i] = _TLB_L2
                        else:
                            tlev[i] = _TLB_MISS
                            l1._age = t1
                            l2._age = t2
                            if ev is not None:
                                self._stamp(i, stats.cycles)
                            rec = self._tlb_miss(vpn, a, tid)
                            t1 = l1._age
                            t2 = l2._age
                            ltag = -1
                    if k != 7:
                        pm = rec[2]
                        tag = rec[field]
                        if tag:
                            if tag != ltag or tid != ltid:
                                if ev is not None:
                                    self._stamp(i, stats.cycles)
                                lperm = probe(tag, tid)  # Perm.NONE == 0
                                ltag = tag
                                ltid = tid
                            if lperm < pm:
                                pm = lperm
                        if not (pm == 2 if k == 1 else pm != 0):
                            self._violation(i, a, rec[4], tid, k == 1)
                        if e - i > 1 and pm < 2:
                            self._tails(i + 1, e, pm, rec[4], tid)
                else:
                    ci += 1
                    if ev is not None:
                        self._stamp(i, stats.cycles)
                    self._cold_event(k, tid, a, cold[ci - 1][4])
                    ltag = -1
        finally:
            l1._age = t1
            l2._age = t2
