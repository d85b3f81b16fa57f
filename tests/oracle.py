"""Test oracle: the reference interpreter, the dict TLB/cache models and
the scanning heap.

The replay engine (``repro.cpu.fast_timing``) is an optimisation of the
plain model kept here: :class:`ReferenceEngine` walks the row view of a
trace (``Trace.events``) event by event, through OrderedDict TLB and
cache levels (:class:`DictTLBLevel`, :class:`DictCacheLevel`), and asks
the scheme's ``check_access`` for every load and store.  It shares
:class:`~repro.cpu.timing.ReplayEngine`'s ``run`` and hooks with the
engine, so the two emit the same event records by the same stamping
rule.  The differential suites (``tests/cpu/test_fast_replay.py``,
``tests/service/test_properties.py``, ``tests/mem/test_array_models.py``)
demand that the engine and its flat-array models match this code bit
for bit.  :class:`ScanningPoolHeap` is the persistent heap's first fit
before the free list counted its alignment classes: it scans every free
chunk on every allocation (``tests/pmo/test_heap.py`` demands the same
results from both).  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cpu import trace as tr
from repro.cpu.timing import ReplayEngine
from repro.cpu.trace import INIT_PERM
from repro.errors import (OutOfPoolMemoryError, ProtectionFault,
                          SimulationError)
from repro.mem.cache import LINE_SHIFT, LINE_SIZE, CacheHierarchy
from repro.mem.memory import NVM_FRAME_BASE
from repro.mem.tlb import TLBEntry, TwoLevelTLB
from repro.permissions import Perm
from repro.pmo.heap import HEADER_SIZE, MIN_CHUNK, PoolHeap, _align_up


class DictTLBLevel:
    """One set-associative TLB level with per-set LRU replacement."""

    def __init__(self, entries: int, ways: int):
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self.entries = entries
        self.ways = ways
        self.n_sets = entries // ways
        self._sets: List["OrderedDict[int, TLBEntry]"] = [
            OrderedDict() for _ in range(self.n_sets)]
        # domain -> vpns currently cached; lets a domain's range flush run
        # in time proportional to the entries killed, not the TLB size.
        self._vpns_by_domain: Dict[int, set] = {}
        self.hits = 0
        self.misses = 0

    def _set_for(self, vpn: int) -> "OrderedDict[int, TLBEntry]":
        # XOR-folded set index.  PMO regions are granule-aligned (1GB for
        # the 8MB pools of the microbenchmarks), so a pure low-bit index
        # would alias every pool's pages into the same dozen sets; real
        # TLBs hash higher VPN bits into the index for exactly this
        # reason.
        return self._sets[(vpn ^ (vpn >> 8) ^ (vpn >> 16) ^ (vpn >> 24))
                          % self.n_sets]

    def lookup(self, vpn: int) -> Optional[TLBEntry]:
        entries = self._set_for(vpn)
        entry = entries.get(vpn)
        if entry is None:
            self.misses += 1
            return None
        entries.move_to_end(vpn)
        self.hits += 1
        return entry

    def fill(self, entry: TLBEntry) -> Optional[TLBEntry]:
        """Insert an entry; returns the evicted victim, if any."""
        entries = self._set_for(entry.vpn)
        victim = None
        if entry.vpn not in entries and len(entries) >= self.ways:
            _, victim = entries.popitem(last=False)
            if victim.domain:
                vpns = self._vpns_by_domain.get(victim.domain)
                if vpns is not None:
                    vpns.discard(victim.vpn)
        entries[entry.vpn] = entry
        entries.move_to_end(entry.vpn)
        if entry.domain:
            self._vpns_by_domain.setdefault(entry.domain, set()).add(entry.vpn)
        return victim

    # -- invalidation -----------------------------------------------------------

    def invalidate(self, vpn: int) -> bool:
        entry = self._set_for(vpn).pop(vpn, None)
        if entry is None:
            return False
        if entry.domain:
            vpns = self._vpns_by_domain.get(entry.domain)
            if vpns is not None:
                vpns.discard(vpn)
        return True

    def invalidate_all(self) -> int:
        count = sum(len(s) for s in self._sets)
        for entries in self._sets:
            entries.clear()
        self._vpns_by_domain.clear()
        return count

    def invalidate_domain(self, domain: int) -> int:
        """Invalidate every entry belonging to one domain (O(killed))."""
        vpns = self._vpns_by_domain.pop(domain, None)
        if not vpns:
            return 0
        count = 0
        for vpn in vpns:
            if self._set_for(vpn).pop(vpn, None) is not None:
                count += 1
        return count


    # -- introspection --------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def __iter__(self) -> Iterator[TLBEntry]:
        for entries in self._sets:
            yield from entries.values()


class DictTwoLevelTLB(TwoLevelTLB):
    """:class:`~repro.mem.tlb.TwoLevelTLB` on :class:`DictTLBLevel`
    levels."""

    def __init__(self, *, l1_entries: int = 64, l1_ways: int = 4,
                 l2_entries: int = 1536, l2_ways: int = 6):
        self.l1 = DictTLBLevel(l1_entries, l1_ways)
        self.l2 = DictTLBLevel(l2_entries, l2_ways)


class DictCacheLevel:
    """One set-associative, write-allocate cache level (tag-only)."""

    def __init__(self, size_bytes: int, ways: int, *, latency: int):
        lines = size_bytes // LINE_SIZE
        if lines % ways:
            raise ValueError("line count must be a multiple of ways")
        self.ways = ways
        self.n_sets = lines // ways
        self.latency = latency
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def _set_for(self, line: int) -> "OrderedDict[int, bool]":
        return self._sets[line % self.n_sets]

    def lookup(self, line: int) -> bool:
        entries = self._set_for(line)
        if line in entries:
            entries.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, line: int) -> Optional[int]:
        """Insert a line; returns the evicted victim line, if any."""
        entries = self._set_for(line)
        victim = None
        if line not in entries and len(entries) >= self.ways:
            victim, _ = entries.popitem(last=False)
        entries[line] = True
        entries.move_to_end(line)
        return victim

    def invalidate_all(self) -> None:
        for entries in self._sets:
            entries.clear()

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)


def cache_access(caches, paddr: int, memory_latency: int) -> int:
    """Access one physical address through ``caches`` (a
    :class:`CacheHierarchy` on either level family); returns the
    load-to-use latency.

    ``memory_latency`` is the DRAM/NVM latency to charge if both
    levels miss (the caller knows which region the frame lives in).
    """
    line = paddr >> LINE_SHIFT
    if caches.l1.lookup(line):
        return caches.l1.latency
    if caches.l2.lookup(line):
        caches.l1.fill(line)
        return caches.l1.latency + caches.l2.latency
    caches.mem_accesses += 1
    caches.l2.fill(line)
    caches.l1.fill(line)
    return caches.l1.latency + caches.l2.latency + memory_latency


class DictCacheHierarchy(CacheHierarchy):
    """:class:`~repro.mem.cache.CacheHierarchy` on :class:`DictCacheLevel`
    levels, with the interpreter's per-access path."""

    def __init__(self, *, l1_size: int = 32 << 10, l1_ways: int = 8,
                 l1_latency: int = 1, l2_size: int = 1 << 20,
                 l2_ways: int = 16, l2_latency: int = 8):
        self.l1 = DictCacheLevel(l1_size, l1_ways, latency=l1_latency)
        self.l2 = DictCacheLevel(l2_size, l2_ways, latency=l2_latency)
        self.mem_accesses = 0

    access = cache_access


class ReferenceEngine(ReplayEngine):
    """The reference interpreter: every event of the row view, one at a
    time, on the dict models."""

    tlb_class = DictTwoLevelTLB
    cache_class = DictCacheHierarchy

    def _simulate(self, trace: tr.Trace,
                  marks: Optional[Sequence[int]]) -> None:
        """Replay every event of the row view, one at a time."""
        stats = self.stats
        events = trace.events
        snapshots: List[float] = []
        cycles = 0.0
        instructions = 0
        previous = 0
        for stop in marks or ():
            cycles, instructions = self._replay(
                events, previous, stop, cycles, instructions)
            snapshots.append(cycles + stats.cycles)
            previous = stop
        cycles, instructions = self._replay(
            events, previous, len(events), cycles, instructions)
        if marks:
            stats.mark_cycles = snapshots
        # Scheme charges already accumulated into stats.cycles; fold in the
        # machine cycles computed here.
        stats.cycles += cycles
        stats.instructions = instructions

    def _replay(self, events, start: int, stop: int, cycles: float,
                instructions: int) -> Tuple[float, int]:
        """Replay one slice of the event stream; returns the running
        (machine cycles, instructions) totals."""
        stats = self.stats
        scheme = self.scheme
        config = self.config
        ev = self._ev
        enforce = config.enforce_protection
        cpi = config.processor.base_cpi
        overlap = config.processor.stall_overlap
        l2_tlb_latency = config.tlb.l2_latency
        tlb_miss_penalty = config.tlb.miss_penalty
        l1_hit_latency = config.cache.l1_latency

        tlb_l1 = self.tlb.l1
        tlb_l2 = self.tlb.l2
        caches = self.caches
        page_table = self.process.page_table
        address_space = self.process.address_space
        cold_event = self._cold_event
        # Memory latency comes from the replay's own config (so latency
        # ablations work); the frame number only selects the region.
        dram_latency = config.memory.dram_latency
        nvm_latency = config.memory.nvm_latency

        LOAD, STORE, FETCH = tr.LOAD, tr.STORE, tr.FETCH

        if start == 0 and stop == len(events):
            window = events
        else:
            # Direct index-range slice: islice(events, start, stop) walks
            # the list from 0 every call, turning marked replays into
            # O(events x marks).
            window = events[start:stop]

        for kind, tid, icount, a, b in window:
            instructions += icount
            cycles += icount * cpi
            if kind == LOAD or kind == STORE or kind == FETCH:
                is_write = kind == STORE
                vpn = a >> 12
                entry = tlb_l1.lookup(vpn)
                if entry is not None:
                    stats.tlb_l1_hits += 1
                else:
                    entry = tlb_l2.lookup(vpn)
                    if entry is not None:
                        tlb_l1.fill(entry)
                        stats.tlb_l2_hits += 1
                        cycles += l2_tlb_latency
                    else:
                        # Full TLB miss: page-table walk (+DTT/DRT walk in
                        # parallel), then the scheme supplies the tags.
                        stats.tlb_misses += 1
                        cycles += tlb_miss_penalty
                        if ev is not None:
                            ev.cycle = cycles + stats.cycles
                        pte = page_table.get(vpn)
                        if pte is None:
                            pte = self.kernel.handle_page_fault(
                                self.process, a)
                        vma = address_space.find(a)
                        if vma is None:
                            raise SimulationError(
                                f"trace access at {a:#x} outside any VMA")
                        pkey, domain = scheme.fill_tags(vma, tid)
                        entry = TLBEntry(vpn=vpn, pfn=pte.pfn, perm=pte.perm,
                                         pkey=pkey, domain=domain)
                        self.tlb.fill(entry)
                if is_write:
                    stats.stores += 1
                else:
                    stats.loads += 1
                if entry.domain:
                    stats.pmo_accesses += 1
                # Instruction fetches bypass the data-permission check:
                # "code can still jump to this domain and execute" even
                # when reads/writes are disabled (Section II-B).
                if ev is not None:
                    ev.cycle = cycles + stats.cycles
                if kind != FETCH and \
                        not scheme.check_access(tid, entry, is_write):
                    stats.protection_faults += 1
                    if enforce:
                        raise ProtectionFault(
                            f"illegal {'store' if is_write else 'load'} at "
                            f"{a:#x} (domain {entry.domain}, thread {tid})",
                            vaddr=a, domain=entry.domain, thread=tid,
                            is_write=is_write)
                mem_latency = (nvm_latency if entry.pfn >= NVM_FRAME_BASE
                               else dram_latency)
                latency = caches.access((entry.pfn << 12) | (a & 0xFFF),
                                        mem_latency)
                cycles += (latency - l1_hit_latency) * overlap
            else:
                if ev is not None:
                    ev.cycle = cycles + stats.cycles
                cold_event(kind, tid, a,
                           Perm(b) if kind <= INIT_PERM else b)

        return cycles, instructions


class ScanningPoolHeap(PoolHeap):
    """:class:`~repro.pmo.heap.PoolHeap` with an uncounted free list:
    every allocation sorts and scans every free chunk."""

    def _insert_free(self, offset: int, size: int) -> None:
        prev_start = self._free_by_end.pop(offset, None)
        if prev_start is not None:
            size += self._free.pop(prev_start)
            offset = prev_start
        next_start = offset + size
        next_size = self._free.pop(next_start, None)
        if next_size is not None:
            del self._free_by_end[next_start + next_size]
            size += next_size
        if offset + size == self.heap_top:
            self.heap_top = offset
            return
        self._free[offset] = size
        self._free_by_end[offset + size] = offset
        self._write_header(offset, size, in_use=False)

    def _remove_free(self, offset: int) -> int:
        size = self._free.pop(offset)
        del self._free_by_end[offset + size]
        return size

    def allocate(self, size: int, *, align: int = 8) -> int:
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        needed = HEADER_SIZE + _align_up(size, 8)
        amask = align - 1
        for offset in sorted(self._free):
            payload = offset + HEADER_SIZE
            if payload & amask:
                continue
            chunk_size = self._free[offset]
            if chunk_size >= needed:
                self._remove_free(offset)
                remainder = chunk_size - needed
                if remainder >= MIN_CHUNK:
                    self._insert_free(offset + needed, remainder)
                    chunk_size = needed
                self._write_header(offset, chunk_size, in_use=True)
                self.live_allocations += 1
                return payload
        offset = self.heap_top
        payload = _align_up(offset + HEADER_SIZE, align)
        pad = payload - HEADER_SIZE - offset
        if pad:
            if pad < MIN_CHUNK:
                chunk_size = pad + HEADER_SIZE + _align_up(size, 8)
                if offset + chunk_size > self.limit:
                    raise OutOfPoolMemoryError(
                        f"pool heap exhausted ({size} bytes requested)")
                self._write_header(offset, chunk_size, in_use=True)
                self.heap_top = offset + chunk_size
                self.live_allocations += 1
                return payload
            self._insert_free(offset, pad)
            offset = payload - HEADER_SIZE
        chunk_size = HEADER_SIZE + _align_up(size, 8)
        if offset + chunk_size > self.limit:
            raise OutOfPoolMemoryError(
                f"pool heap exhausted ({size} bytes requested)")
        self._write_header(offset, chunk_size, in_use=True)
        self.heap_top = offset + chunk_size
        self.live_allocations += 1
        return payload
