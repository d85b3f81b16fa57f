"""DTTLB — the hardware lookaside buffer caching the DTT.

A small content-addressable buffer (16 entries in the base configuration)
holding, for the *currently running thread*, the domains it recently
touched: their protection-key mapping and the thread's permission.
Entries carry valid and dirty bits; dirty entries are lazily written back
to the DTT on eviction or context switch (Section IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .dtt import NO_KEY, DTTEntry
from ..permissions import Perm
from .plru import PseudoLRU


@dataclass
class DTTLBEntry:
    """One cached domain: its key mapping and the running thread's perm."""

    domain: int
    key: int
    perm: Perm
    valid: bool = True
    dirty: bool = False
    dtt_entry: Optional[DTTEntry] = None


class DTTLB:
    """Fully associative, pseudo-LRU domain translation lookaside buffer."""

    def __init__(self, entries: int = 16):
        if entries < 2 or entries & (entries - 1):
            raise ValueError("DTTLB size must be a power of two >= 2")
        self.capacity = entries
        self._slots: List[Optional[DTTLBEntry]] = [None] * entries
        self._slot_of: Dict[int, int] = {}
        self._plru = PseudoLRU(entries)
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # -- lookup ----------------------------------------------------------------

    def lookup(self, domain: int) -> Optional[DTTLBEntry]:
        """CAM lookup by domain; counts hit/miss and updates PLRU."""
        slot = self._slot_of.get(domain)
        if slot is None:
            self.misses += 1
            return None
        self.hits += 1
        self._plru.touch(slot)
        return self._slots[slot]

    def peek(self, domain: int) -> Optional[DTTLBEntry]:
        slot = self._slot_of.get(domain)
        return None if slot is None else self._slots[slot]

    # -- insertion / eviction ------------------------------------------------------

    def insert(self, entry: DTTLBEntry) -> Optional[DTTLBEntry]:
        """Insert an entry, returning the evicted victim (written back by
        the caller if dirty)."""
        existing = self._slot_of.get(entry.domain)
        if existing is not None:
            self._slots[existing] = entry
            self._plru.touch(existing)
            return None
        victim = None
        free = next((i for i, e in enumerate(self._slots) if e is None), None)
        if free is None:
            free = self._plru.victim()
            victim = self._slots[free]
            del self._slot_of[victim.domain]
        self._slots[free] = entry
        self._slot_of[entry.domain] = free
        self._plru.touch(free)
        return victim

    def invalidate(self, domain: int) -> Optional[DTTLBEntry]:
        """Drop a domain's entry (key remapped away or SETPERM semantics)."""
        slot = self._slot_of.pop(domain, None)
        if slot is None:
            return None
        entry = self._slots[slot]
        self._slots[slot] = None
        return entry

    def flush(self) -> List[DTTLBEntry]:
        """Context-switch flush; returns the dirty entries to write back."""
        dirty = [e for e in self._slots if e is not None and e.dirty]
        self.writebacks += len(dirty)
        self._slots = [None] * self.capacity
        self._slot_of.clear()
        self._plru.reset()
        return dirty

    # -- introspection ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, domain: int) -> bool:
        return domain in self._slot_of

    def report_metrics(self, registry) -> None:
        """Report hit/miss/writeback counters into an obs MetricsRegistry
        (names are part of the ``docs/OBSERVABILITY.md`` contract)."""
        registry.counter("dttlb.hits").inc(self.hits)
        registry.counter("dttlb.misses").inc(self.misses)
        registry.counter("dttlb.writebacks").inc(self.writebacks)


def writeback(entry: DTTLBEntry) -> None:
    """Write a dirty DTTLB entry's state back into its DTT root entry."""
    if entry.dtt_entry is None or not entry.dirty:
        return
    entry.dtt_entry.key = entry.key if entry.valid else NO_KEY
    entry.dirty = False
