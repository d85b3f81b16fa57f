"""Permission Table (PT) and its lookaside buffer (PTLB) — DV design.

The PT is an OS-managed table indexed by (domain ID, thread ID) holding
the domain permission of each thread.  The PTLB is a small hardware buffer
(16 entries) caching the running thread's permissions by domain ID; a
SETPERM completes entirely in the PTLB (setting the dirty bit) and dirty
entries are written back to the PT on eviction or context switch
(Section IV-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..permissions import Perm
from .plru import PseudoLRU


class PermissionTable:
    """PT[domain][thread] → Perm; missing means NONE (inaccessible)."""

    def __init__(self):
        self._perms: Dict[int, Dict[int, Perm]] = {}
        self.lookups = 0

    def register_domain(self, domain: int) -> None:
        self._perms.setdefault(domain, {})

    def drop_domain(self, domain: int) -> None:
        self._perms.pop(domain, None)

    def get(self, domain: int, tid: int) -> Perm:
        self.lookups += 1
        return self._perms.get(domain, {}).get(tid, Perm.NONE)

    def set(self, domain: int, tid: int, perm: Perm) -> None:
        self._perms.setdefault(domain, {})[tid] = perm

    def __contains__(self, domain: int) -> bool:
        return domain in self._perms

    def domains(self) -> List[int]:
        return sorted(self._perms)

    def report_metrics(self, registry) -> None:
        """Report the lookup counter into an obs MetricsRegistry
        (names are part of the ``docs/OBSERVABILITY.md`` contract)."""
        registry.counter("pt.lookups").inc(self.lookups)


@dataclass
class PTLBEntry:
    """One cached (domain → permission) pair for the running thread."""

    domain: int
    perm: Perm
    dirty: bool = False


class PTLB:
    """Fully associative, pseudo-LRU permission-table lookaside buffer."""

    def __init__(self, entries: int = 16):
        if entries < 2 or entries & (entries - 1):
            raise ValueError("PTLB size must be a power of two >= 2")
        self.capacity = entries
        self._slots: List[Optional[PTLBEntry]] = [None] * entries
        self._slot_of: Dict[int, int] = {}
        self._plru = PseudoLRU(entries)
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def lookup(self, domain: int) -> Optional[PTLBEntry]:
        slot = self._slot_of.get(domain)
        if slot is None:
            self.misses += 1
            return None
        self.hits += 1
        self._plru.touch(slot)
        return self._slots[slot]

    def peek(self, domain: int) -> Optional[PTLBEntry]:
        slot = self._slot_of.get(domain)
        return None if slot is None else self._slots[slot]

    def insert(self, entry: PTLBEntry) -> Optional[PTLBEntry]:
        """Insert; returns an evicted dirty-or-clean victim (caller writes
        dirty victims back to the PT)."""
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

    def invalidate(self, domain: int) -> Optional[PTLBEntry]:
        slot = self._slot_of.pop(domain, None)
        if slot is None:
            return None
        entry = self._slots[slot]
        self._slots[slot] = None
        return entry

    def flush(self) -> List[PTLBEntry]:
        """Context-switch flush; returns dirty entries for PT writeback."""
        dirty = [e for e in self._slots if e is not None and e.dirty]
        self.writebacks += len(dirty)
        self._slots = [None] * self.capacity
        self._slot_of.clear()
        self._plru.reset()
        return dirty

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, domain: int) -> bool:
        return domain in self._slot_of

    def report_metrics(self, registry) -> None:
        """Report hit/miss/writeback counters into an obs MetricsRegistry
        (names are part of the ``docs/OBSERVABILITY.md`` contract)."""
        registry.counter("ptlb.hits").inc(self.hits)
        registry.counter("ptlb.misses").inc(self.misses)
        registry.counter("ptlb.writebacks").inc(self.writebacks)
