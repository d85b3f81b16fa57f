"""The lookaside buffer of both proposed designs: the DTTLB and the PTLB.

MPK virtualization caches the running thread's DTT entries in a DTTLB
(Section IV-D); domain virtualization caches its Permission Table rows
in a PTLB (Section IV-E).  Both are the same hardware structure: a
small (16-entry) fully associative buffer tagged by domain ID, with
pseudo-LRU replacement, whose dirty entries are written back lazily on
eviction or on the context-switch flush.  The buffer only tracks
slots; the caller owns the entry type (``DTTLBEntry``, ``PTLBEntry``)
and the write back of the dirty victims it is handed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .plru import PseudoLRU


class LookasideBuffer:
    """Fully associative, pseudo-LRU buffer of entries keyed by ``domain``.

    Entries are any objects with ``domain`` and ``dirty`` attributes.
    ``name`` (``"dttlb"`` or ``"ptlb"``) prefixes the metric names.
    """

    def __init__(self, entries: int, name: str):
        if entries < 2 or entries & (entries - 1):
            raise ValueError(
                f"{name.upper()} size must be a power of two >= 2")
        self.name = name
        self.capacity = entries
        self._slots: List[Optional[object]] = [None] * entries
        self._slot_of: Dict[int, int] = {}
        self._plru = PseudoLRU(entries)
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # -- lookup ----------------------------------------------------------------

    def lookup(self, domain: int):
        """CAM lookup by domain; counts hit/miss and updates PLRU."""
        slot = self._slot_of.get(domain)
        if slot is None:
            self.misses += 1
            return None
        self.hits += 1
        self._plru.touch(slot)
        return self._slots[slot]

    def peek(self, domain: int):
        """Lookup that counts nothing and leaves the PLRU alone."""
        slot = self._slot_of.get(domain)
        return None if slot is None else self._slots[slot]

    # -- insertion / eviction ------------------------------------------------------

    def insert(self, entry):
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

    def invalidate(self, domain: int):
        """Drop a domain's entry (domain detached); returns it or None."""
        slot = self._slot_of.pop(domain, None)
        if slot is None:
            return None
        entry = self._slots[slot]
        self._slots[slot] = None
        return entry

    def flush(self) -> list:
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
        registry.counter(f"{self.name}.hits").inc(self.hits)
        registry.counter(f"{self.name}.misses").inc(self.misses)
        registry.counter(f"{self.name}.writebacks").inc(self.writebacks)
