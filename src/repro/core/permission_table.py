"""Permission Table (PT) and the entries of its lookaside buffer — DV design.

The PT is an OS-managed table indexed by (domain ID, thread ID) holding
the domain permission of each thread.  The PTLB (a
:class:`~repro.core.lookaside.LookasideBuffer` of :class:`PTLBEntry`)
caches the running thread's permissions by domain ID; a SETPERM
completes entirely in the PTLB (setting the dirty bit) and dirty
entries are written back to the PT on eviction or context switch
(Section IV-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..permissions import Perm


class PermissionTable:
    """PT[domain][thread] → Perm; missing means NONE (inaccessible)."""

    def __init__(self):
        self._perms: Dict[int, Dict[int, Perm]] = {}
        self.lookups = 0

    def drop_domain(self, domain: int) -> None:
        self._perms.pop(domain, None)

    def get(self, domain: int, tid: int) -> Perm:
        self.lookups += 1
        return self._perms.get(domain, {}).get(tid, Perm.NONE)

    def set(self, domain: int, tid: int, perm: Perm) -> None:
        self._perms.setdefault(domain, {})[tid] = perm

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
