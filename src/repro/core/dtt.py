"""Domain Translation Table (DTT) — the OS table of MPK virtualization.

The DTT is an OS-managed, per-process data structure (Section IV-D).
In the paper it is a radix tree indexed by virtual address: directory
entries point at the next level and PMO-root entries terminate the
walk at the level matching the PMO's granule (4KB / 2MB / 1GB).  Each
PMO root records the domain ID, the protection key the domain
currently maps to (NULL when unmapped), and the domain permission of
every thread — the full state from which DTTLB contents and the PKRU
can be reconstructed after a context switch.

The model keeps the PMO roots by domain: the hardware handler walks
the DTT only on a DTTLB miss, for a domain the model already knows (a
SETPERM's operand, or the PMO of the VMA a TLB miss resolved), and the
walk is charged as a constant (``dttlb_miss_cycles``), so no replay
needs the radix levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..permissions import Perm
from ..errors import DomainError
from ..os.address_space import VMA

#: Key value meaning "this domain currently maps to no protection key".
NO_KEY = 0


@dataclass
class DTTEntry:
    """A PMO-root entry of the DTT."""

    domain: int
    key: int = NO_KEY
    valid: bool = True
    #: Per-thread domain permission (the paper: "DTT keeps permission for
    #: all threads in a process").  Missing thread == Perm.NONE.
    perms: Dict[int, Perm] = field(default_factory=dict)

    def perm_for(self, tid: int) -> Perm:
        return self.perms.get(tid, Perm.NONE)


@dataclass
class DTTLBEntry:
    """One DTTLB entry: a cached domain's key mapping and the running
    thread's permission."""

    domain: int
    key: int
    perm: Perm
    valid: bool = True
    dirty: bool = False
    dtt_entry: Optional[DTTEntry] = None

    def write_back(self) -> None:
        """Lazily write this entry's key mapping back into its DTT root
        (on eviction or on the context-switch flush)."""
        if self.dtt_entry is not None:
            self.dtt_entry.key = self.key if self.valid else NO_KEY


class DomainTranslationTable:
    """The per-process DTT: one PMO-root entry per attached domain."""

    def __init__(self):
        self._by_domain: Dict[int, DTTEntry] = {}
        #: DTT walks, one per DTTLB miss (the ``dtt.walks`` counter).
        self.walk_count = 0

    # -- maintenance (attach / detach system calls) ---------------------------------

    def add(self, vma: VMA) -> DTTEntry:
        """Install a PMO-root entry for an attached PMO's region."""
        if vma.pmo_id in self._by_domain:
            raise DomainError(f"domain {vma.pmo_id} already in DTT")
        entry = DTTEntry(domain=vma.pmo_id)
        self._by_domain[vma.pmo_id] = entry
        return entry

    def remove(self, domain: int) -> DTTEntry:
        """Remove a detached domain's entry."""
        entry = self._by_domain.pop(domain, None)
        if entry is None:
            raise DomainError(f"domain {domain} not in DTT")
        entry.valid = False
        return entry

    # -- lookups -----------------------------------------------------------------------

    def by_domain(self, domain: int) -> DTTEntry:
        entry = self._by_domain.get(domain)
        if entry is None:
            raise DomainError(f"domain {domain} not in DTT")
        return entry

    def __contains__(self, domain: int) -> bool:
        return domain in self._by_domain

    def __len__(self) -> int:
        return len(self._by_domain)
