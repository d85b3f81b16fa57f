"""Processes and threads of the simulated OS.

A process owns an address space, a page table, its attached PMOs, and a
16-key MPK key allocator.  Threads are the unit the paper's *spatial*
isolation applies to: domain permissions are per ``(domain, thread)``, so
two threads of the same process can see the same PMO with different
rights.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List

from ..permissions import Perm
from ..errors import NotAttachedError, PkeyError
from .address_space import VMA, AddressSpace

#: Protection key 0 is the reserved NULL / domainless key (Section IV-D),
#: so a 4-bit key field yields 15 allocatable keys — matching Linux, where
#: pkey 0 is the default key applied to all memory.
NUM_PKEYS = 16
ALLOCATABLE_PKEYS = tuple(range(1, NUM_PKEYS))


@dataclass
class Attachment:
    """One attached PMO: its VA region and the attach-time intent."""

    pmo_id: int
    vma: VMA
    intent: Perm  #: R or RW, granted by the attach system call

    @property
    def base(self) -> int:
        return self.vma.base

    @property
    def size(self) -> int:
        return self.vma.size


class Thread:
    """A thread: the subject of per-domain permissions.

    TIDs are assigned per process (starting at 1), which keeps generated
    traces reproducible run to run.  The link back to the process is
    weak: the process owns its threads, and a strong back-reference
    would keep every dropped process (and its page table) alive until
    the cycle collector runs.
    """

    def __init__(self, process: "Process", tid: int):
        self.tid = tid
        self._process = weakref.ref(process)

    @property
    def process(self) -> "Process":
        return self._process()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Thread(tid={self.tid}, pid={self.process.pid})"


@dataclass
class Process:
    """A process: address space + page table + attachments + pkeys."""

    pid: int
    uid: int = 0
    address_space: AddressSpace = field(default_factory=AddressSpace)
    attachments: Dict[int, Attachment] = field(default_factory=dict)
    threads: List[Thread] = field(default_factory=list)

    def __post_init__(self):
        from ..mem.page_table import PageTable
        self.page_table = PageTable()
        self._free_pkeys = list(ALLOCATABLE_PKEYS)
        self._next_tid = 1
        self.main_thread = self.spawn_thread()

    # -- threads -------------------------------------------------------------------

    def spawn_thread(self) -> Thread:
        thread = Thread(self, self._next_tid)
        self._next_tid += 1
        self.threads.append(thread)
        return thread

    # -- attachments ------------------------------------------------------------------

    def attachment(self, pmo_id: int) -> Attachment:
        att = self.attachments.get(pmo_id)
        if att is None:
            raise NotAttachedError(
                f"PMO {pmo_id} is not attached to process {self.pid}")
        return att

    def is_attached(self, pmo_id: int) -> bool:
        return pmo_id in self.attachments

    # -- MPK key allocation (pkey_alloc / pkey_free) ------------------------------------

    def pkey_alloc(self) -> int:
        """Allocate an unused protection key; errors after 15 like real MPK."""
        if not self._free_pkeys:
            raise PkeyError("no free protection keys (MPK limit reached)")
        return self._free_pkeys.pop(0)

    def pkey_free(self, pkey: int) -> None:
        if pkey not in ALLOCATABLE_PKEYS:
            raise PkeyError(f"pkey {pkey} is not an allocatable key")
        if pkey in self._free_pkeys:
            raise PkeyError(f"pkey {pkey} is already free")
        self._free_pkeys.append(pkey)
        self._free_pkeys.sort()

    @property
    def free_pkey_count(self) -> int:
        return len(self._free_pkeys)
