"""The simulated OS kernel: attach/detach and demand paging.

The kernel enforces the paper's second protection requirement — *"the
process has attached the PMO"* — and the inter-process sharing policy:
a PMO may be attached exclusively to one process for writing, but to many
processes for reading (Section IV-A).  The attach system call returns the
PMO ID, which is also the domain ID used by every protection scheme.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..permissions import Perm
from ..errors import AttachError, NotAttachedError, PermissionDeniedError
from ..mem.memory import PhysicalMemory
from ..mem.page_table import PTE, vpn_of
from ..pmo.pool import PoolManager
from .address_space import VMA
from .process import Attachment, Process


class Kernel:
    """Trusted system software tying pools, processes, and physical memory."""

    def __init__(self, pool_manager: Optional[PoolManager] = None,
                 physical_memory: Optional[PhysicalMemory] = None):
        self.pools = pool_manager or PoolManager()
        self.physical_memory = physical_memory or PhysicalMemory()
        self._next_pid = 1
        # pool_id -> {pid: intent}; enforces exclusive-writer sharing.
        self._shares: Dict[int, Dict[int, Perm]] = {}
        self.page_faults = 0
        self.attach_count = 0
        self.detach_count = 0

    # -- processes ------------------------------------------------------------------

    def create_process(self, *, uid: int = 0) -> Process:
        process = Process(pid=self._next_pid, uid=uid)
        self._next_pid += 1
        return process

    # -- attach / detach system calls ----------------------------------------------------

    def attach(self, process: Process, name: str, intent: Perm,
               *, attach_key: Optional[int] = None) -> Attachment:
        """Attach a PMO to the process address space.

        Checks namespace permission, the attach key (when the PMO has
        one), and the sharing policy; reserves a granule-aligned VA
        region; returns the attachment whose ``pmo_id`` is the domain ID.
        """
        if intent is Perm.NONE:
            raise AttachError("attach intent must be R or RW")
        meta = self.pools.namespace.lookup(name)
        if not self.pools.namespace.allows(meta, uid=process.uid, want=intent,
                                           attach_key=attach_key):
            raise PermissionDeniedError(
                f"uid {process.uid} may not attach {name!r} with {intent.name}")
        if process.is_attached(meta.pool_id):
            raise AttachError(f"PMO {name!r} already attached")

        holders = self._shares.setdefault(meta.pool_id, {})
        if intent is Perm.RW and holders:
            raise AttachError(
                f"PMO {name!r} is attached elsewhere; cannot attach for write")
        if any(other is Perm.RW for other in holders.values()):
            raise AttachError(
                f"PMO {name!r} is exclusively attached for writing")

        # Opening checks the same permission; it also (re)creates the handle.
        self.pools.pool_open(name, intent, uid=process.uid,
                             attach_key=attach_key)
        vma = process.address_space.reserve_pmo(meta.size, meta.pool_id)
        attachment = Attachment(pmo_id=meta.pool_id, vma=vma, intent=intent)
        process.attachments[meta.pool_id] = attachment
        holders[process.pid] = intent
        self.attach_count += 1
        return attachment

    def detach(self, process: Process, pmo_id: int) -> None:
        """Detach a PMO: unmap its pages and release its VA region."""
        attachment = process.attachment(pmo_id)
        vma = attachment.vma
        first_vpn = vpn_of(vma.base)
        for vpn in range(first_vpn, vpn_of(vma.base + vma.reserved)):
            process.page_table.unmap_page(vpn)
        process.address_space.release(vma.base)
        del process.attachments[pmo_id]
        holders = self._shares.get(pmo_id)
        if holders:
            holders.pop(process.pid, None)
        self.detach_count += 1

    # -- demand paging --------------------------------------------------------------------

    def handle_page_fault(self, process: Process, vaddr: int) -> PTE:
        """Map the faulting page; PMO pages get NVM frames."""
        pte = self.fault_pte(process, vaddr, self.physical_memory)
        self.page_faults += 1
        process.page_table.map_page(vpn_of(vaddr), pte)
        return pte

    @staticmethod
    def fault_pte(process: Process, vaddr: int,
                  memory: PhysicalMemory) -> PTE:
        """The entry a page fault at ``vaddr`` maps, on a frame of
        ``memory``, without mapping it: PMO pages get NVM frames and the
        attach intent, volatile pages DRAM frames and RW."""
        vma = process.address_space.find(vaddr)
        if vma is None:
            raise NotAttachedError(f"segfault at {vaddr:#x}")
        if vma.is_nvm:
            pfn = memory.alloc_nvm_frame()
            page_perm = process.attachment(vma.pmo_id).intent
        else:
            pfn = memory.alloc_dram_frame()
            page_perm = Perm.RW
        return PTE(pfn=pfn, perm=page_perm, pkey=vma.pkey, domain=vma.pmo_id)

    def ensure_mapped(self, process: Process, vaddr: int) -> PTE:
        """Return the PTE for ``vaddr``, faulting the page in if needed."""
        pte = process.page_table.get(vpn_of(vaddr))
        if pte is None:
            pte = self.handle_page_fault(process, vaddr)
        return pte

    # -- volatile mappings -------------------------------------------------------------------

    def map_volatile(self, process: Process, size: int) -> VMA:
        """Reserve a DRAM-backed region (heap/stack stand-in)."""
        return process.address_space.reserve_volatile(size)
