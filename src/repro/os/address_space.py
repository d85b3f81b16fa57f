"""Per-process virtual address space management.

The paper constrains PMO placement: *"A PMO can map only to an aligned and
contiguous range of virtual address that corresponds to the granularity of
the hierarchy level of the page table"* — 4KB, 2MB or 1GB regions
(Section IV-A).  The smallest granule that covers the PMO is reserved (a
PMO does not have to use its whole VA range); PMOs larger than 1GB take
consecutive 1GB granules.

This alignment is what lets a single PMO-root entry of the paper's
radix DTT or DRT (base VA + 2-bit size field) describe an entire domain.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..errors import AddressSpaceError

KB4 = 1 << 12
MB2 = 1 << 21
GB1 = 1 << 30

#: Page-table-level granules a PMO region may use (Section IV-A).
PMO_GRANULES = (KB4, MB2, GB1)

#: Base of the area where PMO regions are placed.
PMO_AREA_BASE = 0x2000_0000_0000
PMO_AREA_LIMIT = 0x6000_0000_0000
#: Base of the area for ordinary volatile mappings (heap/stack stand-ins).
VOLATILE_AREA_BASE = 0x7000_0000_0000
VOLATILE_AREA_LIMIT = 0x7FFF_0000_0000


def granule_for_size(size: int) -> int:
    """Choose the page-table granule for a PMO of ``size`` bytes."""
    if size <= 0:
        raise ValueError("PMO size must be positive")
    for granule in PMO_GRANULES:
        if size <= granule:
            return granule
    return GB1  # >1GB PMOs take multiple 1GB granules


def region_span(size: int) -> Tuple[int, int]:
    """Return ``(granule, reserved_bytes)`` for a PMO of ``size`` bytes."""
    granule = granule_for_size(size)
    count = -(-size // granule)  # ceil division
    return granule, granule * count


@dataclass
class VMA:
    """One virtual memory area.

    ``pmo_id`` is 0 for volatile areas; for PMO areas it doubles as the
    domain ID (the attach system call returns a PMO ID which is also the
    domain ID, Section IV-A).
    """

    base: int
    reserved: int      #: bytes of VA reserved (granule-aligned)
    size: int          #: bytes actually usable by the object
    pmo_id: int = 0
    granule: int = KB4
    is_nvm: bool = False
    #: Current MPK protection key for pages of this area (0 = NULL key).
    #: Set by a scheme's key assignment (the modelled pkey_mprotect);
    #: newly faulted-in pages inherit it.
    pkey: int = 0

    @property
    def end(self) -> int:
        return self.base + self.reserved

    def contains(self, vaddr: int) -> bool:
        return self.base <= vaddr < self.base + self.size


_base = attrgetter("base")


class AddressSpace:
    """Sorted VMA list with granule-aligned PMO placement."""

    def __init__(self):
        self._vmas: List[VMA] = []
        self._by_base: Dict[int, VMA] = {}
        self._next_pmo = PMO_AREA_BASE
        self._next_volatile = VOLATILE_AREA_BASE

    # -- reservation --------------------------------------------------------------

    def reserve_pmo(self, size: int, pmo_id: int) -> VMA:
        """Reserve a granule-aligned region for a PMO; returns its VMA."""
        granule, reserved = region_span(size)
        base = -(-self._next_pmo // granule) * granule  # align up
        if base + reserved > PMO_AREA_LIMIT:
            raise AddressSpaceError("PMO VA area exhausted")
        vma = VMA(base=base, reserved=reserved, size=size, pmo_id=pmo_id,
                  granule=granule, is_nvm=True)
        self._insert(vma)
        self._next_pmo = base + reserved
        return vma

    def reserve_volatile(self, size: int) -> VMA:
        """Reserve an ordinary (DRAM-backed) region."""
        reserved = -(-size // KB4) * KB4
        base = self._next_volatile
        if base + reserved > VOLATILE_AREA_LIMIT:
            raise AddressSpaceError("volatile VA area exhausted")
        vma = VMA(base=base, reserved=reserved, size=size)
        self._insert(vma)
        self._next_volatile = base + reserved
        return vma

    def adopt(self, vma: VMA) -> VMA:
        """Insert a pre-built VMA at its recorded base (trace replay).

        Replay contexts reconstruct an address space from a trace's
        layout; the VMAs must land at the exact recorded bases for the
        trace's virtual addresses to resolve.  A layout may come from
        disk, so a VMA that overlaps a mapped area is refused.
        """
        if vma.base in self._by_base:
            raise AddressSpaceError(
                f"VMA base {vma.base:#x} already occupied")
        vmas = self._vmas
        i = bisect.bisect(vmas, vma.base, key=_base)
        if (i and vmas[i - 1].end > vma.base) or \
                (i < len(vmas) and vmas[i].base < vma.end):
            raise AddressSpaceError(
                f"VMA [{vma.base:#x}, {vma.end:#x}) overlaps a mapped area")
        self._insert(vma)
        if vma.base >= VOLATILE_AREA_BASE:
            self._next_volatile = max(self._next_volatile, vma.end)
        else:
            self._next_pmo = max(self._next_pmo, vma.end)
        return vma

    def release(self, base: int) -> VMA:
        vma = self._by_base.pop(base, None)
        if vma is None:
            raise AddressSpaceError(f"no VMA at base {base:#x}")
        self._vmas.remove(vma)
        return vma

    def _insert(self, vma: VMA) -> None:
        bisect.insort(self._vmas, vma, key=_base)
        self._by_base[vma.base] = vma

    # -- lookup ----------------------------------------------------------------------

    def find(self, vaddr: int) -> Optional[VMA]:
        """Find the VMA containing ``vaddr``: the last VMA based at or
        below it (VMAs do not overlap), if its usable size covers it."""
        i = bisect.bisect_right(self._vmas, vaddr, key=_base)
        if i:
            vma = self._vmas[i - 1]
            if vaddr < vma.base + vma.size:
                return vma
        return None

    def vmas(self) -> List[VMA]:
        return list(self._vmas)

    def __len__(self) -> int:
        return len(self._vmas)
