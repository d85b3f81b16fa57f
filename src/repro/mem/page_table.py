"""Four-level radix page table with protection-key / domain-ID fields.

Each PTE carries, besides the frame number and page permission, the 4-bit
MPK protection key (used by default MPK, libmpk and the hardware MPK
virtualization design) and the domain ID (used by the domain
virtualization design, filled from the DRT walk).  ``pkey_mprotect``
rewrites the key field of every PTE in a range — the per-PTE cost of that
rewrite is exactly what makes libmpk slow (Section IV-D).

The radix structure is walked level by level so the walker can report how
many levels it touched; a flat index gives the simulator O(1) access when
latency is charged separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..permissions import Perm
from ..errors import PageFault

PAGE_SHIFT = 12
LEVELS = 4
BITS_PER_LEVEL = 9

#: Protection-key value meaning "domainless" in this model.
NULL_PKEY = 0
#: Domain ID meaning "no domain" (domainless access).
NULL_DOMAIN = 0


@dataclass(slots=True)
class PTE:
    """A leaf page-table entry."""

    pfn: int
    perm: Perm
    pkey: int = NULL_PKEY
    domain: int = NULL_DOMAIN


def vpn_of(vaddr: int) -> int:
    return vaddr >> PAGE_SHIFT


def _indexes(vpn: int) -> Tuple[int, int, int, int]:
    return ((vpn >> 27) & 0x1FF, (vpn >> 18) & 0x1FF,
            (vpn >> 9) & 0x1FF, vpn & 0x1FF)


class PageTable:
    """Per-process 4-level page table."""

    def __init__(self):
        self._root: Dict[int, dict] = {}
        self._flat: Dict[int, PTE] = {}  # vpn -> PTE fast path
        # domain -> mapped vpns, so per-domain PTE rewrites (libmpk's
        # pkey_mprotect) cost O(mapped pages), not O(reserved region).
        self._vpns_by_domain: Dict[int, set] = {}
        self.walk_count = 0

    # -- mapping ------------------------------------------------------------------

    def map_page(self, vpn: int, pte: PTE) -> None:
        """Install (or replace) the leaf entry for ``vpn``."""
        l1, l2, l3, l4 = _indexes(vpn)
        node = self._root.setdefault(l1, {}).setdefault(l2, {}) \
                         .setdefault(l3, {})
        node[l4] = pte
        self._flat[vpn] = pte
        if pte.domain:
            self._vpns_by_domain.setdefault(pte.domain, set()).add(vpn)

    def unmap_page(self, vpn: int) -> None:
        pte = self._flat.pop(vpn, None)
        if pte is None:
            return
        if pte.domain:
            vpns = self._vpns_by_domain.get(pte.domain)
            if vpns is not None:
                vpns.discard(vpn)
        l1, l2, l3, l4 = _indexes(vpn)
        self._root[l1][l2][l3].pop(l4, None)

    def get(self, vpn: int) -> Optional[PTE]:
        """O(1) lookup without touching walk statistics."""
        return self._flat.get(vpn)

    # -- walking ----------------------------------------------------------------------

    def walk(self, vpn: int) -> PTE:
        """Walk the radix tree level by level (counts as one walk).

        Raises :class:`PageFault` when the page is unmapped.
        """
        self.walk_count += 1
        l1, l2, l3, l4 = _indexes(vpn)
        node = self._root.get(l1)
        if node is not None:
            node = node.get(l2)
        if node is not None:
            node = node.get(l3)
        pte = node.get(l4) if node is not None else None
        if pte is None:
            raise PageFault(f"no mapping for vpn {vpn:#x}",
                            vaddr=vpn << PAGE_SHIFT)
        return pte

    # -- pkey_mprotect support ---------------------------------------------------------

    def set_pkey_range(self, start_vpn: int, n_pages: int, pkey: int) -> int:
        """Rewrite the key field of all *mapped* PTEs in a range.

        Returns the number of PTEs actually rewritten — the quantity that
        drives libmpk's per-eviction cost.
        """
        rewritten = 0
        for vpn in range(start_vpn, start_vpn + n_pages):
            pte = self._flat.get(vpn)
            if pte is not None:
                pte.pkey = pkey
                rewritten += 1
        return rewritten

    def set_pkey_for_domain(self, domain: int, pkey: int) -> int:
        """Rewrite the key field of every mapped PTE of one domain.

        This is what ``pkey_mprotect`` over a whole PMO's region costs:
        one write per *mapped* page (libmpk's per-eviction bill).
        """
        vpns = self._vpns_by_domain.get(domain)
        if not vpns:
            return 0
        flat = self._flat
        for vpn in vpns:
            flat[vpn].pkey = pkey
        return len(vpns)

    def mapped_pages_of_domain(self, domain: int) -> int:
        vpns = self._vpns_by_domain.get(domain)
        return len(vpns) if vpns else 0

    def set_domain_range(self, start_vpn: int, n_pages: int,
                         domain: int) -> int:
        """Rewrite the domain field of all mapped PTEs in a range."""
        rewritten = 0
        for vpn in range(start_vpn, start_vpn + n_pages):
            pte = self._flat.get(vpn)
            if pte is not None:
                if pte.domain:
                    old = self._vpns_by_domain.get(pte.domain)
                    if old is not None:
                        old.discard(vpn)
                pte.domain = domain
                if domain:
                    self._vpns_by_domain.setdefault(domain, set()).add(vpn)
                rewritten += 1
        return rewritten

    # -- introspection -----------------------------------------------------------------

    @property
    def mapped_pages(self) -> int:
        return len(self._flat)

    def entries(self) -> Iterator[Tuple[int, PTE]]:
        return iter(self._flat.items())
