"""Page table with protection-key / domain-ID fields.

Each PTE carries, besides the frame number and page permission, the 4-bit
MPK protection key (used by default MPK, libmpk and the hardware MPK
virtualization design) and the domain ID (used by the domain
virtualization design; a page fault copies it from the VMA's PMO ID).
``pkey_mprotect`` over a PMO's region rewrites the key field of every
mapped PTE of its domain (:meth:`PageTable.set_pkey_for_domain`) — the
per-PTE cost of that rewrite is exactly what makes libmpk slow
(Section IV-D).

The hardware walks a 4-level radix tree; the model keeps only the leaf
entries, in a flat vpn -> PTE map, because a page walk is charged as a
constant (``tlb.miss_penalty``).  A per-domain index of mapped pages
keeps per-domain PTE rewrites O(mapped pages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..permissions import Perm

PAGE_SHIFT = 12

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


class PageTable:
    """Per-process page table: the leaf PTEs by vpn."""

    def __init__(self):
        self._flat: Dict[int, PTE] = {}  # vpn -> PTE
        # domain -> mapped vpns, so per-domain PTE rewrites (libmpk's
        # pkey_mprotect) cost O(mapped pages), not O(reserved region).
        self._vpns_by_domain: Dict[int, set] = {}

    # -- mapping ------------------------------------------------------------------

    def map_page(self, vpn: int, pte: PTE) -> None:
        """Install (or replace) the leaf entry for ``vpn``."""
        self.map_pages(((vpn, pte),))

    def map_pages(self, entries: Sequence[Tuple[int, PTE]]) -> None:
        """Install (or replace) the leaf entry of each ``(vpn, pte)`` of
        ``entries``, in order (a replay context installs a recorded page
        table in one call)."""
        self._flat.update(entries)
        by_domain = self._vpns_by_domain
        for vpn, pte in entries:
            domain = pte.domain
            if domain:
                vpns = by_domain.get(domain)
                if vpns is None:
                    vpns = by_domain[domain] = set()
                vpns.add(vpn)

    def unmap_page(self, vpn: int) -> None:
        pte = self._flat.pop(vpn, None)
        if pte is None:
            return
        if pte.domain:
            vpns = self._vpns_by_domain.get(pte.domain)
            if vpns is not None:
                vpns.discard(vpn)

    def get(self, vpn: int) -> Optional[PTE]:
        """The leaf entry for ``vpn``, or None when it is unmapped."""
        return self._flat.get(vpn)

    # -- pkey_mprotect support ---------------------------------------------------------

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

    # -- introspection -----------------------------------------------------------------

    @property
    def mapped_pages(self) -> int:
        return len(self._flat)

    def entries(self) -> Iterator[Tuple[int, PTE]]:
        return iter(self._flat.items())
