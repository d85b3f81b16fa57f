"""Two-level set-associative TLB whose entries carry a pkey or domain ID.

The TLB is where page permission and domain identity meet: on a hit, the
entry supplies the page permission *and* either the 4-bit protection key
(MPK / MPK-virtualization designs) or the 10-bit domain ID (domain
virtualization, which extends each entry by 6 bits — Table VIII).

The MPK-virtualization design must invalidate TLB entries when a key is
remapped to a different domain (``Range_Flush`` of the victim PMO's VA
range).  Every entry of a PMO carries its domain ID, so
:meth:`TwoLevelTLB.domain_flush` implements that as a flush of the victim
domain in both levels, returning how many entries died so the harness
can attribute the re-miss cost to invalidations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..permissions import Perm

# Mirrors page_table.NULL_PKEY / NULL_DOMAIN (kept local: no import cycle).
NULL_PKEY = 0
NULL_DOMAIN = 0


@dataclass(slots=True)
class TLBEntry:
    """One cached translation."""

    vpn: int
    pfn: int
    perm: Perm
    pkey: int = NULL_PKEY
    domain: int = NULL_DOMAIN


class TLBLevel:
    """One set-associative TLB level on preallocated flat slot arrays.

    Shaped for the replay engine (:mod:`repro.cpu.fast_timing`), which
    reaches into the flat containers directly: entries are plain tuples

    ``(vpn, pfn, perm, pkey, domain, line_base, mem_penalty)``

    stored in flat per-slot lists with a single ``vpn -> slot`` dict for
    O(1) lookup.  The set index XOR-folds higher VPN bits: PMO regions
    are granule-aligned (1GB for the 8MB pools of the microbenchmarks),
    so a pure low-bit index would alias every pool's pages into the
    same dozen sets; real TLBs hash higher VPN bits into the index for
    exactly this reason.  LRU order is kept as strictly increasing age
    stamps (the minimum age in a set is the least recently touched
    entry), and every container mutates in place so the engine can
    hoist them into locals.  The engine inlines the hit rule (a hit
    restamps its slot with ``_age`` and bumps ``_age``), installs
    through :meth:`fill_rec`, and credits ``hits``/``misses`` once per
    replay.  ``line_base``/``mem_penalty`` are engine-precomputed
    replay accelerators.
    """

    __slots__ = ("ways", "n_sets", "slot_of", "recs", "ages",
                 "_age", "_vpns_by_domain", "hits", "misses")

    def __init__(self, entries: int, ways: int):
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self.ways = ways
        self.n_sets = entries // ways
        self.slot_of: Dict[int, int] = {}
        self.recs: List[Optional[tuple]] = [None] * entries
        self.ages: List[int] = [0] * entries
        self._age = 1
        self._vpns_by_domain: Dict[int, set] = {}
        self.hits = 0
        self.misses = 0

    def fill_rec(self, rec: tuple) -> Optional[tuple]:
        """Install an internal record; returns the evicted victim rec."""
        vpn = rec[0]
        slot_of = self.slot_of
        slot = slot_of.get(vpn)
        victim = None
        if slot is None:
            base = ((vpn ^ (vpn >> 8) ^ (vpn >> 16) ^ (vpn >> 24))
                    % self.n_sets) * self.ways
            recs = self.recs
            ages = self.ages
            free = -1
            victim_slot = base
            victim_age = 1 << 62
            for s in range(base, base + self.ways):
                if recs[s] is None:
                    free = s
                    break
                age = ages[s]
                if age < victim_age:
                    victim_age = age
                    victim_slot = s
            if free < 0:
                free = victim_slot
                victim = recs[free]
                del slot_of[victim[0]]
                if victim[4]:
                    vpns = self._vpns_by_domain.get(victim[4])
                    if vpns is not None:
                        vpns.discard(victim[0])
            recs[free] = rec
            slot_of[vpn] = free
            slot = free
        else:
            self.recs[slot] = rec
        self.ages[slot] = self._age
        self._age += 1
        if rec[4]:
            self._vpns_by_domain.setdefault(rec[4], set()).add(vpn)
        return victim

    # -- invalidation -----------------------------------------------------------

    def invalidate_domain(self, domain: int) -> int:
        """Invalidate every entry belonging to one domain (O(killed))."""
        vpns = self._vpns_by_domain.pop(domain, None)
        if not vpns:
            return 0
        slot_of = self.slot_of
        recs = self.recs
        count = 0
        for vpn in vpns:
            slot = slot_of.pop(vpn, None)
            if slot is not None:
                recs[slot] = None
                count += 1
        return count

    # -- introspection --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.slot_of)


class TwoLevelTLB:
    """L1 + L2 data TLB (Table II: 64-entry/4-way and 1536-entry/6-way):
    the levels a replay walks and a scheme's shootdowns flush."""

    def __init__(self, *, l1_entries: int = 64, l1_ways: int = 4,
                 l2_entries: int = 1536, l2_ways: int = 6):
        self.l1 = TLBLevel(l1_entries, l1_ways)
        self.l2 = TLBLevel(l2_entries, l2_ways)

    def domain_flush(self, domain: int) -> int:
        """Invalidate every entry of one domain — the fast path for the
        per-domain ``Range_Flush`` the hardware schemes issue."""
        return self.l1.invalidate_domain(domain) + self.l2.invalidate_domain(domain)

    @property
    def hits(self) -> int:
        return self.l1.hits + self.l2.hits

    @property
    def misses(self) -> int:
        """Full TLB misses (missed both levels)."""
        return self.l2.misses

    def report_metrics(self, registry) -> None:
        """Report hit/miss counters into an obs MetricsRegistry
        (names are part of the ``docs/OBSERVABILITY.md`` contract)."""
        registry.counter("tlb.l1.hits").inc(self.l1.hits)
        registry.counter("tlb.l1.misses").inc(self.l1.misses)
        registry.counter("tlb.l2.hits").inc(self.l2.hits)
        registry.counter("tlb.l2.misses").inc(self.l2.misses)
