"""Tests for VA management and the paper's PMO alignment rule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressSpaceError
from repro.os.address_space import (GB1, KB4, MB2, PMO_AREA_BASE, VMA,
                                    AddressSpace, granule_for_size,
                                    region_span)


class TestGranuleRule:
    """Section IV-A: a PMO occupies a 4KB / 2MB / 1GB aligned region."""

    @pytest.mark.parametrize("size,granule", [
        (1, KB4), (KB4, KB4),
        (KB4 + 1, MB2), (MB2, MB2),
        (MB2 + 1, GB1), (8 << 20, GB1), (GB1, GB1),
    ])
    def test_smallest_covering_granule(self, size, granule):
        assert granule_for_size(size) == granule

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            granule_for_size(0)

    def test_over_1gb_takes_multiple_granules(self):
        granule, reserved = region_span(3 * GB1 + 5)
        assert granule == GB1
        assert reserved == 4 * GB1

    @given(st.integers(1, 8 * GB1))
    @settings(max_examples=50)
    def test_reservation_covers_size(self, size):
        granule, reserved = region_span(size)
        assert reserved >= size
        assert reserved % granule == 0


class TestReservation:
    def test_pmo_base_is_granule_aligned(self):
        space = AddressSpace()
        vma = space.reserve_pmo(8 << 20, pmo_id=1)
        assert vma.base % GB1 == 0
        assert vma.is_nvm

    def test_pmo_regions_do_not_overlap(self):
        space = AddressSpace()
        vmas = [space.reserve_pmo(8 << 20, pmo_id=i) for i in range(1, 20)]
        spans = sorted((v.base, v.end) for v in vmas)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_mixed_granules_do_not_overlap(self):
        space = AddressSpace()
        sizes = [KB4, 8 << 20, MB2, 100, GB1, KB4 + 1]
        vmas = [space.reserve_pmo(size, pmo_id=i + 1)
                for i, size in enumerate(sizes)]
        spans = sorted((v.base, v.end) for v in vmas)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_volatile_regions_separate_from_pmo_area(self):
        space = AddressSpace()
        pmo = space.reserve_pmo(KB4, pmo_id=1)
        vol = space.reserve_volatile(1 << 20)
        assert vol.base > pmo.end
        assert not vol.is_nvm
        assert vol.pmo_id == 0

    def test_release(self):
        space = AddressSpace()
        vma = space.reserve_pmo(KB4, pmo_id=1)
        space.release(vma.base)
        assert space.find(vma.base) is None
        with pytest.raises(AddressSpaceError):
            space.release(vma.base)


class TestFind:
    def test_find_inside_usable_size(self):
        space = AddressSpace()
        vma = space.reserve_pmo(8 << 20, pmo_id=3)
        assert space.find(vma.base) is vma
        assert space.find(vma.base + (8 << 20) - 1) is vma

    def test_find_in_reserved_but_unused_tail_is_none(self):
        # The PMO does not have to use its whole VA range; addresses past
        # its size are not part of the object.
        space = AddressSpace()
        vma = space.reserve_pmo(8 << 20, pmo_id=3)
        assert space.find(vma.base + (8 << 20)) is None

    def test_find_unmapped_address(self):
        assert AddressSpace().find(0x1234) is None

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 1 << 24), min_size=1, max_size=30))
    def test_find_is_consistent_with_reservations(self, sizes):
        space = AddressSpace()
        vmas = [space.reserve_pmo(size, pmo_id=i + 1)
                for i, size in enumerate(sizes)]
        for vma in vmas:
            assert space.find(vma.base) is vma
            assert space.find(vma.base + vma.size - 1) is vma


class TestFindAgainstAScan:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4),
                              st.integers(1, 4 * KB4)),
                    min_size=1, max_size=12), st.data())
    def test_equals_a_linear_scan(self, spans, data):
        """Adopted VMAs with gaps between them and reserved tails past
        their usable size: ``find`` answers as a scan of every VMA does,
        below the first VMA and past the last one too."""
        space = AddressSpace()
        vmas = []
        base = PMO_AREA_BASE + KB4
        for i, (gap, pages, size) in enumerate(spans):
            base += gap * KB4
            reserved = pages * KB4
            vma = VMA(base=base, reserved=reserved,
                      size=min(size, reserved), pmo_id=i + 1, is_nvm=True)
            vmas.append(space.adopt(vma))
            base += reserved
        probes = [PMO_AREA_BASE, vmas[0].base - 1, vmas[-1].end,
                  vmas[-1].end + GB1]
        for vma in vmas:
            probes += [vma.base, vma.base + vma.size - 1,
                       vma.base + vma.size, vma.end - 1]
        probes += data.draw(st.lists(
            st.integers(PMO_AREA_BASE, vmas[-1].end + KB4), max_size=20))
        for vaddr in probes:
            want = next((vma for vma in vmas
                         if vma.base <= vaddr < vma.base + vma.size), None)
            assert space.find(vaddr) is want


def pmo_vma(base, pages, pmo_id=1):
    return VMA(base=base, reserved=pages * KB4, size=pages * KB4,
               pmo_id=pmo_id, is_nvm=True)


class TestAdopt:
    """Replay contexts rebuild an address space from a trace layout."""

    def test_overlapping_adopt_rejected(self):
        space = AddressSpace()
        space.adopt(pmo_vma(PMO_AREA_BASE + 4 * KB4, 4))
        for base, pages in ((PMO_AREA_BASE + 2 * KB4, 3),   # from below
                            (PMO_AREA_BASE + 7 * KB4, 2),   # from above
                            (PMO_AREA_BASE + 5 * KB4, 1),   # inside
                            (PMO_AREA_BASE, 16),            # around
                            (PMO_AREA_BASE + 4 * KB4, 1)):  # same base
            with pytest.raises(AddressSpaceError):
                space.adopt(pmo_vma(base, pages, pmo_id=2))
        assert [v.base for v in space.vmas()] == [PMO_AREA_BASE + 4 * KB4]
        # Touching neighbours on either side do not overlap.
        space.adopt(pmo_vma(PMO_AREA_BASE + 8 * KB4, 1, pmo_id=3))
        space.adopt(pmo_vma(PMO_AREA_BASE, 4, pmo_id=4))
        assert [v.pmo_id for v in space.vmas()] == [4, 1, 3]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(1, 8)),
                    min_size=1, max_size=24))
    def test_adopt_refuses_exactly_the_overlaps(self, spans):
        """Any adopt order: a VMA lands iff it overlaps none already
        present, and ``vmas()`` stays sorted by base."""
        space = AddressSpace()
        kept = []
        for i, (page, pages) in enumerate(spans):
            vma = pmo_vma(PMO_AREA_BASE + page * KB4, pages, pmo_id=i + 1)
            overlaps = any(vma.base < other.end and other.base < vma.end
                           for other in kept)
            if overlaps:
                with pytest.raises(AddressSpaceError):
                    space.adopt(vma)
            else:
                space.adopt(vma)
                kept.append(vma)
        assert space.vmas() == sorted(kept, key=lambda v: v.base)
        for vma in kept:
            assert space.find(vma.base + vma.size - 1) is vma

