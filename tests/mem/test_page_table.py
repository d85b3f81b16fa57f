"""Tests for the page table."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.permissions import Perm
from repro.mem.page_table import PTE, PageTable, vpn_of


def pte(pfn=1, perm=Perm.RW, pkey=0, domain=0):
    return PTE(pfn=pfn, perm=perm, pkey=pkey, domain=domain)


class TestMapping:
    def test_map_then_get(self):
        pt = PageTable()
        pt.map_page(0x12345, pte(pfn=7))
        assert pt.get(0x12345).pfn == 7

    def test_get_unmapped_is_none(self):
        assert PageTable().get(1) is None

    def test_unmap(self):
        pt = PageTable()
        pt.map_page(5, pte(domain=2))
        pt.unmap_page(5)
        assert pt.get(5) is None
        assert pt.mapped_pages == 0
        assert pt.mapped_pages_of_domain(2) == 0

    def test_unmap_unmapped_is_noop(self):
        PageTable().unmap_page(12345)

    def test_mapped_pages_counter(self):
        pt = PageTable()
        for vpn in range(10):
            pt.map_page(vpn, pte())
        pt.unmap_page(3)
        assert pt.mapped_pages == 9

    def test_vpn_of(self):
        assert vpn_of(0x1000) == 1
        assert vpn_of(0x1FFF) == 1
        assert vpn_of(0x2000) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(0, 2**36 - 1), min_size=1, max_size=50))
    def test_get_returns_the_mapped_pte(self, vpns):
        """Over the whole 36-bit vpn space, ``get`` returns the entry
        ``map_page`` installed, and ``entries`` lists each once."""
        pt = PageTable()
        installed = {}
        for i, vpn in enumerate(sorted(vpns)):
            installed[vpn] = pte(pfn=i)
            pt.map_page(vpn, installed[vpn])
        for vpn in vpns:
            assert pt.get(vpn) is installed[vpn]
        assert dict(pt.entries()) == installed


class TestMapPages:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 4),
                              st.integers(0, 1 << 20)), max_size=80))
    def test_equals_a_map_page_loop(self, rows):
        """Same entries in the same order (a remapped vpn keeps its
        first slot) and the same per-domain index as one ``map_page``
        per entry."""
        bulk, loop = PageTable(), PageTable()
        entries = [(vpn, pte(pfn=pfn, domain=domain))
                   for vpn, domain, pfn in rows]
        bulk.map_pages(entries)
        for vpn, entry in entries:
            loop.map_page(vpn, entry)
        assert list(bulk.entries()) == list(loop.entries())
        for domain in range(5):
            assert bulk.mapped_pages_of_domain(domain) == \
                loop.mapped_pages_of_domain(domain)
            assert bulk.set_pkey_for_domain(domain, 3) == \
                loop.set_pkey_for_domain(domain, 3)


class TestPkeyRewrites:
    def test_set_pkey_for_domain(self):
        pt = PageTable()
        for vpn in range(6):
            pt.map_page(vpn, pte(domain=1 + vpn % 2))
        assert pt.set_pkey_for_domain(1, 9) == 3
        assert pt.get(0).pkey == 9
        assert pt.get(1).pkey == 0

    def test_set_pkey_for_unknown_domain(self):
        assert PageTable().set_pkey_for_domain(99, 1) == 0

    def test_mapped_pages_of_domain(self):
        pt = PageTable()
        for vpn in range(4):
            pt.map_page(vpn, pte(domain=7))
        assert pt.mapped_pages_of_domain(7) == 4
        pt.unmap_page(0)
        assert pt.mapped_pages_of_domain(7) == 3
