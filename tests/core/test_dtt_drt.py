"""Tests for the DTT and the DRT: their tables of attached domains."""

import pytest

from repro.core.dtt import NO_KEY, DomainTranslationTable, DTTLBEntry
from repro.errors import DomainError
from repro.permissions import Perm
from repro.os.address_space import GB1, KB4, MB2, VMA


def vma(domain, base, size, granule):
    reserved = -(-size // granule) * granule
    return VMA(base=base, reserved=reserved, size=size, pmo_id=domain,
               granule=granule, is_nvm=True)


class AttachedDomains:
    """The DRT as the model keeps it: DomainVirtScheme's attached set,
    driven through the scheme's attach/detach hooks."""

    def __init__(self, harness):
        self.scheme = harness("domain_virt").scheme

    def add(self, region):
        self.scheme.attach_domain(region, Perm.RW)

    def remove(self, domain):
        self.scheme.detach_domain(domain)

    def __contains__(self, domain):
        return domain in self.scheme.attached

    def __len__(self):
        return len(self.scheme.attached)


@pytest.fixture(params=["DomainTranslationTable", "DomainRangeTable"])
def table(request, harness):
    if request.param == "DomainRangeTable":
        return AttachedDomains(harness)
    return DomainTranslationTable()


class TestRadixCommon:
    """By-domain behaviour shared by the DTT and the DRT (in hardware,
    radix tables of PMO-root entries)."""

    def test_duplicate_domain_rejected(self, table):
        table.add(vma(5, 0x2000_0000_0000, KB4, KB4))
        with pytest.raises(DomainError):
            table.add(vma(5, 0x2000_0000_2000, KB4, KB4))

    def test_remove_clears_mapping(self, table):
        table.add(vma(5, 0x2000_0000_0000, KB4, KB4))
        table.remove(5)
        assert 5 not in table and len(table) == 0
        with pytest.raises(DomainError):
            table.remove(5)

    def test_remove_unknown_domain(self, table):
        with pytest.raises(DomainError):
            table.remove(42)

    def test_len_and_contains(self, table):
        table.add(vma(1, 0x2000_0000_0000, KB4, KB4))
        table.add(vma(2, 0x2000_4000_0000, MB2, MB2))
        assert len(table) == 2
        assert 1 in table and 2 in table and 3 not in table


class TestDTTSpecifics:
    def test_new_entry_has_no_key(self):
        dtt = DomainTranslationTable()
        entry = dtt.add(vma(1, 0x2000_0000_0000, 8 << 20, GB1))
        assert entry.key == NO_KEY

    def test_per_thread_permissions_default_none(self):
        dtt = DomainTranslationTable()
        entry = dtt.add(vma(1, 0x2000_0000_0000, KB4, KB4))
        assert entry.perm_for(tid=123) == Perm.NONE
        entry.perms[123] = Perm.R
        assert entry.perm_for(123) == Perm.R
        assert entry.perm_for(124) == Perm.NONE

    def test_by_domain_lookup(self):
        dtt = DomainTranslationTable()
        dtt.add(vma(4, 0x2000_0000_0000, KB4, KB4))
        assert dtt.by_domain(4).domain == 4
        with pytest.raises(DomainError):
            dtt.by_domain(5)

    def test_removed_entry_marked_invalid(self):
        dtt = DomainTranslationTable()
        entry = dtt.add(vma(1, 0x2000_0000_0000, KB4, KB4))
        dtt.remove(1)
        assert not entry.valid

    def test_dttlb_entry_writes_its_key_back(self):
        dtt = DomainTranslationTable()
        root = dtt.add(vma(1, 0x2000_0000_0000, KB4, KB4))
        cached = DTTLBEntry(domain=1, key=3, perm=Perm.R, dirty=True,
                            dtt_entry=root)
        cached.write_back()
        assert root.key == 3
        cached.valid = False
        cached.write_back()
        assert root.key == NO_KEY
