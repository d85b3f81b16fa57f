"""Tests for the kernel: attach/detach, sharing policy, demand paging."""

import pytest

from repro.errors import (AttachError, NotAttachedError,
                          PermissionDeniedError)
from repro.permissions import Perm
from repro.mem.memory import PhysicalMemory
from repro.mem.page_table import vpn_of
from repro.os.kernel import Kernel

MODE = (Perm.RW, Perm.R)


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def process(kernel):
    return kernel.create_process()


def make_pool(kernel, name="p", size=8 << 20, owner=0, **kwargs):
    kernel.pools.pool_create(name, size, MODE, owner=owner, **kwargs)
    return name


class TestAttach:
    def test_attach_returns_domain_equal_to_pmo_id(self, kernel, process):
        name = make_pool(kernel)
        attachment = kernel.attach(process, name, Perm.RW)
        meta = kernel.pools.namespace.lookup(name)
        assert attachment.pmo_id == meta.pool_id

    def test_attach_reserves_granule_region(self, kernel, process):
        name = make_pool(kernel, size=8 << 20)
        attachment = kernel.attach(process, name, Perm.RW)
        assert attachment.vma.granule == 1 << 30

    def test_attach_intent_none_rejected(self, kernel, process):
        name = make_pool(kernel)
        with pytest.raises(AttachError):
            kernel.attach(process, name, Perm.NONE)

    def test_double_attach_rejected(self, kernel, process):
        name = make_pool(kernel)
        kernel.attach(process, name, Perm.RW)
        with pytest.raises(AttachError):
            kernel.attach(process, name, Perm.R)

    def test_namespace_permission_enforced(self, kernel):
        name = make_pool(kernel, owner=1)
        other = kernel.create_process(uid=2)
        with pytest.raises(PermissionDeniedError):
            kernel.attach(other, name, Perm.RW)  # others only get R
        assert kernel.attach(other, name, Perm.R)

    def test_attach_key_checked(self, kernel, process):
        name = make_pool(kernel, name="locked", attach_key=0xBEEF)
        with pytest.raises(PermissionDeniedError):
            kernel.attach(process, name, Perm.RW)
        assert kernel.attach(process, name, Perm.RW, attach_key=0xBEEF)


class TestSharingPolicy:
    """Section IV-A: exclusive writer XOR multiple readers."""

    def test_two_readers_allowed(self, kernel):
        name = make_pool(kernel)
        p1, p2 = kernel.create_process(), kernel.create_process()
        kernel.attach(p1, name, Perm.R)
        kernel.attach(p2, name, Perm.R)

    def test_writer_excludes_readers(self, kernel):
        name = make_pool(kernel)
        p1, p2 = kernel.create_process(), kernel.create_process()
        kernel.attach(p1, name, Perm.RW)
        with pytest.raises(AttachError):
            kernel.attach(p2, name, Perm.R)

    def test_reader_excludes_writer(self, kernel):
        name = make_pool(kernel)
        p1, p2 = kernel.create_process(), kernel.create_process()
        kernel.attach(p1, name, Perm.R)
        with pytest.raises(AttachError):
            kernel.attach(p2, name, Perm.RW)

    def test_detach_releases_the_share(self, kernel):
        name = make_pool(kernel)
        p1, p2 = kernel.create_process(), kernel.create_process()
        attachment = kernel.attach(p1, name, Perm.RW)
        kernel.detach(p1, attachment.pmo_id)
        kernel.attach(p2, name, Perm.RW)


class TestDetach:
    def test_detach_unmaps_pages_and_releases_va(self, kernel, process):
        name = make_pool(kernel)
        attachment = kernel.attach(process, name, Perm.RW)
        vaddr = attachment.vma.base + 4096
        kernel.ensure_mapped(process, vaddr)
        assert process.page_table.mapped_pages == 1
        kernel.detach(process, attachment.pmo_id)
        assert process.page_table.mapped_pages == 0
        assert process.address_space.find(vaddr) is None

    def test_detach_unknown_pmo(self, kernel, process):
        with pytest.raises(NotAttachedError):
            kernel.detach(process, 99)


class TestDemandPaging:
    def test_pmo_page_gets_nvm_frame(self, kernel, process):
        name = make_pool(kernel)
        attachment = kernel.attach(process, name, Perm.RW)
        pte = kernel.ensure_mapped(process, attachment.vma.base)
        assert PhysicalMemory.is_nvm_frame(pte.pfn)
        assert pte.domain == attachment.pmo_id

    def test_volatile_page_gets_dram_frame(self, kernel, process):
        vma = kernel.map_volatile(process, 1 << 16)
        pte = kernel.ensure_mapped(process, vma.base)
        assert not PhysicalMemory.is_nvm_frame(pte.pfn)
        assert pte.domain == 0

    def test_page_perm_follows_attach_intent(self, kernel, process):
        name = make_pool(kernel, owner=process.uid)
        attachment = kernel.attach(process, name, Perm.R)
        pte = kernel.ensure_mapped(process, attachment.vma.base)
        assert pte.perm == Perm.R

    def test_fault_outside_any_vma_is_segfault(self, kernel, process):
        with pytest.raises(NotAttachedError):
            kernel.handle_page_fault(process, 0x1234)

    def test_ensure_mapped_is_idempotent(self, kernel, process):
        name = make_pool(kernel)
        attachment = kernel.attach(process, name, Perm.RW)
        first = kernel.ensure_mapped(process, attachment.vma.base)
        second = kernel.ensure_mapped(process, attachment.vma.base)
        assert first is second
        assert kernel.page_faults == 1


class TestPkeyMprotect:
    """The modelled ``pkey_mprotect`` (mpk's attach, libmpk's remaps):
    the VMA takes the key and the domain's mapped PTEs are rewritten."""

    def test_rewrites_mapped_ptes_and_sets_vma_key(self, kernel, process):
        name = make_pool(kernel)
        attachment = kernel.attach(process, name, Perm.RW)
        base = attachment.vma.base
        for page in range(3):
            kernel.ensure_mapped(process, base + page * 4096)
        attachment.vma.pkey = 5
        rewritten = process.page_table.set_pkey_for_domain(
            attachment.pmo_id, 5)
        # Only the demand-faulted pages, not the 8 MiB reservation.
        assert rewritten == 3
        assert process.page_table.get(vpn_of(base)).pkey == 5

    def test_new_faults_inherit_the_key(self, kernel, process):
        name = make_pool(kernel)
        attachment = kernel.attach(process, name, Perm.RW)
        attachment.vma.pkey = 7
        pte = kernel.ensure_mapped(process, attachment.vma.base + 4096)
        assert pte.pkey == 7
