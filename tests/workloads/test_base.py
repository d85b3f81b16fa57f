"""Tests for the workspace and the permission-instrumentation policies."""

import contextlib

import pytest

from repro.permissions import Perm
from repro.cpu import trace as tr
from repro.errors import SimulationError
from repro.workloads.base import (PerAccessPolicy, PerOpPolicy,
                                  UnprotectedPolicy, Workspace)


def perm_events(trace):
    return [(e[3], e[4]) for e in trace.events if e[0] == tr.PERM]


class TestWorkspace:
    def test_create_and_attach_emits_attach_event(self):
        ws = Workspace(UnprotectedPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        trace = ws.finish()
        assert trace.events[0][0] == tr.ATTACH
        assert handle.domain in trace.attach_info

    def test_untraced_suppresses_events(self):
        ws = Workspace(UnprotectedPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        oid = handle.pool.pmalloc(64)
        with ws.untraced():
            ws.mem.write_u64(oid, 0, 1)
        trace = ws.finish()
        assert trace.counts().get("store", 0) == 0

    def test_untraced_still_performs_the_write(self):
        ws = Workspace(UnprotectedPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        oid = handle.pool.pmalloc(64)
        with ws.untraced():
            ws.mem.write_u64(oid, 0, 0xABCD)
        assert ws.mem.read_u64(oid, 0) == 0xABCD

    def test_accesses_map_pages_eagerly(self):
        ws = Workspace(UnprotectedPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        oid = handle.pool.pmalloc(64)
        ws.mem.write_u64(oid, 0, 1)
        vpn = (handle.base + oid.offset) >> 12
        assert ws.process.page_table.get(vpn) is not None

    def test_oid_to_va_translation(self):
        ws = Workspace(UnprotectedPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        oid = handle.pool.pmalloc(64)
        assert handle.va_of(oid) == handle.base + oid.offset

    def test_detach_emits_event(self):
        ws = Workspace(UnprotectedPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        ws.detach(handle)
        trace = ws.finish()
        assert trace.counts().get("detach") == 1

    def test_stack_accesses_are_domainless(self):
        ws = Workspace(UnprotectedPolicy())
        ws.stack_access(n=3)
        trace = ws.finish()
        loads = [e for e in trace.events if e[0] == tr.LOAD]
        assert len(loads) == 3
        assert all(ws.process.address_space.find(e[3]).pmo_id == 0
                   for e in loads)


class TestPerAccessPolicy:
    def test_every_access_is_bracketed(self):
        ws = Workspace(PerAccessPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        oid = handle.pool.pmalloc(64)
        ws.mem.write_u64(oid, 0, 1)
        ws.mem.read_u64(oid, 0)
        trace = ws.finish()
        kinds = [e[0] for e in trace.events if e[0] in
                 (tr.PERM, tr.LOAD, tr.STORE)]
        assert kinds == [tr.PERM, tr.STORE, tr.PERM,
                         tr.PERM, tr.LOAD, tr.PERM]

    def test_bracket_grants_rw_then_none(self):
        ws = Workspace(PerAccessPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        ws.mem.read_u64(handle.pool.pmalloc(64), 0)
        grants = perm_events(ws.finish())
        assert grants == [(handle.domain, int(Perm.RW)),
                          (handle.domain, int(Perm.NONE))]

    def test_initial_permission_is_none(self):
        ws = Workspace(PerAccessPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        trace = ws.finish()
        inits = [(e[3], e[4]) for e in trace.events if e[0] == tr.INIT_PERM]
        assert (handle.domain, int(Perm.NONE)) in inits


class TestPerOpPolicy:
    def test_write_outside_operation_rejected(self):
        ws = Workspace(PerOpPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        with pytest.raises(SimulationError):
            ws.mem.write_u64(handle.pool.pmalloc(64), 0, 1)

    def test_reads_need_no_operation_scope(self):
        ws = Workspace(PerOpPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        oid = handle.pool.pmalloc(64)
        ws.mem.read_u64(oid, 0)  # global read permission covers this

    def test_grant_on_first_write_only(self):
        ws = Workspace(PerOpPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        oid = handle.pool.pmalloc(64)
        with ws.operation():
            ws.mem.write_u64(oid, 0, 1)
            ws.mem.write_u64(oid, 8, 2)  # same domain: no second grant
        grants = perm_events(ws.finish())
        assert grants == [(handle.domain, int(Perm.RW)),
                          (handle.domain, int(Perm.R))]

    def test_multi_domain_op_grants_each_once(self):
        ws = Workspace(PerOpPolicy())
        a = ws.create_and_attach("a", 8 << 20)
        b = ws.create_and_attach("b", 8 << 20)
        oid_a = a.pool.pmalloc(64)
        oid_b = b.pool.pmalloc(64)
        with ws.operation():
            ws.mem.write_u64(oid_a, 0, 1)
            ws.mem.write_u64(oid_b, 0, 1)
            ws.mem.write_u64(oid_a, 8, 1)
        grants = perm_events(ws.finish())
        assert len(grants) == 4  # 2 grants + 2 revocations

    def test_read_only_op_emits_no_switches(self):
        ws = Workspace(PerOpPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        oid = handle.pool.pmalloc(64)
        with ws.operation():
            ws.mem.read_u64(oid, 0)
        assert perm_events(ws.finish()) == []

    def test_nested_operation_rejected(self):
        ws = Workspace(PerOpPolicy())
        with pytest.raises(SimulationError):
            with ws.operation():
                with ws.operation():
                    pass

    def test_initial_permission_is_read(self):
        ws = Workspace(PerOpPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        trace = ws.finish()
        inits = [(e[3], e[4]) for e in trace.events if e[0] == tr.INIT_PERM]
        assert (handle.domain, int(Perm.R)) in inits


class TestBulkMoves:
    def test_move_range_moves_data(self):
        ws = Workspace(UnprotectedPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        oid = handle.pool.pmalloc(4096)
        ws.mem.write_bytes(oid, 0, b"A" * 128)
        ws.mem.move_range(oid, 0, 256, 128)
        assert ws.mem.read_bytes(oid, 256, 128) == b"A" * 128

    def test_move_range_traced_per_line(self):
        ws = Workspace(UnprotectedPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        oid = handle.pool.pmalloc(4096)
        before = len(ws.recorder._events)
        ws.mem.move_range(oid, 0, 1024, 256)  # 4 lines
        added = len(ws.recorder._events) - before
        assert added == 8  # 4 loads + 4 stores

    def test_copy_range_across_pools(self):
        ws = Workspace(UnprotectedPolicy())
        a = ws.create_and_attach("a", 8 << 20)
        b = ws.create_and_attach("b", 8 << 20)
        src = a.pool.pmalloc(256)
        dst = b.pool.pmalloc(256)
        ws.mem.write_bytes(src, 0, bytes(range(64)))
        ws.mem.copy_range(src, 0, dst, 0, 64)
        assert ws.mem.read_bytes(dst, 0, 64) == bytes(range(64))


class TestByteRanges:
    @staticmethod
    def _faults(traced: bool, read: bool):
        """(vpn, pfn) in fault order after one byte-range access that
        starts 20 bytes before a page boundary and crosses four: its
        last word starts 4 bytes before the fourth, so only the pages
        that words start on (four of the five it touches) fault."""
        ws = Workspace(UnprotectedPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        oid = handle.pool.pmalloc(5 * 4096)
        offset = 4096 - (handle.va_of(oid) % 4096) - 20
        length = 3 * 4096 + 22
        with ws.untraced() if not traced else contextlib.nullcontext():
            if read:
                ws.mem.read_bytes(oid, offset, length)
            else:
                ws.mem.write_bytes(oid, offset, b"\x5a" * length)
        return [(vpn, pte.pfn)
                for vpn, pte in ws.process.page_table.entries()]

    @pytest.mark.parametrize("read", [False, True], ids=["write", "read"])
    def test_untraced_range_faults_like_the_per_word_walk(self, read):
        faults = self._faults(traced=False, read=read)
        assert len(faults) == 4
        assert faults == self._faults(traced=True, read=read)

    def test_untraced_range_still_moves_the_bytes(self):
        ws = Workspace(UnprotectedPolicy())
        handle = ws.create_and_attach("p", 8 << 20)
        oid = handle.pool.pmalloc(3 * 4096)
        with ws.untraced():
            ws.mem.write_bytes(oid, 4000, bytes(range(200)))
            assert ws.mem.read_bytes(oid, 4000, 200) == bytes(range(200))
        assert ws.finish().counts().get("store", 0) == 0
