"""Tests for the Table I pool API."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.permissions import Perm
from repro.errors import (InvalidOIDError, PermissionDeniedError,
                          PoolClosedError, PoolExistsError, PoolNotFoundError)
from repro.pmo import OID, POOL_HEADER_SIZE, PoolManager
from repro.pmo.pool import Pool

from .test_heap import _outcome

MODE_PRIVATE = (Perm.RW, Perm.NONE)
MODE_SHARED_READ = (Perm.RW, Perm.R)


@pytest.fixture
def manager():
    return PoolManager()


class TestPoolCreate:
    def test_create_returns_open_pool(self, manager):
        pool = manager.pool_create("a", 1 << 20, MODE_PRIVATE)
        assert pool.name == "a"
        assert not pool.closed

    def test_pool_ids_are_unique_and_nonzero(self, manager):
        ids = {manager.pool_create(f"p{i}", 1 << 16, MODE_PRIVATE).pool_id
               for i in range(10)}
        assert len(ids) == 10
        assert 0 not in ids  # pool 0 reserved for NULL OIDs

    def test_duplicate_name_rejected(self, manager):
        manager.pool_create("a", 1 << 16, MODE_PRIVATE)
        with pytest.raises(PoolExistsError):
            manager.pool_create("a", 1 << 16, MODE_PRIVATE)

    def test_tiny_pool_rejected(self, manager):
        with pytest.raises(ValueError):
            manager.pool_create("a", 100, MODE_PRIVATE)


class TestPoolOpenClose:
    def test_reopen_preserves_data(self, manager):
        pool = manager.pool_create("a", 1 << 20, MODE_PRIVATE)
        oid = pool.pmalloc(64)
        pool.write(oid.offset, b"persist me")
        manager.pool_close(pool)

        reopened = manager.pool_open("a", Perm.RW)
        assert reopened.read(oid.offset, 10) == b"persist me"

    def test_reopen_preserves_allocations(self, manager):
        pool = manager.pool_create("a", 1 << 20, MODE_PRIVATE)
        oid = pool.pmalloc(64)
        manager.pool_close(pool)
        reopened = manager.pool_open("a", Perm.RW)
        # The old allocation is still live; a new one must not overlap it.
        other = reopened.pmalloc(64)
        assert other.offset != oid.offset

    def test_open_unknown_pool(self, manager):
        with pytest.raises(PoolNotFoundError):
            manager.pool_open("nope", Perm.R)

    def test_operations_on_closed_pool_rejected(self, manager):
        pool = manager.pool_create("a", 1 << 20, MODE_PRIVATE)
        manager.pool_close(pool)
        with pytest.raises(PoolClosedError):
            pool.pmalloc(8)
        with pytest.raises(PoolClosedError):
            pool.read(POOL_HEADER_SIZE, 1)

    def test_double_close_is_idempotent(self, manager):
        pool = manager.pool_create("a", 1 << 20, MODE_PRIVATE)
        manager.pool_close(pool)
        manager.pool_close(pool)

    def test_open_while_open_returns_same_handle(self, manager):
        pool = manager.pool_create("a", 1 << 20, MODE_PRIVATE)
        assert manager.pool_open("a", Perm.RW) is pool


class TestPermissions:
    def test_other_user_limited_by_mode(self, manager):
        manager.pool_create("a", 1 << 20, MODE_SHARED_READ, owner=100)
        assert manager.pool_open("a", Perm.R, uid=200) is not None
        with pytest.raises(PermissionDeniedError):
            manager.pool_open("a", Perm.RW, uid=200)

    def test_owner_gets_owner_mode(self, manager):
        manager.pool_create("a", 1 << 20, MODE_PRIVATE, owner=100)
        pool = manager.pool_open("a", Perm.RW, uid=100)
        assert pool.pool_id

    def test_private_pool_hidden_from_others(self, manager):
        manager.pool_create("a", 1 << 20, MODE_PRIVATE, owner=100)
        with pytest.raises(PermissionDeniedError):
            manager.pool_open("a", Perm.R, uid=200)

    def test_attach_key_required_when_set(self, manager):
        manager.pool_create("a", 1 << 20, MODE_SHARED_READ, owner=1,
                            attach_key=0x5EC)
        with pytest.raises(PermissionDeniedError):
            manager.pool_open("a", Perm.R, uid=2)
        assert manager.pool_open("a", Perm.R, uid=2, attach_key=0x5ec)

    def test_delete_requires_owner(self, manager):
        manager.pool_create("a", 1 << 20, MODE_PRIVATE, owner=1)
        with pytest.raises(PermissionDeniedError):
            manager.pool_delete("a", uid=2)
        manager.pool_delete("a", uid=1)
        with pytest.raises(PoolNotFoundError):
            manager.pool_open("a", Perm.R, uid=1)


class TestRoot:
    def test_root_allocated_once(self, manager):
        pool = manager.pool_create("a", 1 << 20, MODE_PRIVATE)
        r1 = pool.root(256)
        r2 = pool.root(256)
        assert r1 == r2

    def test_root_survives_reopen(self, manager):
        pool = manager.pool_create("a", 1 << 20, MODE_PRIVATE)
        root = pool.root(256)
        pool.write_u64(root.offset, 42)
        manager.pool_close(pool)
        reopened = manager.pool_open("a", Perm.RW)
        assert reopened.root(256) == root
        assert reopened.read_u64(root.offset) == 42

    def test_root_growth_rejected(self, manager):
        pool = manager.pool_create("a", 1 << 20, MODE_PRIVATE)
        pool.root(64)
        with pytest.raises(InvalidOIDError):
            pool.root(128)


class TestOidDirect:
    def test_translates_to_pool_and_offset(self, manager):
        pool = manager.pool_create("a", 1 << 20, MODE_PRIVATE)
        oid = pool.pmalloc(64)
        got_pool, offset = manager.oid_direct(oid)
        assert got_pool is pool
        assert offset == oid.offset

    def test_rejects_unknown_pool(self, manager):
        with pytest.raises(PoolNotFoundError):
            manager.oid_direct(OID(999, POOL_HEADER_SIZE))

    def test_rejects_offset_in_header(self, manager):
        pool = manager.pool_create("a", 1 << 20, MODE_PRIVATE)
        with pytest.raises(InvalidOIDError):
            manager.oid_direct(OID(pool.pool_id, 8))

    def test_pfree_checks_pool_identity(self, manager):
        a = manager.pool_create("a", 1 << 20, MODE_PRIVATE)
        b = manager.pool_create("b", 1 << 20, MODE_PRIVATE)
        oid = a.pmalloc(64)
        with pytest.raises(InvalidOIDError):
            b.pfree(oid)
        a.pfree(oid)


def pool_state(pool):
    """Every byte of the pool (the header's heap top included), durable
    and pending, plus the heap's bookkeeping."""
    memory, heap = pool.memory, pool.heap
    return (memory.read(0, pool.size), memory.read_durable(0, pool.size),
            sorted(memory._pending.items()),
            list(memory.touched_page_indexes()), heap.free_chunks(),
            list(heap._class_counts), heap.heap_top, heap.live_allocations)


class TestPmallocRun:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 500),
                              st.sampled_from([8, 64, 512, 4096]),
                              st.booleans()), max_size=12),
           st.integers(0, 30), st.integers(1, 300),
           st.sampled_from([8, 64, 512, 4096]), st.integers(1, 12),
           st.booleans())
    def test_equals_a_pmalloc_loop(self, history, count, size, align,
                                   pages, track):
        """Same offsets, error, heap and pool bytes (the header's heap
        top too) as ``count`` calls of ``pmalloc``, also when the pool
        runs out midway."""
        twins = [Pool(1, "p", POOL_HEADER_SIZE + pages * 1024,
                      track_persistence=track) for _ in range(2)]
        for pool in twins:
            # Earlier allocations, some freed: first-fit chunks, and a
            # header whose heap top went stale when a free shrank it.
            for n, a, keep in history:
                oid = _outcome(lambda: pool.pmalloc(n, align=a))
                if isinstance(oid, OID) and not keep:
                    _outcome(lambda: pool.pfree(oid))
        run, loop = twins
        got = _outcome(lambda: run.pmalloc_run(count, size, align=align))
        offsets = []

        def calls():
            for _ in range(count):
                offsets.append(loop.pmalloc(size, align=align).offset)
            return offsets

        assert got == _outcome(calls)
        assert pool_state(run) == pool_state(loop)

    def test_closed_pool_refuses_a_run(self, manager):
        pool = manager.pool_create("a", 1 << 16, MODE_PRIVATE)
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.pmalloc_run(2, 64)
