"""Pools — the concrete PMO implementation (Table I API).

A pool is a named, fixed-size persistent memory object with a persisted
header, an in-pool heap, and an optional root object that acts as the
directory of the pool's contents.  The :class:`PoolManager` implements the
paper's Table I interface (``pool_create``, ``pool_open``, ``pool_close``,
``pool_root``, ``pmalloc``, ``pfree``, ``oid_direct``) on top of an
OS-managed namespace.

Persisted pool header layout (one page reserved at offset 0)::

    0x00  magic        u64
    0x08  pool size    u64
    0x10  root OID     u64   (packed, NULL until pool_root is called)
    0x18  root size    u64
    0x20  heap top     u64   (offset one past the last carved chunk)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import (InvalidOIDError, PermissionDeniedError, PoolClosedError,
                      PoolNotFoundError)
from ..permissions import Perm
from .heap import PoolHeap
from .namespace import Namespace
from .oid import NULL_OID, OID
from .storage import SparseMemory

POOL_MAGIC = 0x504D4F5F504F4F4C  # "PMO_POOL"
POOL_HEADER_SIZE = 4096

_OFF_MAGIC = 0x00
_OFF_SIZE = 0x08
_OFF_ROOT = 0x10
_OFF_ROOT_SIZE = 0x18
_OFF_HEAP_TOP = 0x20


class Pool:
    """An open pool handle.

    Handles are produced by :class:`PoolManager`; direct construction is
    reserved for tests that want a free-standing pool.
    """

    def __init__(self, pool_id: int, name: str, size: int,
                 memory: Optional[SparseMemory] = None,
                 *, track_persistence: bool = False):
        if size <= POOL_HEADER_SIZE:
            raise ValueError(f"pool size must exceed header ({POOL_HEADER_SIZE})")
        self.pool_id = pool_id
        self.name = name
        self.size = size
        self.memory = memory or SparseMemory(
            size, track_persistence=track_persistence)
        self._closed = False
        fresh = self.memory.read_u64(_OFF_MAGIC) != POOL_MAGIC
        if fresh:
            self._format()
            self.heap = PoolHeap(self.memory, POOL_HEADER_SIZE, size)
        else:
            heap_top = self.memory.read_u64(_OFF_HEAP_TOP)
            self.heap = PoolHeap.recover(
                self.memory, POOL_HEADER_SIZE, size, heap_top or POOL_HEADER_SIZE)

    def _format(self) -> None:
        self.memory.write_u64(_OFF_MAGIC, POOL_MAGIC)
        self.memory.write_u64(_OFF_SIZE, self.size)
        self.memory.write_u64(_OFF_ROOT, NULL_OID.pack())
        self.memory.write_u64(_OFF_ROOT_SIZE, 0)
        self.memory.write_u64(_OFF_HEAP_TOP, POOL_HEADER_SIZE)
        self.memory.persist(0, POOL_HEADER_SIZE)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise PoolClosedError(f"pool {self.name!r} is closed")

    def close(self) -> None:
        """Close the handle, persisting heap metadata first."""
        if self._closed:
            return
        self.memory.write_u64(_OFF_HEAP_TOP, self.heap.heap_top)
        self.memory.persist(_OFF_HEAP_TOP, 8)
        self.memory.persist_all()
        self._closed = True

    # -- allocation ------------------------------------------------------------------

    def pmalloc(self, size: int, *, align: int = 8) -> OID:
        """Allocate persistent data in this pool; return its ObjectID."""
        return OID(self.pool_id, self.pmalloc_run(1, size, align=align)[0])

    def pmalloc_run(self, count: int, size: int, *,
                    align: int = 8) -> List[int]:
        """``count`` calls of :meth:`pmalloc`; return the payload offsets.

        One :meth:`PoolHeap.allocate_run`, then the header's heap top is
        persisted once, also when the run raises after allocating: the
        header then holds what the calls before the failing one left.
        """
        self._require_open()
        heap = self.heap
        live = heap.live_allocations
        try:
            return heap.allocate_run(count, size, align=align)
        finally:
            if heap.live_allocations != live:
                self.memory.write_u64(_OFF_HEAP_TOP, heap.heap_top)
                self.memory.persist(_OFF_HEAP_TOP, 8)

    def pfree(self, oid: OID) -> None:
        """Free persistent data pointed to by the ObjectID."""
        self._require_open()
        if oid.pool_id != self.pool_id:
            raise InvalidOIDError(
                f"{oid!r} belongs to pool {oid.pool_id}, not {self.pool_id}")
        self.heap.free(oid.offset)

    def root(self, size: int) -> OID:
        """Return (allocating on first call) the pool's root object."""
        self._require_open()
        packed = self.memory.read_u64(_OFF_ROOT)
        if packed != NULL_OID.pack():
            existing_size = self.memory.read_u64(_OFF_ROOT_SIZE)
            if size > existing_size:
                raise InvalidOIDError(
                    f"root of pool {self.name!r} is {existing_size} bytes; "
                    f"{size} requested")
            return OID.unpack(packed)
        oid = self.pmalloc(size)
        self.memory.write_u64(_OFF_ROOT, oid.pack())
        self.memory.write_u64(_OFF_ROOT_SIZE, size)
        self.memory.persist(_OFF_ROOT, 16)
        return oid

    # -- data access (offset-based; VA translation lives in the OS layer) ------------

    def read(self, offset: int, length: int) -> bytes:
        self._require_open()
        return self.memory.read(offset, length)

    def write(self, offset: int, data: bytes) -> None:
        self._require_open()
        self.memory.write(offset, data)

    def read_u64(self, offset: int) -> int:
        self._require_open()
        return self.memory.read_u64(offset)

    def write_u64(self, offset: int, value: int) -> None:
        self._require_open()
        self.memory.write_u64(offset, value)


class PoolManager:
    """Owner of all pools: Table I entry points plus OID translation.

    The manager persists pool contents across close/open (handles are
    recreated over the same backing :class:`SparseMemory`), which is what
    makes the data *persistent* from the point of view of workloads.
    """

    def __init__(self, namespace: Optional[Namespace] = None,
                 *, track_persistence: bool = False):
        self.namespace = namespace or Namespace()
        self.track_persistence = track_persistence
        self._backings: Dict[int, SparseMemory] = {}
        self._open: Dict[int, Pool] = {}

    # -- Table I API ----------------------------------------------------------------

    def pool_create(self, name: str, size: int, mode: Tuple[Perm, Perm],
                    *, owner: int = 0, attach_key: Optional[int] = None) -> Pool:
        """Create a pool and associate it with ``name``; caller becomes owner."""
        meta = self.namespace.create(name, size, mode, owner=owner,
                                     attach_key=attach_key)
        backing = SparseMemory(size, track_persistence=self.track_persistence)
        self._backings[meta.pool_id] = backing
        pool = Pool(meta.pool_id, name, size, backing)
        self._open[meta.pool_id] = pool
        return pool

    def pool_open(self, name: str, mode: Perm, *, uid: int = 0,
                  attach_key: Optional[int] = None) -> Pool:
        """Reopen a previously created pool; permissions are checked."""
        meta = self.namespace.lookup(name)
        if not self.namespace.allows(meta, uid=uid, want=mode,
                                     attach_key=attach_key):
            raise PermissionDeniedError(
                f"uid {uid} may not open pool {name!r} with {mode.name}")
        existing = self._open.get(meta.pool_id)
        if existing is not None and not existing.closed:
            return existing
        backing = self._backings[meta.pool_id]
        pool = Pool(meta.pool_id, name, meta.size, backing)
        self._open[meta.pool_id] = pool
        return pool

    def pool_close(self, pool: Pool) -> None:
        """Close a pool handle."""
        pool.close()

    def pool_delete(self, name: str, *, uid: int = 0) -> None:
        """Remove a pool and its backing storage (owner only)."""
        meta = self.namespace.lookup(name)
        if uid != meta.owner:
            raise PermissionDeniedError(
                f"uid {uid} is not the owner of pool {name!r}")
        handle = self._open.pop(meta.pool_id, None)
        if handle is not None:
            handle.close()
        del self._backings[meta.pool_id]
        self.namespace.remove(name)

    # -- translation -------------------------------------------------------------------

    def pool_by_id(self, pool_id: int) -> Pool:
        pool = self._open.get(pool_id)
        if pool is None or pool.closed:
            raise PoolNotFoundError(f"pool id {pool_id} is not open")
        return pool

    def oid_direct(self, oid: OID) -> Tuple[Pool, int]:
        """Translate an ObjectID to a ``(pool, offset)`` direct reference.

        This is the software translation of Table I's ``oid_direct``; when
        a pool is attached through the OS layer, the attach base address
        plus this offset gives the virtual address.
        """
        pool = self.pool_by_id(oid.pool_id)
        if not POOL_HEADER_SIZE <= oid.offset < pool.size:
            raise InvalidOIDError(f"{oid!r} points outside pool data area")
        return pool, oid.offset
