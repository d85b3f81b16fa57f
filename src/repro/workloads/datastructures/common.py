"""Shared plumbing for the persistent data structures.

Every structure of Table III/IV stores its nodes *in pools* and reaches
them through traced :class:`~repro.workloads.base.PMem` accesses, so the
traces carry genuine pointer-chasing behaviour.  A structure spanning
multiple pools (the multi-PMO microbenchmarks) places each new node in a
random pool of its :class:`PoolSet`, which is what makes traversals hop
protection domains.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ...pmo.oid import NULL_OID, OID
from ..base import PMem, PoolHandle, Workspace


class PoolSet:
    """The pools a structure spreads over, plus its anchor object.

    The anchor lives in the first pool's root object and persistently
    holds the structure's entry pointer (root/head) and element count —
    the "directory of the contents" role of Table I's root object.
    """

    ANCHOR_SIZE = 64

    def __init__(self, workspace: Workspace, pools: List[PoolHandle],
                 *, spill: float = 0.0, node_align: int = 8):
        if not pools:
            raise ValueError("a structure needs at least one pool")
        if not 0.0 <= spill <= 1.0:
            raise ValueError("spill must be a fraction")
        self.ws = workspace
        self.mem: PMem = workspace.mem
        self.pools = pools
        #: Probability that a new node's pool is drawn uniformly from all
        #: of ``pools``, the home pool included (so a spilled node leaves
        #: home with probability ``(n - 1) / n``) — the paper's "data
        #: structures contain nodes in different PMOs".
        self.spill = spill
        #: Minimum node alignment.  4096 scatters 64-byte nodes one per
        #: page, reproducing the TLB pressure of the paper's 8MB pools.
        self.node_align = node_align
        with workspace.untraced():
            self.anchor: OID = pools[0].pool.root(self.ANCHOR_SIZE)

    def pick_pool(self) -> PoolHandle:
        """Home pool, or (with probability ``spill``) a pool drawn
        uniformly from all of them, the home pool included."""
        pools = self.pools
        if len(pools) == 1:
            return pools[0]
        if self.spill and self.ws.rng.random() < self.spill:
            return pools[self.ws.rng.randrange(len(pools))]
        return pools[0]

    def alloc_node(self, size: int, *, align: int = 8) -> OID:
        return self.pick_pool().pool.pmalloc(
            size, align=max(align, self.node_align))

    def alloc_nodes(self, picks: Sequence[PoolHandle], size: int, *,
                    align: int = 8) -> List[int]:
        """One node per pick (handles from :meth:`pick_pool`); return
        the nodes' packed pointers, in pick order.

        Equals :meth:`alloc_node` per pick.  The pools' heaps are
        independent, so one :meth:`Pool.pmalloc_run` per pool over its
        picks, in pick order, leaves every heap as the calls would.
        """
        align = max(align, self.node_align)
        slots: Dict[PoolHandle, List[int]] = {}
        for i, handle in enumerate(picks):
            where = slots.get(handle)
            if where is None:
                slots[handle] = [i]
            else:
                where.append(i)
        packed = [0] * len(picks)
        for handle, where in slots.items():
            pool = handle.pool
            high = pool.pool_id << 32
            for i, offset in zip(where, pool.pmalloc_run(len(where), size,
                                                         align=align)):
                packed[i] = high | offset
        return packed

    def free_node(self, oid: OID) -> None:
        self.ws.pools[oid.pool_id].pool.pfree(oid)

    # -- anchor fields (slot 0: entry OID, slot 1: element count) -------------------

    def read_entry(self) -> OID:
        return self.mem.read_oid(self.anchor, 0)

    def write_entry(self, oid: OID) -> None:
        self.mem.write_oid(self.anchor, 0, oid)

    def read_count(self) -> int:
        # Counts are bookkeeping, not part of the measured access pattern:
        # updating them per operation would add an artificial write (and a
        # write-permission grant) on the anchor pool to every operation.
        with self.ws.untraced():
            return self.mem.read_u64(self.anchor, 8)

    def write_count(self, value: int) -> None:
        with self.ws.untraced():
            self.mem.write_u64(self.anchor, 8, value)


def is_null(oid: Optional[OID]) -> bool:
    # A null pointer is (pool 0, offset 0) — the field test covers both
    # the NULL_OID comparison and the packed-value check.
    return oid is None or (oid.pool_id | oid.offset) == 0
