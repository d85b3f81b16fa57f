"""Persistent singly linked list (the LL microbenchmark, Table IV).

Nodes are 64 bytes (key, value, next) scattered across the pool set, so
every hop of a traversal is a likely TLB miss on a different domain —
the paper singles LL out for exactly this: *"each node access could cause
a TLB miss, hence less flat curves"* (Section VI-B).
"""

from __future__ import annotations

from typing import List, Optional

from ...pmo.oid import NULL_OID, OID
from ..base import PoolHandle, Workspace
from .common import PoolSet, is_null

OFF_KEY = 0
OFF_VALUE = 8
OFF_NEXT = 16
NODE_SIZE = 64


class PersistentLinkedList:
    """Singly linked list with positional insertion and deletion."""

    def __init__(self, workspace: Workspace, pools: List[PoolHandle],
                 *, spill: float = 0.0, node_align: int = 8):
        self.ps = PoolSet(workspace, pools, spill=spill,
                          node_align=node_align)
        self.mem = self.ps.mem
        with workspace.untraced():
            self.ps.write_entry(NULL_OID)
            self.ps.write_count(0)

    def __len__(self) -> int:
        return self.ps.read_count()

    # -- internals --------------------------------------------------------------------

    def _new_node(self, key: int, value: int, next_oid: OID) -> OID:
        node = self.ps.alloc_node(NODE_SIZE)
        self.mem.write_u64(node, OFF_KEY, key)
        self.mem.write_u64(node, OFF_VALUE, value)
        self.mem.write_oid(node, OFF_NEXT, next_oid)
        return node

    def _walk(self, steps: int):
        """Walk ``steps`` nodes; returns (prev, cur) around the position."""
        prev: Optional[OID] = None
        cur = self.ps.read_entry()
        for _ in range(steps):
            if is_null(cur):
                break
            prev = cur
            cur = self.mem.read_oid(cur, OFF_NEXT)
        return prev, cur

    # -- operations --------------------------------------------------------------------

    def insert_at(self, index: int, key: int, value: int) -> OID:
        """Insert a node before position ``index`` (clamped to the tail)."""
        prev, cur = self._walk(index)
        node = self._new_node(key, value, cur if not is_null(cur) else NULL_OID)
        if prev is None:
            self.ps.write_entry(node)
        else:
            self.mem.write_oid(prev, OFF_NEXT, node)
        self.ps.write_count(self.ps.read_count() + 1)
        return node

    def delete_at(self, index: int) -> Optional[int]:
        """Delete the node at ``index``; returns its key (None if empty)."""
        prev, cur = self._walk(index)
        if is_null(cur):
            return None
        key = self.mem.read_u64(cur, OFF_KEY)
        nxt = self.mem.read_oid(cur, OFF_NEXT)
        if prev is None:
            self.ps.write_entry(nxt)
        else:
            self.mem.write_oid(prev, OFF_NEXT, nxt)
        self.ps.free_node(cur)
        self.ps.write_count(self.ps.read_count() - 1)
        return key

    def keys(self) -> List[int]:
        """In-order key list (validation aid; trace with ws.untraced())."""
        out: List[int] = []
        cur = self.ps.read_entry()
        while not is_null(cur):
            out.append(self.mem.read_u64(cur, OFF_KEY))
            cur = self.mem.read_oid(cur, OFF_NEXT)
        return out
