"""Persistent B+ tree with 4KB nodes (the BT microbenchmark, Table IV).

Nodes are 4096 bytes holding up to 126 keys, allocated 4096-aligned so a
node never straddles pages — the paper credits BT's flat Figure 6 curve
to exactly this layout: *"B+tree is a flatter tree (126 consecutive values
in a PMO) ... hence it has a better data locality"*.

Node layout::

    0x00  type   (1 = leaf, 0 = internal)
    0x08  count  (number of keys)
    0x10  next   (leaf chain; unused in internal nodes)
    0x20  keys[126]
    0x410 values[126]   (leaf)   |   children[127] (internal)

Deletion is leaf-local (shift within the leaf, no merging) — the classic
"relaxed" B+ tree used by many PM stores; routing separators stay valid.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...pmo.oid import NULL_OID, OID
from ..base import PoolHandle, Workspace
from .common import PoolSet, is_null

NODE_SIZE = 4096
CAPACITY = 126

OFF_TYPE = 0x00
OFF_COUNT = 0x08
OFF_NEXT = 0x10
OFF_KEYS = 0x20
OFF_PAYLOAD = OFF_KEYS + CAPACITY * 8  # values (leaf) / children (internal)

LEAF = 1
INTERNAL = 0


class PersistentBPlusTree:
    """Order-126 B+ tree over pool memory."""

    def __init__(self, workspace: Workspace, pools: List[PoolHandle],
                 *, spill: float = 0.0):
        self.ps = PoolSet(workspace, pools, spill=spill, node_align=4096)
        self.mem = self.ps.mem
        with workspace.untraced():
            self.ps.write_entry(NULL_OID)
            self.ps.write_count(0)

    def __len__(self) -> int:
        return self.ps.read_count()

    # -- node helpers ---------------------------------------------------------------

    def _new_node(self, node_type: int) -> OID:
        node = self.ps.alloc_node(NODE_SIZE, align=4096)
        self.mem.write_u64(node, OFF_TYPE, node_type)
        self.mem.write_u64(node, OFF_COUNT, 0)
        self.mem.write_oid(node, OFF_NEXT, NULL_OID)
        return node

    def _key_at(self, node: OID, index: int) -> int:
        return self.mem.read_u64(node, OFF_KEYS + index * 8)

    def _payload_at(self, node: OID, index: int) -> int:
        return self.mem.read_u64(node, OFF_PAYLOAD + index * 8)

    def _child_at(self, node: OID, index: int) -> OID:
        return self.mem.read_oid(node, OFF_PAYLOAD + index * 8)

    def _count(self, node: OID) -> int:
        return self.mem.read_u64(node, OFF_COUNT)

    def _upper_bound(self, node: OID, count: int, key: int) -> int:
        """Binary search: first index whose key is > ``key`` (traced probes)."""
        lo, hi = 0, count
        while lo < hi:
            mid = (lo + hi) // 2
            if self._key_at(node, mid) <= key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # -- descent ------------------------------------------------------------------------

    def _descend(self, key: int) -> Tuple[OID, List[Tuple[OID, int]]]:
        """Walk to the leaf for ``key``; returns (leaf, path of (node, child_idx))."""
        path: List[Tuple[OID, int]] = []
        node = self.ps.read_entry()
        while not is_null(node) and self.mem.read_u64(node, OFF_TYPE) == INTERNAL:
            count = self._count(node)
            idx = self._upper_bound(node, count, key)
            path.append((node, idx))
            node = self._child_at(node, idx)
        return node, path

    # -- operations ------------------------------------------------------------------------

    def lookup(self, key: int) -> Optional[int]:
        leaf, _ = self._descend(key)
        if is_null(leaf):
            return None
        count = self._count(leaf)
        idx = self._upper_bound(leaf, count, key)
        if idx > 0 and self._key_at(leaf, idx - 1) == key:
            return self._payload_at(leaf, idx - 1)
        return None

    def insert(self, key: int, value: int) -> None:
        root = self.ps.read_entry()
        if is_null(root):
            leaf = self._new_node(LEAF)
            self.mem.write_u64(leaf, OFF_KEYS, key)
            self.mem.write_u64(leaf, OFF_PAYLOAD, value)
            self.mem.write_u64(leaf, OFF_COUNT, 1)
            self.ps.write_entry(leaf)
            self.ps.write_count(1)
            return

        leaf, path = self._descend(key)
        count = self._count(leaf)
        idx = self._upper_bound(leaf, count, key)
        if idx > 0 and self._key_at(leaf, idx - 1) == key:
            self.mem.write_u64(leaf, OFF_PAYLOAD + (idx - 1) * 8, value)
            return

        if count == CAPACITY:
            leaf, idx = self._split_leaf(leaf, path, key)
            count = self._count(leaf)
        self._leaf_insert_at(leaf, count, idx, key, value)
        self.ps.write_count(self.ps.read_count() + 1)

    def _leaf_insert_at(self, leaf: OID, count: int, idx: int,
                        key: int, value: int) -> None:
        shift = count - idx
        if shift > 0:
            self.mem.move_range(leaf, OFF_KEYS + idx * 8,
                                OFF_KEYS + (idx + 1) * 8, shift * 8)
            self.mem.move_range(leaf, OFF_PAYLOAD + idx * 8,
                                OFF_PAYLOAD + (idx + 1) * 8, shift * 8)
        self.mem.write_u64(leaf, OFF_KEYS + idx * 8, key)
        self.mem.write_u64(leaf, OFF_PAYLOAD + idx * 8, value)
        self.mem.write_u64(leaf, OFF_COUNT, count + 1)

    def _split_leaf(self, leaf: OID, path: List[Tuple[OID, int]],
                    key: int) -> Tuple[OID, int]:
        """Split a full leaf; returns (target leaf for key, insert index)."""
        right = self._new_node(LEAF)
        half = CAPACITY // 2
        right_count = CAPACITY - half
        self.mem.copy_range(leaf, OFF_KEYS + half * 8,
                            right, OFF_KEYS, right_count * 8)
        self.mem.copy_range(leaf, OFF_PAYLOAD + half * 8,
                            right, OFF_PAYLOAD, right_count * 8)
        self.mem.write_u64(leaf, OFF_COUNT, half)
        self.mem.write_u64(right, OFF_COUNT, right_count)
        self.mem.write_oid(right, OFF_NEXT, self.mem.read_oid(leaf, OFF_NEXT))
        self.mem.write_oid(leaf, OFF_NEXT, right)
        separator = self._key_at(right, 0)
        self._insert_into_parent(path, leaf, separator, right)
        if key >= separator:
            return right, self._upper_bound(right, right_count, key)
        return leaf, self._upper_bound(leaf, half, key)

    def _insert_into_parent(self, path: List[Tuple[OID, int]], left: OID,
                            separator: int, right: OID) -> None:
        if not path:
            root = self._new_node(INTERNAL)
            self.mem.write_u64(root, OFF_KEYS, separator)
            self.mem.write_u64(root, OFF_PAYLOAD, left.pack())
            self.mem.write_u64(root, OFF_PAYLOAD + 8, right.pack())
            self.mem.write_u64(root, OFF_COUNT, 1)
            self.ps.write_entry(root)
            return

        parent, idx = path[-1]
        count = self._count(parent)
        if count == CAPACITY:
            parent, idx = self._split_internal(parent, path[:-1], separator)
            count = self._count(parent)
        shift = count - idx
        if shift > 0:
            self.mem.move_range(parent, OFF_KEYS + idx * 8,
                                OFF_KEYS + (idx + 1) * 8, shift * 8)
            self.mem.move_range(parent, OFF_PAYLOAD + (idx + 1) * 8,
                                OFF_PAYLOAD + (idx + 2) * 8, shift * 8)
        self.mem.write_u64(parent, OFF_KEYS + idx * 8, separator)
        self.mem.write_u64(parent, OFF_PAYLOAD + (idx + 1) * 8, right.pack())
        self.mem.write_u64(parent, OFF_COUNT, count + 1)

    def _split_internal(self, node: OID, path: List[Tuple[OID, int]],
                        pending_key: int) -> Tuple[OID, int]:
        """Split a full internal node; returns (target node, child index)."""
        right = self._new_node(INTERNAL)
        mid = CAPACITY // 2  # keys[mid] is promoted
        promoted = self._key_at(node, mid)
        right_keys = CAPACITY - mid - 1
        self.mem.copy_range(node, OFF_KEYS + (mid + 1) * 8,
                            right, OFF_KEYS, right_keys * 8)
        self.mem.copy_range(node, OFF_PAYLOAD + (mid + 1) * 8,
                            right, OFF_PAYLOAD, (right_keys + 1) * 8)
        self.mem.write_u64(node, OFF_COUNT, mid)
        self.mem.write_u64(right, OFF_COUNT, right_keys)
        self._insert_into_parent(path, node, promoted, right)
        if pending_key >= promoted:
            return right, self._upper_bound(right, right_keys, pending_key)
        return node, self._upper_bound(node, mid, pending_key)

    def delete(self, key: int) -> bool:
        """Leaf-local delete; returns whether the key was present."""
        leaf, _ = self._descend(key)
        if is_null(leaf):
            return False
        count = self._count(leaf)
        idx = self._upper_bound(leaf, count, key)
        if idx == 0 or self._key_at(leaf, idx - 1) != key:
            return False
        pos = idx - 1
        shift = count - idx
        if shift > 0:
            self.mem.move_range(leaf, OFF_KEYS + (pos + 1) * 8,
                                OFF_KEYS + pos * 8, shift * 8)
            self.mem.move_range(leaf, OFF_PAYLOAD + (pos + 1) * 8,
                                OFF_PAYLOAD + pos * 8, shift * 8)
        self.mem.write_u64(leaf, OFF_COUNT, count - 1)
        self.ps.write_count(self.ps.read_count() - 1)
        return True

    # -- validation aids (use inside ws.untraced()) ----------------------------------------

    def keys(self) -> List[int]:
        """All keys in order, via the leftmost-leaf chain."""
        node = self.ps.read_entry()
        if is_null(node):
            return []
        while self.mem.read_u64(node, OFF_TYPE) == INTERNAL:
            node = self._child_at(node, 0)
        out: List[int] = []
        while not is_null(node):
            for i in range(self._count(node)):
                out.append(self._key_at(node, i))
            node = self.mem.read_oid(node, OFF_NEXT)
        return out

    def check_invariants(self) -> int:
        """Verify key order, routing and counts; returns the tree depth."""
        root = self.ps.read_entry()
        if is_null(root):
            return 0

        def recurse(node: OID, lo, hi, depth: int) -> int:
            count = self._count(node)
            if count > CAPACITY:
                raise AssertionError("node over capacity")
            prev = None
            for i in range(count):
                key = self._key_at(node, i)
                if prev is not None and key < prev:
                    raise AssertionError("keys out of order in node")
                if lo is not None and key < lo:
                    raise AssertionError("key below subtree bound")
                if hi is not None and key >= hi:
                    raise AssertionError("key above subtree bound")
                prev = key
            if self.mem.read_u64(node, OFF_TYPE) == LEAF:
                return depth
            depths = set()
            for i in range(count + 1):
                child = self._child_at(node, i)
                child_lo = self._key_at(node, i - 1) if i > 0 else lo
                child_hi = self._key_at(node, i) if i < count else hi
                depths.add(recurse(child, child_lo, child_hi, depth + 1))
            if len(depths) != 1:
                raise AssertionError("leaves at different depths")
            return depths.pop()

        return recurse(root, None, None, 1)
