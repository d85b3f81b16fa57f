"""Persistent AVL tree (the AVL microbenchmark, Table IV).

64-byte nodes (key, value, left, right, height) scattered across the pool
set; the deep pointer-chasing of lookups plus the rotation writes of
rebalancing make AVL one of the most DTTLB/PTLB-hostile workloads in the
paper's sweep.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional, Tuple

from ...pmo.oid import NULL_OID, NULL_OID_VALUE, OID
from ..base import PoolHandle, Workspace
from .common import PoolSet, is_null

OFF_KEY = 0
OFF_VALUE = 8
OFF_LEFT = 16
OFF_RIGHT = 24
OFF_HEIGHT = 32
NODE_SIZE = 64

LEFT = OFF_LEFT
RIGHT = OFF_RIGHT

#: A node's five fields (key, value, left, right, height) in address order.
_FIELDS = struct.Struct("<5Q")


class PersistentAVL:
    """AVL tree with iterative insert/delete and in-pool rebalancing."""

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

    # -- node helpers -----------------------------------------------------------------

    def _new_node(self, key: int, value: int) -> OID:
        node = self.ps.alloc_node(NODE_SIZE)
        self.mem.write_u64(node, OFF_KEY, key)
        self.mem.write_u64(node, OFF_VALUE, value)
        self.mem.write_oid(node, OFF_LEFT, NULL_OID)
        self.mem.write_oid(node, OFF_RIGHT, NULL_OID)
        self.mem.write_u64(node, OFF_HEIGHT, 1)
        return node

    def _height(self, node: OID) -> int:
        if is_null(node):
            return 0
        return self.mem.read_u64(node, OFF_HEIGHT)

    def _refresh_height(self, node: OID) -> int:
        left = self.mem.read_oid(node, OFF_LEFT)
        right = self.mem.read_oid(node, OFF_RIGHT)
        height = 1 + max(self._height(left), self._height(right))
        # Write only on change: real AVL code avoids dirtying (and, here,
        # write-permission-granting on) every ancestor's node.
        if self.mem.read_u64(node, OFF_HEIGHT) != height:
            self.mem.write_u64(node, OFF_HEIGHT, height)
        return height

    def _balance(self, node: OID) -> int:
        left = self.mem.read_oid(node, OFF_LEFT)
        right = self.mem.read_oid(node, OFF_RIGHT)
        return self._height(left) - self._height(right)

    def _rotate(self, node: OID, heavy_off: int, light_off: int) -> OID:
        """Single rotation lifting the child at ``heavy_off``."""
        child = self.mem.read_oid(node, heavy_off)
        moved = self.mem.read_oid(child, light_off)
        self.mem.write_oid(node, heavy_off,
                           moved if not is_null(moved) else NULL_OID)
        self.mem.write_oid(child, light_off, node)
        self._refresh_height(node)
        self._refresh_height(child)
        return child

    def _rebalance_node(self, node: OID) -> OID:
        """Restore |balance| <= 1 at ``node``; returns the subtree root."""
        balance = self._balance(node)
        if balance > 1:
            left = self.mem.read_oid(node, OFF_LEFT)
            if self._balance(left) < 0:
                self.mem.write_oid(node, OFF_LEFT,
                                   self._rotate(left, OFF_RIGHT, OFF_LEFT))
            return self._rotate(node, OFF_LEFT, OFF_RIGHT)
        if balance < -1:
            right = self.mem.read_oid(node, OFF_RIGHT)
            if self._balance(right) > 0:
                self.mem.write_oid(node, OFF_RIGHT,
                                   self._rotate(right, OFF_LEFT, OFF_RIGHT))
            return self._rotate(node, OFF_RIGHT, OFF_LEFT)
        self._refresh_height(node)
        return node

    def _relink(self, path: List[Tuple[OID, int]], index: int,
                subtree: OID) -> None:
        """Attach ``subtree`` where path[index] hangs (or as the root)."""
        if index == 0:
            self.ps.write_entry(subtree)
        else:
            parent, direction = path[index - 1]
            self.mem.write_oid(parent, direction, subtree)

    def _rebalance_path(self, path: List[Tuple[OID, int]],
                        *, early_exit: bool = False) -> None:
        for i in range(len(path) - 1, -1, -1):
            node, _ = path[i]
            old_height = self.mem.read_u64(node, OFF_HEIGHT)
            new_root = self._rebalance_node(node)
            if new_root != node:
                self._relink(path, i, new_root)
                node = new_root
            if early_exit and \
                    self.mem.read_u64(node, OFF_HEIGHT) == old_height:
                # Subtree height unchanged: no ancestor can be unbalanced
                # by this insert — the standard AVL early exit.
                return

    # -- operations -----------------------------------------------------------------------

    def insert(self, key: int, value: int) -> None:
        path: List[Tuple[OID, int]] = []
        cur = self.ps.read_entry()
        while not is_null(cur):
            node_key = self.mem.read_u64(cur, OFF_KEY)
            if key == node_key:
                self.mem.write_u64(cur, OFF_VALUE, value)
                return
            direction = OFF_LEFT if key < node_key else OFF_RIGHT
            path.append((cur, direction))
            cur = self.mem.read_oid(cur, direction)
        node = self._new_node(key, value)
        self._relink(path, len(path), node)
        self.ps.write_count(self.ps.read_count() + 1)
        self._rebalance_path(path, early_exit=True)

    def populate(self, keys: Iterable[int]) -> None:
        """Fill an empty tree with ``keys``, each key its own value.

        The result equals ``insert(key, key)`` per key under
        ``untraced()``: the same pool bytes, heap state, RNG draws and
        page faults in the same order.  Each step runs ``insert``'s
        search, rotations and early-exit rebalance on list nodes and
        picks a new node's pool (:meth:`PoolSet.pick_pool`) where
        ``insert`` would allocate it, consuming ``keys`` one at a time,
        so key draws and pool-picking draws interleave as they do under
        ``insert``.  Then the nodes are allocated in one run per pool
        (:meth:`PoolSet.alloc_nodes`) and each node's fields are
        written once, in allocation order (:meth:`PMem.fill`): during
        population only a new node's first write can fault a page, so
        this faults the same pages in the same order.
        """
        if self.mem.recording:
            raise RuntimeError("populate records no accesses; "
                               "call it inside untraced()")
        if not is_null(self.ps.read_entry()):
            raise ValueError("populate needs an empty tree")
        # List node 0 is the null child: height 0, OID NULL.  Children
        # are indexed by direction: 0 left, 1 right.
        node_keys = [0]
        kids = [[0, 0]]
        heights = [0]
        picks: List[PoolHandle] = []
        pick = self.ps.pick_pool
        root = 0

        def relink(path: List[Tuple[int, int]], index: int,
                   subtree: int) -> None:
            nonlocal root
            if index:
                parent, direction = path[index - 1]
                kids[parent][direction] = subtree
            else:
                root = subtree

        def refresh(node: int) -> None:
            left, right = kids[node]
            heights[node] = 1 + max(heights[left], heights[right])

        def rotate(node: int, heavy: int) -> int:
            """Lift ``node``'s child on side ``heavy``; returns it."""
            child = kids[node][heavy]
            kids[node][heavy] = kids[child][1 - heavy]
            kids[child][1 - heavy] = node
            refresh(node)
            refresh(child)
            return child

        def balance(node: int) -> int:
            left, right = kids[node]
            return heights[left] - heights[right]

        def rebalance(node: int) -> int:
            """Restore |balance| <= 1 at ``node``; returns the subtree root."""
            tilt = balance(node)
            if tilt > 1:
                left = kids[node][0]
                if balance(left) < 0:
                    kids[node][0] = rotate(left, 1)
                return rotate(node, 0)
            if tilt < -1:
                right = kids[node][1]
                if balance(right) > 0:
                    kids[node][1] = rotate(right, 0)
                return rotate(node, 1)
            refresh(node)
            return node

        for key in keys:
            path: List[Tuple[int, int]] = []
            cur = root
            while cur:
                node_key = node_keys[cur]
                if key == node_key:
                    break  # insert would rewrite the value it already holds
                direction = 0 if key < node_key else 1
                path.append((cur, direction))
                cur = kids[cur][direction]
            if cur:
                continue
            picks.append(pick())
            node_keys.append(key)
            kids.append([0, 0])
            heights.append(1)
            relink(path, len(path), len(picks))
            for i in range(len(path) - 1, -1, -1):
                node = path[i][0]
                old_height = heights[node]
                subtree = rebalance(node)
                if subtree != node:
                    relink(path, i, subtree)
                if heights[subtree] == old_height:
                    break  # subtree height unchanged: the early exit

        # Packed pointers, list node 0 (the null child) first.
        pointers = [NULL_OID_VALUE] + self.ps.alloc_nodes(picks, NODE_SIZE)
        pack = _FIELDS.pack
        self.mem.fill([
            (pointers[node], pack(node_keys[node], node_keys[node],
                                  pointers[left], pointers[right],
                                  heights[node]))
            for node, (left, right) in enumerate(kids) if node])
        if root:
            self.ps.write_entry(OID.unpack(pointers[root]))
            self.ps.write_count(len(picks))

    def lookup(self, key: int) -> Optional[int]:
        cur = self.ps.read_entry()
        while not is_null(cur):
            node_key = self.mem.read_u64(cur, OFF_KEY)
            if key == node_key:
                return self.mem.read_u64(cur, OFF_VALUE)
            cur = self.mem.read_oid(
                cur, OFF_LEFT if key < node_key else OFF_RIGHT)
        return None

    def delete(self, key: int) -> bool:
        """Delete ``key``; returns whether it was present."""
        path: List[Tuple[OID, int]] = []
        cur = self.ps.read_entry()
        while not is_null(cur):
            node_key = self.mem.read_u64(cur, OFF_KEY)
            if key == node_key:
                break
            direction = OFF_LEFT if key < node_key else OFF_RIGHT
            path.append((cur, direction))
            cur = self.mem.read_oid(cur, direction)
        if is_null(cur):
            return False

        left = self.mem.read_oid(cur, OFF_LEFT)
        right = self.mem.read_oid(cur, OFF_RIGHT)
        if not is_null(left) and not is_null(right):
            # Two children: splice in the in-order successor's payload,
            # then delete the successor (which has no left child).
            path.append((cur, OFF_RIGHT))
            successor = right
            while True:
                succ_left = self.mem.read_oid(successor, OFF_LEFT)
                if is_null(succ_left):
                    break
                path.append((successor, OFF_LEFT))
                successor = succ_left
            self.mem.write_u64(cur, OFF_KEY,
                               self.mem.read_u64(successor, OFF_KEY))
            self.mem.write_u64(cur, OFF_VALUE,
                               self.mem.read_u64(successor, OFF_VALUE))
            cur = successor
            left = self.mem.read_oid(cur, OFF_LEFT)
            right = self.mem.read_oid(cur, OFF_RIGHT)

        replacement = left if not is_null(left) else right
        self._relink(path, len(path),
                     replacement if not is_null(replacement) else NULL_OID)
        self.ps.free_node(cur)
        self.ps.write_count(self.ps.read_count() - 1)
        self._rebalance_path(path)
        return True

    # -- validation aids (use inside ws.untraced()) ---------------------------------------

    def keys(self) -> List[int]:
        out: List[int] = []
        stack: List[Tuple[OID, bool]] = []
        root = self.ps.read_entry()
        if not is_null(root):
            stack.append((root, False))
        while stack:
            node, expanded = stack.pop()
            if expanded:
                out.append(self.mem.read_u64(node, OFF_KEY))
                continue
            right = self.mem.read_oid(node, OFF_RIGHT)
            if not is_null(right):
                stack.append((right, False))
            stack.append((node, True))
            left = self.mem.read_oid(node, OFF_LEFT)
            if not is_null(left):
                stack.append((left, False))
        return out

    def check_invariants(self) -> int:
        """Verify BST order + AVL balance; returns the tree height."""
        def recurse(node: OID, lo: Optional[int], hi: Optional[int]) -> int:
            if is_null(node):
                return 0
            key = self.mem.read_u64(node, OFF_KEY)
            if lo is not None and key <= lo:
                raise AssertionError(f"BST order violated at key {key}")
            if hi is not None and key >= hi:
                raise AssertionError(f"BST order violated at key {key}")
            hl = recurse(self.mem.read_oid(node, OFF_LEFT), lo, key)
            hr = recurse(self.mem.read_oid(node, OFF_RIGHT), key, hi)
            if abs(hl - hr) > 1:
                raise AssertionError(f"AVL balance violated at key {key}")
            height = 1 + max(hl, hr)
            stored = self.mem.read_u64(node, OFF_HEIGHT)
            if stored != height:
                raise AssertionError(f"stale height at key {key}")
            return height

        return recurse(self.ps.read_entry(), None, None)
