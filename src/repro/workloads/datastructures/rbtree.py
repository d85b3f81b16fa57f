"""Persistent red-black tree (the RBT microbenchmark, Table IV).

CLRS-style red-black tree with parent pointers, stored in 64-byte pool
nodes (key, value, left, right, parent, color).  The NULL ObjectID plays
the role of the nil sentinel (always black).
"""

from __future__ import annotations

from typing import List, Optional

from ...pmo.oid import NULL_OID, OID
from ..base import PoolHandle, Workspace
from .common import PoolSet, is_null

OFF_KEY = 0
OFF_VALUE = 8
OFF_LEFT = 16
OFF_RIGHT = 24
OFF_PARENT = 32
OFF_COLOR = 40
NODE_SIZE = 64

RED = 1
BLACK = 0


class PersistentRBTree:
    """Red-black tree with full insert/delete fixups."""

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

    # -- tiny accessors (every call is one traced pool access) ---------------------

    def _child(self, node: OID, off: int) -> OID:
        return self.mem.read_oid(node, off)

    def _set_child(self, node: OID, off: int, child: OID) -> None:
        self.mem.write_oid(node, off, child)

    def _parent(self, node: OID) -> OID:
        return self.mem.read_oid(node, OFF_PARENT)

    def _set_parent(self, node: OID, parent: OID) -> None:
        self.mem.write_oid(node, OFF_PARENT, parent)

    def _color(self, node: OID) -> int:
        if is_null(node):
            return BLACK  # nil is black
        return self.mem.read_u64(node, OFF_COLOR)

    def _set_color(self, node: OID, color: int) -> None:
        self.mem.write_u64(node, OFF_COLOR, color)

    def _root(self) -> OID:
        return self.ps.read_entry()

    def _set_root(self, node: OID) -> None:
        self.ps.write_entry(node)

    # -- rotations --------------------------------------------------------------------

    def _rotate(self, x: OID, side: int, other: int) -> None:
        """Rotate ``x`` down toward ``side`` (side/other are child offsets)."""
        y = self._child(x, other)
        moved = self._child(y, side)
        self._set_child(x, other, moved)
        if not is_null(moved):
            self._set_parent(moved, x)
        parent = self._parent(x)
        self._set_parent(y, parent)
        if is_null(parent):
            self._set_root(y)
        elif self._child(parent, OFF_LEFT) == x:
            self._set_child(parent, OFF_LEFT, y)
        else:
            self._set_child(parent, OFF_RIGHT, y)
        self._set_child(y, side, x)
        self._set_parent(x, y)

    # -- insert ------------------------------------------------------------------------

    def insert(self, key: int, value: int) -> None:
        parent = NULL_OID
        cur = self._root()
        while not is_null(cur):
            parent = cur
            node_key = self.mem.read_u64(cur, OFF_KEY)
            if key == node_key:
                self.mem.write_u64(cur, OFF_VALUE, value)
                return
            cur = self._child(cur, OFF_LEFT if key < node_key else OFF_RIGHT)

        node = self.ps.alloc_node(NODE_SIZE)
        self.mem.write_u64(node, OFF_KEY, key)
        self.mem.write_u64(node, OFF_VALUE, value)
        self._set_child(node, OFF_LEFT, NULL_OID)
        self._set_child(node, OFF_RIGHT, NULL_OID)
        self._set_parent(node, parent)
        self._set_color(node, RED)
        if is_null(parent):
            self._set_root(node)
        elif key < self.mem.read_u64(parent, OFF_KEY):
            self._set_child(parent, OFF_LEFT, node)
        else:
            self._set_child(parent, OFF_RIGHT, node)
        self.ps.write_count(self.ps.read_count() + 1)
        self._insert_fixup(node)

    def _insert_fixup(self, z: OID) -> None:
        while True:
            parent = self._parent(z)
            if is_null(parent) or self._color(parent) != RED:
                break
            grand = self._parent(parent)
            if self._child(grand, OFF_LEFT) == parent:
                side, other = OFF_LEFT, OFF_RIGHT
            else:
                side, other = OFF_RIGHT, OFF_LEFT
            uncle = self._child(grand, other)
            if self._color(uncle) == RED:
                self._set_color(parent, BLACK)
                self._set_color(uncle, BLACK)
                self._set_color(grand, RED)
                z = grand
                continue
            if self._child(parent, other) == z:
                z = parent
                self._rotate(z, side, other)
                parent = self._parent(z)
                grand = self._parent(parent)
            self._set_color(parent, BLACK)
            self._set_color(grand, RED)
            self._rotate(grand, other, side)
        self._set_color(self._root(), BLACK)

    # -- lookup -------------------------------------------------------------------------

    def lookup(self, key: int) -> Optional[int]:
        cur = self._root()
        while not is_null(cur):
            node_key = self.mem.read_u64(cur, OFF_KEY)
            if key == node_key:
                return self.mem.read_u64(cur, OFF_VALUE)
            cur = self._child(cur, OFF_LEFT if key < node_key else OFF_RIGHT)
        return None

    # -- delete -------------------------------------------------------------------------

    def _minimum(self, node: OID) -> OID:
        while True:
            left = self._child(node, OFF_LEFT)
            if is_null(left):
                return node
            node = left

    def _transplant(self, u: OID, v: OID) -> None:
        parent = self._parent(u)
        if is_null(parent):
            self._set_root(v)
        elif self._child(parent, OFF_LEFT) == u:
            self._set_child(parent, OFF_LEFT, v)
        else:
            self._set_child(parent, OFF_RIGHT, v)
        if not is_null(v):
            self._set_parent(v, parent)

    def delete(self, key: int) -> bool:
        z = self._root()
        while not is_null(z):
            node_key = self.mem.read_u64(z, OFF_KEY)
            if key == node_key:
                break
            z = self._child(z, OFF_LEFT if key < node_key else OFF_RIGHT)
        if is_null(z):
            return False

        y = z
        y_color = self._color(y)
        z_left = self._child(z, OFF_LEFT)
        z_right = self._child(z, OFF_RIGHT)
        if is_null(z_left):
            x = z_right
            x_parent = self._parent(z)
            self._transplant(z, z_right)
        elif is_null(z_right):
            x = z_left
            x_parent = self._parent(z)
            self._transplant(z, z_left)
        else:
            y = self._minimum(z_right)
            y_color = self._color(y)
            x = self._child(y, OFF_RIGHT)
            if self._parent(y) == z:
                x_parent = y
                if not is_null(x):
                    self._set_parent(x, y)
            else:
                x_parent = self._parent(y)
                self._transplant(y, x)
                self._set_child(y, OFF_RIGHT, z_right)
                self._set_parent(z_right, y)
            self._transplant(z, y)
            z_left = self._child(z, OFF_LEFT)
            self._set_child(y, OFF_LEFT, z_left)
            self._set_parent(z_left, y)
            self._set_color(y, self._color(z))

        self.ps.free_node(z)
        self.ps.write_count(self.ps.read_count() - 1)
        if y_color == BLACK:
            self._delete_fixup(x, x_parent)
        return True

    def _delete_fixup(self, x: OID, parent: OID) -> None:
        while not is_null(parent) and self._color(x) == BLACK:
            if self._child(parent, OFF_LEFT) == x:
                side, other = OFF_LEFT, OFF_RIGHT
            else:
                side, other = OFF_RIGHT, OFF_LEFT
            w = self._child(parent, other)
            if self._color(w) == RED:
                self._set_color(w, BLACK)
                self._set_color(parent, RED)
                self._rotate(parent, side, other)
                w = self._child(parent, other)
            if (self._color(self._child(w, OFF_LEFT)) == BLACK
                    and self._color(self._child(w, OFF_RIGHT)) == BLACK):
                self._set_color(w, RED)
                x = parent
                parent = self._parent(x)
                continue
            if self._color(self._child(w, other)) == BLACK:
                near = self._child(w, side)
                self._set_color(near, BLACK)
                self._set_color(w, RED)
                self._rotate(w, other, side)
                w = self._child(parent, other)
            self._set_color(w, self._color(parent))
            self._set_color(parent, BLACK)
            far = self._child(w, other)
            if not is_null(far):
                self._set_color(far, BLACK)
            self._rotate(parent, side, other)
            break
        if not is_null(x):
            self._set_color(x, BLACK)

    # -- validation aids (use inside ws.untraced()) -----------------------------------------

    def keys(self) -> List[int]:
        out: List[int] = []

        def walk(node: OID) -> None:
            if is_null(node):
                return
            walk(self._child(node, OFF_LEFT))
            out.append(self.mem.read_u64(node, OFF_KEY))
            walk(self._child(node, OFF_RIGHT))

        walk(self._root())
        return out

    def check_invariants(self) -> int:
        """Verify RB properties; returns the black height."""
        root = self._root()
        if not is_null(root) and self._color(root) != BLACK:
            raise AssertionError("root is not black")

        def recurse(node: OID, lo, hi) -> int:
            if is_null(node):
                return 1
            key = self.mem.read_u64(node, OFF_KEY)
            if lo is not None and key <= lo:
                raise AssertionError(f"BST order violated at {key}")
            if hi is not None and key >= hi:
                raise AssertionError(f"BST order violated at {key}")
            color = self._color(node)
            if color == RED:
                if (self._color(self._child(node, OFF_LEFT)) == RED
                        or self._color(self._child(node, OFF_RIGHT)) == RED):
                    raise AssertionError(f"red-red violation at {key}")
            bh_left = recurse(self._child(node, OFF_LEFT), lo, key)
            bh_right = recurse(self._child(node, OFF_RIGHT), key, hi)
            if bh_left != bh_right:
                raise AssertionError(f"black-height mismatch at {key}")
            return bh_left + (1 if color == BLACK else 0)

        return recurse(root, None, None)
