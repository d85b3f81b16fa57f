"""Tree pseudo-LRU replacement — the paper's stated policy for the DTTLB.

A binary tree of direction bits over ``n`` slots (``n`` a power of two):
touching a slot points every node on its root path *away* from it; the
victim is found by following the direction bits from the root.  This is
the textbook PLRU used by real TLBs and caches.
"""

from __future__ import annotations


class PseudoLRU:
    """Tree-PLRU over ``n`` slots (``n`` must be a power of two)."""

    def __init__(self, n: int):
        if n < 2 or n & (n - 1):
            raise ValueError("slot count must be a power of two >= 2")
        self.n = n
        # Heap-layout internal nodes: bits[1] is the root; node i has
        # children 2i and 2i+1.  bit 0 -> left subtree is older.
        self._bits = [0] * n
        # The root path (and the values written along it) per slot is
        # fixed by the tree shape, so touch() replays a precomputed
        # (node, bit, node, bit, ...) write list instead of re-deriving
        # it; the fast replay kernel inlines the same lists.
        ops_by_slot = []
        for target in range(n):
            ops = []
            node = 1
            width = n
            slot = target
            while width > 1:
                width //= 2
                go_right = slot >= width
                # Point away from the touched side.
                ops += (node, 0 if go_right else 1)
                node = 2 * node + (1 if go_right else 0)
                if go_right:
                    slot -= width
            ops_by_slot.append(tuple(ops))
        self._touch_ops = tuple(ops_by_slot)

    def touch(self, slot: int) -> None:
        """Mark ``slot`` most recently used."""
        if not 0 <= slot < self.n:
            raise IndexError(f"slot {slot} out of range")
        bits = self._bits
        ops = self._touch_ops[slot]
        for i in range(0, len(ops), 2):
            bits[ops[i]] = ops[i + 1]

    def victim(self) -> int:
        """Return the pseudo-least-recently-used slot."""
        node = 1
        slot = 0
        width = self.n
        while width > 1:
            width //= 2
            if self._bits[node]:
                slot += width
                node = 2 * node + 1
            else:
                node = 2 * node
        return slot

    def reset(self) -> None:
        self._bits = [0] * self.n

