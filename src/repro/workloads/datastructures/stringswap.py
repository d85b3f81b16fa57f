"""Persistent string array with random swaps (the SS microbenchmark).

The directory of string pointers lives in the first pool; the 64-byte
strings themselves are scattered across the pool set.  A swap copies both
strings through a stack buffer: 8 word loads + 8 word stores per string —
small, hot operations with good locality, giving SS the highest
permission-switch rate of the microbenchmarks (Table VI) and a flat curve
in Figure 6.
"""

from __future__ import annotations

from typing import Iterable, List

from ...pmo.oid import OID
from ...pmo.storage import U64
from ..base import PoolHandle, Workspace
from .common import PoolSet

STRING_SIZE = 64


class PersistentStringArray:
    """Fixed-capacity array of persistent 64-byte strings."""

    def __init__(self, workspace: Workspace, pools: List[PoolHandle],
                 capacity: int, *, spill: float = 0.0, node_align: int = 8):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.ps = PoolSet(workspace, pools, spill=spill,
                          node_align=node_align)
        self.mem = self.ps.mem
        self.ws = workspace
        self.capacity = capacity
        # The directory (array of string OIDs) is itself persistent data
        # in the first pool.
        with workspace.untraced():
            self.directory = pools[0].pool.pmalloc(capacity * 8)
            self.ps.write_count(0)
        self.size = 0

    def _admit(self, index: int, data: bytes) -> None:
        """Refuse ``data`` as string ``index``: a full array, then an
        oversized string."""
        if index >= self.capacity:
            raise IndexError("string array is full")
        if len(data) > STRING_SIZE:
            raise ValueError(f"strings are at most {STRING_SIZE} bytes")

    def append(self, data: bytes) -> int:
        """Store a new string; returns its index."""
        self._admit(self.size, data)
        slot = self.ps.alloc_node(STRING_SIZE)
        self.mem.write_bytes(slot, 0, data.ljust(STRING_SIZE, b"\x00"))
        self.mem.write_oid(self.directory, self.size * 8, slot)
        self.size += 1
        self.ps.write_count(self.size)
        return self.size - 1

    def populate(self, strings: Iterable[bytes]) -> None:
        """Fill an empty array with ``strings``.

        The result equals ``append`` per string under ``untraced()``:
        the same pool bytes, heap state, RNG draws and page faults in
        the same order.  ``strings`` is consumed one at a time, each
        checked as ``append`` checks it and given its pool
        (:meth:`PoolSet.pick_pool`) before the next is drawn.  Then the
        strings are allocated in one run per pool
        (:meth:`PoolSet.alloc_nodes`) and stored by one
        :meth:`PMem.fill`: string ``i``, then directory entry ``i``, as
        ``append`` stores them (a directory that outgrows the anchor's
        page faults its next page between two strings); the count is
        written once, at the end.
        """
        if self.mem.recording:
            raise RuntimeError("populate records no accesses; "
                               "call it inside untraced()")
        if self.size:
            raise ValueError("populate needs an empty array")
        pick = self.ps.pick_pool
        picks: List[PoolHandle] = []
        images: List[bytes] = []
        for data in strings:
            self._admit(len(images), data)
            picks.append(pick())
            images.append(data.ljust(STRING_SIZE, b"\x00"))
        if not images:
            return
        slots = self.ps.alloc_nodes(picks, STRING_SIZE)
        entry = self.directory.pack()
        stores = []
        for slot, image in zip(slots, images):
            stores.append((slot, image))
            stores.append((entry, U64.pack(slot)))
            entry += 8
        self.mem.fill(stores)
        self.size = len(images)
        self.ps.write_count(self.size)

    def _slot(self, index: int) -> OID:
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range")
        return self.mem.read_oid(self.directory, index * 8)

    def get(self, index: int) -> bytes:
        return self.mem.read_bytes(self._slot(index), 0, STRING_SIZE)

    def set(self, index: int, data: bytes) -> None:
        self.mem.write_bytes(self._slot(index), 0,
                             data.ljust(STRING_SIZE, b"\x00"))

    def swap(self, i: int, j: int) -> None:
        """Swap the *contents* of two strings (the paper's 128-transfer op)."""
        slot_i = self._slot(i)
        slot_j = self._slot(j)
        data_i = self.mem.read_bytes(slot_i, 0, STRING_SIZE)
        data_j = self.mem.read_bytes(slot_j, 0, STRING_SIZE)
        self.mem.write_bytes(slot_i, 0, data_j)
        self.mem.write_bytes(slot_j, 0, data_i)

    @staticmethod
    def swap_between(a: "PersistentStringArray", i: int,
                     b: "PersistentStringArray", j: int) -> None:
        """Swap string contents across two arrays (cross-PMO swap)."""
        slot_a = a._slot(i)
        slot_b = b._slot(j)
        data_a = a.mem.read_bytes(slot_a, 0, STRING_SIZE)
        data_b = b.mem.read_bytes(slot_b, 0, STRING_SIZE)
        a.mem.write_bytes(slot_a, 0, data_b)
        b.mem.write_bytes(slot_b, 0, data_a)
