"""In-pool persistent heap allocator.

``pmalloc``/``pfree`` (Table I) allocate chunks *inside* a pool, returning
offsets.  The allocator's metadata lives in the pool itself so that a pool
reopened after a crash can rebuild its allocation state by scanning chunk
headers — mirroring how persistent allocators such as PMDK's recover.

On-media layout of the heap region::

    [ chunk header: u64 ][ payload ... ][ chunk header ][ payload ] ...

A chunk header encodes ``(chunk_size << 1) | in_use`` where ``chunk_size``
includes the header itself.  The current end of the heap (``heap_top``) is
persisted by the pool header so a scan knows where to stop.

A volatile free list (rebuildable from the scan) provides first-fit
allocation with splitting and eager coalescing of adjacent free chunks.
The free list also counts its chunks per payload-alignment class, so an
aligned request that no free chunk could satisfy skips the scan: a bump
allocation at a large alignment leaves a pad chunk that can never serve
that alignment, one per node, and scanning them on every allocation
would make population quadratic in nodes per pool.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import InvalidOIDError, OutOfPoolMemoryError
from .storage import U64, SparseMemory

HEADER_SIZE = 8
MIN_CHUNK = 32  # smallest chunk we will split off (header + 24B payload)
#: Highest payload-alignment class counted separately (2**12 = a page);
#: larger alignments share it.
_TOP_CLASS = 12


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


def _header_word(size: int, in_use: bool) -> bytes:
    """The stored chunk header of a ``size``-byte chunk."""
    return U64.pack(size << 1 | in_use)


def _align_class(value: int) -> int:
    """log2 of the largest power of two dividing ``value``, capped."""
    return min((value & -value).bit_length() - 1, _TOP_CLASS)


class PoolHeap:
    """First-fit persistent heap over ``[base, limit)`` of a pool's memory."""

    def __init__(self, memory: SparseMemory, base: int, limit: int,
                 *, heap_top: int = 0):
        if base >= limit:
            raise ValueError("heap region is empty")
        self._mem = memory
        self.base = base
        self.limit = limit
        #: First offset past the last chunk ever carved out of the region.
        self.heap_top = heap_top if heap_top else base
        # Volatile free list: chunk start offset -> chunk size.
        self._free: Dict[int, int] = {}
        # Reverse index for O(1) coalescing: chunk end offset -> start offset.
        self._free_by_end: Dict[int, int] = {}
        # Free chunks per payload-alignment class (see _align_class).
        self._class_counts = [0] * (_TOP_CLASS + 1)
        self.live_allocations = 0

    # -- header helpers --------------------------------------------------------

    def _write_header(self, offset: int, size: int, in_use: bool) -> None:
        self._mem.write(offset, _header_word(size, in_use))
        self._mem.persist(offset, HEADER_SIZE)

    def _read_header(self, offset: int) -> Tuple[int, bool]:
        word = self._mem.read_u64(offset)
        return word >> 1, bool(word & 1)

    # -- free-list plumbing ---------------------------------------------------

    def _insert_free(self, offset: int, size: int) -> None:
        # Coalesce with the chunk that ends where this one starts.
        prev_start = self._free_by_end.get(offset)
        if prev_start is not None:
            size += self._remove_free(prev_start)
            offset = prev_start
        # Coalesce with the chunk that starts where this one ends.
        if offset + size in self._free:
            size += self._remove_free(offset + size)
        # A free chunk adjacent to heap_top shrinks the heap instead.
        if offset + size == self.heap_top:
            self.heap_top = offset
            return
        self._free[offset] = size
        self._free_by_end[offset + size] = offset
        self._class_counts[_align_class(offset + HEADER_SIZE)] += 1
        self._write_header(offset, size, in_use=False)

    def _remove_free(self, offset: int) -> int:
        size = self._free.pop(offset)
        del self._free_by_end[offset + size]
        self._class_counts[_align_class(offset + HEADER_SIZE)] -= 1
        return size

    # -- public API --------------------------------------------------------------

    def allocate(self, size: int, *, align: int = 8) -> int:
        """Allocate ``size`` payload bytes; return the payload offset.

        ``align`` constrains the *payload* alignment (power of two).  Large
        alignments (e.g. 4096 for B+-tree nodes) keep a node within one
        page, which matters for the locality arguments in Section VI-B.
        """
        return self.allocate_run(1, size, align=align)[0]

    def allocate_run(self, count: int, size: int, *,
                     align: int = 8) -> List[int]:
        """``count`` calls of :meth:`allocate`; return their payloads.

        The heap ends as the calls would leave it, header bytes
        included.  When call ``k + 1`` would raise, the run raises the
        same error with the heap as the first ``k`` calls left it.
        While some free chunk could serve ``align`` each allocation
        goes first fit; the rest of the run is bump allocations, whose
        headers reach storage in one store.
        """
        if count <= 0:
            return []
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        needed = HEADER_SIZE + _align_up(size, 8)
        payloads: List[int] = []
        # First fit over the free list, skipped when no free chunk's
        # payload has the alignment.  Once it finds no chunk, neither
        # can the run's later allocations: bumps only file pads.
        counts = self._class_counts
        first_class = _align_class(align)
        while any(counts[first_class:]):
            payload = self._first_fit(needed, align - 1)
            if payload is None:
                break
            payloads.append(payload)
            if len(payloads) == count:
                return payloads
        self._bump(count - len(payloads), size, align, payloads)
        return payloads

    def _first_fit(self, needed: int, amask: int) -> Optional[int]:
        """Carve ``needed`` bytes out of the first free chunk (offsets
        sorted for determinism) whose payload is aligned; None when no
        chunk fits."""
        for offset in sorted(self._free):
            payload = offset + HEADER_SIZE
            if payload & amask:
                continue  # misaligned candidates are skipped, not split
            chunk_size = self._free[offset]
            if chunk_size >= needed:
                self._remove_free(offset)
                remainder = chunk_size - needed
                if remainder >= MIN_CHUNK:
                    self._insert_free(offset + needed, remainder)
                    chunk_size = needed
                self._write_header(offset, chunk_size, in_use=True)
                self.live_allocations += 1
                return payload
        return None

    def _bump(self, count: int, size: int, align: int,
              payloads: List[int]) -> None:
        """Bump-allocate ``count`` chunks for ``size`` payload bytes at
        ``heap_top``, appending their payloads to ``payloads``.

        Each payload is aligned by padding in front of its chunk, and
        every non-empty pad becomes a free chunk, so a chunk's header
        always sits right before its payload.  A pad's own payload is
        ``align``-aligned only when the pad is empty, so no pad can serve
        a later allocation of the run.  A pad starts at ``heap_top``,
        where no free chunk ends, and ends past it, where none starts,
        so it never coalesces.  The limit is checked before the pad is
        filed: a failed allocation changes nothing.
        """
        needed = HEADER_SIZE + _align_up(size, 8)
        amask = align - 1
        top = self.heap_top
        limit = self.limit
        free = self._free
        free_by_end = self._free_by_end
        counts = self._class_counts
        headers: List[Tuple[int, bytes]] = []
        done = len(payloads)
        try:
            for _ in range(count):
                payload = (top + HEADER_SIZE + amask) & ~amask
                start = payload - HEADER_SIZE
                end = start + needed
                if end > limit:
                    raise OutOfPoolMemoryError(
                        f"pool heap exhausted ({size} bytes requested)")
                pad = start - top
                if pad:
                    free[top] = pad
                    free_by_end[start] = top
                    counts[_align_class(top + HEADER_SIZE)] += 1
                    headers.append((top, _header_word(pad, False)))
                headers.append((start, _header_word(needed, True)))
                payloads.append(payload)
                top = end
        finally:
            self.heap_top = top
            self.live_allocations += len(payloads) - done
            self._mem.write_many(headers, persist=True)

    def free(self, payload_offset: int) -> None:
        """Free a previously allocated payload offset."""
        offset = payload_offset - HEADER_SIZE
        if not self.base <= offset < self.heap_top:
            raise InvalidOIDError(f"offset {payload_offset:#x} not in heap")
        size, in_use = self._read_header(offset)
        if not in_use or size < HEADER_SIZE:
            raise InvalidOIDError(
                f"offset {payload_offset:#x} is not a live allocation")
        self.live_allocations -= 1
        self._insert_free(offset, size)

    def allocation_size(self, payload_offset: int) -> int:
        """Return the payload capacity of a live allocation."""
        offset = payload_offset - HEADER_SIZE
        size, in_use = self._read_header(offset)
        if not in_use:
            raise InvalidOIDError(f"offset {payload_offset:#x} is free")
        return size - HEADER_SIZE

    # -- recovery -------------------------------------------------------------------

    @classmethod
    def recover(cls, memory: SparseMemory, base: int, limit: int,
                heap_top: int) -> "PoolHeap":
        """Rebuild the volatile free list by scanning persisted chunk headers."""
        heap = cls(memory, base, limit, heap_top=heap_top)
        offset = base
        pending_free: List[Tuple[int, int]] = []
        while offset < heap_top:
            size, in_use = heap._read_header(offset)
            if size < HEADER_SIZE or offset + size > heap_top:
                raise InvalidOIDError(
                    f"corrupt chunk header at offset {offset:#x}")
            if in_use:
                heap.live_allocations += 1
            else:
                pending_free.append((offset, size))
            offset += size
        for start, size in pending_free:
            heap._insert_free(start, size)
        return heap

    # -- introspection ----------------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        """Free bytes: free-list chunks plus the untouched tail of the region."""
        return sum(self._free.values()) + (self.limit - self.heap_top)

    def free_chunks(self) -> List[Tuple[int, int]]:
        """Return the free list as sorted ``(offset, size)`` pairs."""
        return sorted(self._free.items())
