"""Sparse byte-addressable NVM backing store.

A pool in the paper can be gigabytes large while only a small fraction of
it is ever touched, so the backing store here is page-granular and sparse:
a 4KB page of real memory is materialized the first time it is written.

The store can optionally model the volatile cache hierarchy sitting in
front of NVM: with ``track_persistence=True`` every write lands in a
*pending* shadow layer first and reaches durable media only when
:meth:`persist` (the analogue of ``clwb``+``sfence``) covers it.  A
simulated power failure (:meth:`crash`) discards the pending layer, which
is exactly the failure model the durable-transaction layer (``repro.pmo.tx``)
must survive.  Persistence tracking is off by default because the timing
simulations do not need it.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Iterable, Iterator, Tuple

PAGE_SIZE = 4096
_PAGE_SHIFT = 12

#: A little-endian u64, the word every on-media pointer and header is.
U64 = struct.Struct("<Q")
#: ``pack_into`` of an ``n``-byte string, by ``n`` (at most a page): it
#: copies bytes into a page without the temporary bytearray that slice
#: assignment builds.
_BLITS: Dict[int, Callable[[bytearray, int, bytes], None]] = {}


class SparseMemory:
    """Page-granular sparse memory with optional persistence tracking."""

    def __init__(self, size: int, *, track_persistence: bool = False):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self.track_persistence = track_persistence
        self._pages: Dict[int, bytearray] = {}
        # Pending (not yet persisted) writes: addr -> bytes, only when tracking.
        self._pending: Dict[int, int] = {}

    # -- page bookkeeping ----------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """Number of pages actually materialized."""
        return len(self._pages)

    def touched_page_indexes(self) -> Iterator[int]:
        """Iterate over the indexes of materialized pages."""
        return iter(sorted(self._pages))

    def _check_range(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise IndexError(
                f"access [{addr:#x}, {addr + length:#x}) outside store of size "
                f"{self.size:#x}")

    # -- raw byte access -------------------------------------------------------

    def read(self, addr: int, length: int) -> bytes:
        """Read ``length`` bytes at ``addr`` (pending writes are visible)."""
        durable = self.read_durable(addr, length)
        if not self.track_persistence:
            return durable
        out = bytearray(durable)
        for i in range(length):
            pending = self._pending.get(addr + i)
            if pending is not None:
                out[i] = pending
        return bytes(out)

    def read_durable(self, addr: int, length: int) -> bytes:
        """Read only the durable bytes (pending writes excluded).

        This is what a snapshot or a post-crash reader sees.
        """
        self._check_range(addr, length)
        out = bytearray(length)
        pos = 0
        while pos < length:
            cur = addr + pos
            page_index = cur >> _PAGE_SHIFT
            page_off = cur & (PAGE_SIZE - 1)
            chunk = min(length - pos, PAGE_SIZE - page_off)
            page = self._pages.get(page_index)
            if page is not None:
                out[pos:pos + chunk] = page[page_off:page_off + chunk]
            pos += chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr``.

        With persistence tracking on, the bytes stay in the volatile pending
        layer until :meth:`persist` covers them.
        """
        self._check_range(addr, len(data))
        if self.track_persistence:
            for i, byte in enumerate(data):
                self._pending[addr + i] = byte
            return
        self._write_durable(addr, data)

    def write_many(self, stores: Iterable[Tuple[int, bytes]], *,
                   persist: bool = False) -> None:
        """:meth:`write` each ``(addr, data)`` of ``stores``, in order,
        each followed by a :meth:`persist` of its bytes with ``persist``.

        One call for a whole run of stores (an allocator run's chunk
        headers, a structure's node images) instead of one per store.
        """
        if self.track_persistence:
            for addr, data in stores:
                self.write(addr, data)
                if persist:
                    self.persist(addr, len(data))
            return
        size = self.size
        for addr, data in stores:
            if addr < 0 or addr + len(data) > size:
                self._check_range(addr, len(data))
            self._write_durable(addr, data)

    def _write_durable(self, addr: int, data: bytes) -> None:
        """Copy ``data`` into the backing pages at ``addr``."""
        length = len(data)
        if not length:
            return
        page_off = addr & (PAGE_SIZE - 1)
        if page_off + length > PAGE_SIZE:
            # Split at the page boundaries: every piece is in one page.
            head = PAGE_SIZE - page_off
            self._write_durable(addr, data[:head])
            for pos in range(head, length, PAGE_SIZE):
                self._write_durable(addr + pos, data[pos:pos + PAGE_SIZE])
            return
        index = addr >> _PAGE_SHIFT
        page = self._pages.get(index)
        if page is None:
            page = self._pages[index] = bytearray(PAGE_SIZE)
        blit = _BLITS.get(length)
        if blit is None:
            blit = _BLITS[length] = struct.Struct(f"{length}s").pack_into
        blit(page, page_off, data)

    # -- persistence model ------------------------------------------------------

    def persist(self, addr: int, length: int) -> None:
        """Flush pending writes in ``[addr, addr+length)`` to durable media.

        Equivalent to a ``clwb`` over the range followed by an ``sfence``.
        A no-op when persistence tracking is off (writes are already durable).
        """
        if not self.track_persistence:
            return
        self._check_range(addr, length)
        for cur in range(addr, addr + length):
            byte = self._pending.pop(cur, None)
            if byte is not None:
                self._write_durable(cur, bytes([byte]))

    def persist_all(self) -> None:
        """Flush every pending write (a full cache flush + fence)."""
        if not self._pending:
            return
        items = sorted(self._pending.items())
        self._pending.clear()
        for addr, byte in items:
            self._write_durable(addr, bytes([byte]))

    def crash(self) -> None:
        """Simulate a power failure: all non-persisted writes are lost."""
        self._pending.clear()

    @property
    def pending_bytes(self) -> int:
        """Number of written-but-not-persisted bytes (0 when not tracking)."""
        return len(self._pending)

    # -- typed helpers ------------------------------------------------------------

    def read_u64(self, addr: int) -> int:
        # Fast path: an in-page word with no persistence layer reads
        # straight out of the backing page (a missing page is zeros,
        # exactly what the general path assembles).
        if not self.track_persistence and 0 <= addr and addr + 8 <= self.size:
            off = addr & (PAGE_SIZE - 1)
            if off <= PAGE_SIZE - 8:
                page = self._pages.get(addr >> _PAGE_SHIFT)
                if page is None:
                    return 0
                return U64.unpack_from(page, off)[0]
        return U64.unpack(self.read(addr, 8))[0]

    def write_u64(self, addr: int, value: int) -> None:
        # Fast path mirroring read_u64: in-page word, no pending layer.
        if not self.track_persistence and 0 <= addr and addr + 8 <= self.size:
            off = addr & (PAGE_SIZE - 1)
            if off <= PAGE_SIZE - 8:
                index = addr >> _PAGE_SHIFT
                page = self._pages.get(index)
                if page is None:
                    page = bytearray(PAGE_SIZE)
                    self._pages[index] = page
                U64.pack_into(page, off, value & 0xFFFF_FFFF_FFFF_FFFF)
                return
        self.write(addr, U64.pack(value & 0xFFFF_FFFF_FFFF_FFFF))
