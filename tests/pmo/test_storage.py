"""Tests for the sparse NVM backing store and its persistence model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmo import PAGE_SIZE, SparseMemory


class TestSparseness:
    def test_new_store_has_no_resident_pages(self):
        mem = SparseMemory(1 << 30)
        assert mem.resident_pages == 0

    def test_read_of_untouched_memory_is_zero(self):
        mem = SparseMemory(1 << 20)
        assert mem.read(12345, 16) == b"\x00" * 16

    def test_write_materializes_only_touched_pages(self):
        mem = SparseMemory(1 << 30)
        mem.write(5 * PAGE_SIZE + 100, b"hello")
        assert mem.resident_pages == 1
        assert list(mem.touched_page_indexes()) == [5]

    def test_cross_page_write_materializes_both(self):
        mem = SparseMemory(1 << 20)
        mem.write(PAGE_SIZE - 2, b"abcd")
        assert mem.resident_pages == 2
        assert mem.read(PAGE_SIZE - 2, 4) == b"abcd"


class TestBounds:
    def test_read_past_end_rejected(self):
        mem = SparseMemory(100)
        with pytest.raises(IndexError):
            mem.read(96, 8)

    def test_write_past_end_rejected(self):
        mem = SparseMemory(100)
        with pytest.raises(IndexError):
            mem.write(99, b"xy")

    def test_negative_addr_rejected(self):
        mem = SparseMemory(100)
        with pytest.raises(IndexError):
            mem.read(-1, 1)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            SparseMemory(0)


class TestTypedAccess:
    @pytest.mark.parametrize("width,writer,reader,value", [
        (8, "write_u64", "read_u64", 0x0123456789ABCDEF),
    ])
    def test_roundtrip(self, width, writer, reader, value):
        mem = SparseMemory(4096)
        getattr(mem, writer)(64, value)
        assert getattr(mem, reader)(64) == value

    def test_little_endian_layout(self):
        mem = SparseMemory(64)
        mem.write_u64(0, 0x1122334455667788)
        assert mem.read(0, 8) == bytes(
            [0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11])

    def test_values_truncate_to_width(self):
        mem = SparseMemory(64)
        mem.write_u64(0, 1 << 64 | 0xFF)
        assert mem.read_u64(0) == 0xFF


class TestPersistenceModel:
    def test_pending_write_visible_to_reads(self):
        mem = SparseMemory(4096, track_persistence=True)
        mem.write(0, b"volatile")
        assert mem.read(0, 8) == b"volatile"

    def test_crash_discards_unpersisted_writes(self):
        mem = SparseMemory(4096, track_persistence=True)
        mem.write(0, b"volatile")
        mem.crash()
        assert mem.read(0, 8) == b"\x00" * 8

    def test_persist_survives_crash(self):
        mem = SparseMemory(4096, track_persistence=True)
        mem.write(0, b"durable!")
        mem.persist(0, 8)
        mem.crash()
        assert mem.read(0, 8) == b"durable!"

    def test_partial_persist(self):
        mem = SparseMemory(4096, track_persistence=True)
        mem.write(0, b"ABCD")
        mem.persist(0, 2)
        mem.crash()
        assert mem.read(0, 4) == b"AB\x00\x00"

    def test_persist_all(self):
        mem = SparseMemory(4096, track_persistence=True)
        mem.write(10, b"x")
        mem.write(2000, b"y")
        mem.persist_all()
        mem.crash()
        assert mem.read(10, 1) == b"x"
        assert mem.read(2000, 1) == b"y"

    def test_pending_bytes_counter(self):
        mem = SparseMemory(4096, track_persistence=True)
        assert mem.pending_bytes == 0
        mem.write(0, b"abc")
        assert mem.pending_bytes == 3
        mem.persist(0, 3)
        assert mem.pending_bytes == 0

    def test_overwrite_pending_then_persist_takes_latest(self):
        mem = SparseMemory(4096, track_persistence=True)
        mem.write(0, b"old")
        mem.write(0, b"new")
        mem.persist(0, 3)
        mem.crash()
        assert mem.read(0, 3) == b"new"

    def test_untracked_store_writes_are_immediately_durable(self):
        mem = SparseMemory(4096)
        mem.write(0, b"data")
        mem.crash()  # no-op without tracking
        assert mem.read(0, 4) == b"data"


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 8000), st.integers(0, 2 * PAGE_SIZE),
                  st.integers(0, 254)),
        min_size=1, max_size=30))
    def test_reads_reflect_last_write(self, writes):
        """SparseMemory must behave exactly like a flat bytearray, and
        materialize exactly the pages that non-empty writes cover."""
        mem = SparseMemory(1 << 14)
        model = bytearray(1 << 14)
        covered = set()
        for addr, length, start in writes:
            # No zero bytes, so a piece that is never copied shows.
            data = bytes((start + i) % 255 + 1 for i in range(length))
            mem.write(addr, data)
            model[addr:addr + len(data)] = data
            if data:
                covered.update(range(addr // PAGE_SIZE,
                                     (addr + len(data) - 1) // PAGE_SIZE + 1))
        assert mem.read(0, 1 << 14) == bytes(model)
        assert list(mem.touched_page_indexes()) == sorted(covered)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 1000), st.binary(min_size=1, max_size=16),
                  st.booleans()),
        min_size=1, max_size=20))
    def test_crash_recovers_exactly_persisted_state(self, ops):
        """After a crash, contents equal the model of persisted writes only."""
        mem = SparseMemory(2048, track_persistence=True)
        durable = bytearray(2048)
        for addr, data, do_persist in ops:
            mem.write(addr, data)
            if do_persist:
                # persist() makes the *current* contents of the range
                # durable (it may cover bytes from earlier writes too).
                durable[addr:addr + len(data)] = mem.read(addr, len(data))
                mem.persist(addr, len(data))
        mem.crash()
        assert mem.read(0, 2048) == bytes(durable)


class TestWriteMany:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(-8, 3 * PAGE_SIZE),
                              st.binary(max_size=2 * PAGE_SIZE)),
                    max_size=20),
           st.booleans(), st.booleans(),
           st.lists(st.tuples(st.integers(0, 3 * PAGE_SIZE - 64),
                              st.binary(min_size=1, max_size=64)),
                    max_size=6))
    def test_equals_a_write_loop(self, stores, persist, track, earlier):
        """Same durable and pending bytes, resident pages and range
        error as ``write`` (then ``persist``, with ``persist``) per
        store, in order, over pending bytes left by earlier writes."""
        size = 3 * PAGE_SIZE
        twins = [SparseMemory(size, track_persistence=track)
                 for _ in range(2)]
        for mem in twins:
            for addr, data in earlier:
                mem.write(addr, data)
        bulk, loop = twins

        def outcome(call):
            try:
                call()
            except IndexError as exc:
                return str(exc)
            return None

        def calls():
            for addr, data in stores:
                loop.write(addr, data)
                if persist:
                    loop.persist(addr, len(data))

        assert outcome(lambda: bulk.write_many(stores, persist=persist)) \
            == outcome(calls)
        bulk_state, loop_state = [
            (mem.read(0, size), mem.read_durable(0, size),
             sorted(mem._pending.items()), list(mem.touched_page_indexes()))
            for mem in twins]
        assert bulk_state == loop_state
