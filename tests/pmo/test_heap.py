"""Tests for the in-pool persistent heap allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidOIDError, OutOfPoolMemoryError
from repro.pmo import SparseMemory
from repro.pmo.heap import HEADER_SIZE, PoolHeap

from ..oracle import ScanningPoolHeap

BASE = 4096
LIMIT = 1 << 20


def make_heap(limit=LIMIT):
    return PoolHeap(SparseMemory(limit), BASE, limit)


class TestAllocate:
    def test_first_allocation_starts_after_header(self):
        heap = make_heap()
        assert heap.allocate(64) == BASE + HEADER_SIZE

    def test_allocations_do_not_overlap(self):
        heap = make_heap()
        spans = []
        for size in [64, 128, 8, 256, 24]:
            off = heap.allocate(size)
            spans.append((off, off + size))
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_alignment_honored(self):
        heap = make_heap()
        off = heap.allocate(4096, align=4096)
        assert off % 4096 == 0

    def test_default_alignment_is_8(self):
        heap = make_heap()
        for size in [1, 3, 7, 9]:
            assert heap.allocate(size) % 8 == 0

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            make_heap().allocate(0)

    def test_non_power_of_two_alignment_rejected(self):
        with pytest.raises(ValueError):
            make_heap().allocate(8, align=12)

    def test_exhaustion_raises(self):
        heap = make_heap(limit=BASE + 1024)
        with pytest.raises(OutOfPoolMemoryError):
            for _ in range(100):
                heap.allocate(64)

    def test_live_allocation_counter(self):
        heap = make_heap()
        a = heap.allocate(64)
        heap.allocate(64)
        assert heap.live_allocations == 2
        heap.free(a)
        assert heap.live_allocations == 1


class TestFree:
    def test_free_then_reuse(self):
        heap = make_heap()
        a = heap.allocate(64)
        heap.free(a)
        b = heap.allocate(64)
        assert b == a  # first-fit reuses the freed chunk

    def test_double_free_detected(self):
        heap = make_heap()
        a = heap.allocate(64)
        heap.free(a)
        with pytest.raises(InvalidOIDError):
            heap.free(a)

    def test_free_of_bogus_offset_detected(self):
        heap = make_heap()
        heap.allocate(64)
        with pytest.raises(InvalidOIDError):
            heap.free(BASE + HEADER_SIZE + 8)

    def test_free_outside_heap_detected(self):
        heap = make_heap()
        with pytest.raises(InvalidOIDError):
            heap.free(10)

    def test_adjacent_frees_coalesce(self):
        heap = make_heap()
        a = heap.allocate(64)
        b = heap.allocate(64)
        c = heap.allocate(64)
        heap.allocate(64)  # guard so the tail does not shrink heap_top
        heap.free(a)
        heap.free(c)
        heap.free(b)
        # One coalesced chunk big enough for all three allocations.
        big = heap.allocate(64 * 3 + 2 * HEADER_SIZE)
        assert big == a

    def test_free_at_heap_top_shrinks_heap(self):
        heap = make_heap()
        heap.allocate(64)
        b = heap.allocate(64)
        top_before = heap.heap_top
        heap.free(b)
        assert heap.heap_top < top_before
        assert heap.free_chunks() == []


class TestIntrospection:
    def test_allocation_size_reports_capacity(self):
        heap = make_heap()
        off = heap.allocate(50)
        assert heap.allocation_size(off) >= 50

    def test_allocation_size_of_free_chunk_rejected(self):
        heap = make_heap()
        off = heap.allocate(64)
        heap.allocate(8)
        heap.free(off)
        with pytest.raises(InvalidOIDError):
            heap.allocation_size(off)

    def test_free_bytes_decreases_with_allocation(self):
        heap = make_heap()
        before = heap.free_bytes
        heap.allocate(128)
        assert heap.free_bytes <= before - 128


class TestRecovery:
    def test_recover_rebuilds_live_set(self):
        mem = SparseMemory(LIMIT)
        heap = PoolHeap(mem, BASE, LIMIT)
        kept = [heap.allocate(64) for _ in range(5)]
        freed = heap.allocate(64)
        heap.allocate(64)
        heap.free(freed)

        recovered = PoolHeap.recover(mem, BASE, LIMIT, heap.heap_top)
        assert recovered.live_allocations == heap.live_allocations
        # Freed chunk is allocatable again; live ones keep their sizes.
        assert recovered.allocate(64) == freed
        for off in kept:
            assert recovered.allocation_size(off) >= 64

    def test_recover_detects_corruption(self):
        mem = SparseMemory(LIMIT)
        heap = PoolHeap(mem, BASE, LIMIT)
        heap.allocate(64)
        mem.write_u64(BASE, 0)  # smash the first chunk header
        with pytest.raises(InvalidOIDError):
            PoolHeap.recover(mem, BASE, LIMIT, heap.heap_top)


class TestShortPads:
    """A bump pad shorter than ``MIN_CHUNK`` is filed as a free chunk
    like any other, so the chunk header sits right before its payload."""

    def test_free_of_a_short_padded_chunk(self):
        heap = make_heap()
        payload = heap.allocate(1, align=16)
        assert payload == BASE + 16
        assert heap.free_chunks() == [(BASE, 8)]
        heap.free(payload)
        assert heap.free_chunks() == []
        assert heap.heap_top == BASE
        assert heap.live_allocations == 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 300),
                  st.sampled_from([8, 16, 32, 64, 128])),
        st.tuples(st.just("free"), st.integers(0, 40), st.just(0)),
    ), min_size=1, max_size=80))
    def test_recover_rebuilds_the_free_list(self, ops):
        mem = SparseMemory(LIMIT)
        heap = PoolHeap(mem, BASE, LIMIT)
        live = []
        for kind, arg, align in ops:
            if kind == "alloc":
                live.append(heap.allocate(arg, align=align))
            elif live:
                heap.free(live.pop(arg % len(live)))
        recovered = PoolHeap.recover(mem, BASE, LIMIT, heap.heap_top)
        assert recovered.free_chunks() == heap.free_chunks()
        assert recovered._class_counts == heap._class_counts
        assert recovered.heap_top == heap.heap_top
        assert recovered.live_allocations == heap.live_allocations


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 512)),
        st.tuples(st.just("free"), st.integers(0, 30)),
    ), min_size=1, max_size=80))
    def test_no_overlap_invariant(self, ops):
        """Live allocations never overlap, whatever the alloc/free order."""
        heap = make_heap()
        live = {}  # offset -> size
        for kind, arg in ops:
            if kind == "alloc":
                off = heap.allocate(arg)
                live[off] = arg
            elif live:
                victim = sorted(live)[arg % len(live)]
                heap.free(victim)
                del live[victim]
        spans = sorted((off, off + size) for off, size in live.items())
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start
        assert heap.live_allocations == len(live)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 256), min_size=1, max_size=40),
           st.data())
    def test_recovery_equivalence(self, sizes, data):
        """A recovered heap sees exactly the same live chunks."""
        mem = SparseMemory(LIMIT)
        heap = PoolHeap(mem, BASE, LIMIT)
        live = [heap.allocate(s) for s in sizes]
        n_free = data.draw(st.integers(0, len(live)))
        for _ in range(n_free):
            idx = data.draw(st.integers(0, len(live) - 1))
            heap.free(live.pop(idx))
        recovered = PoolHeap.recover(mem, BASE, LIMIT, heap.heap_top)
        assert recovered.live_allocations == len(live)
        for off in live:
            assert recovered.allocation_size(off) > 0


def _outcome(call):
    """A call's result, or its error's type and message."""
    try:
        return call()
    except (OutOfPoolMemoryError, InvalidOIDError) as exc:
        return type(exc), str(exc)


class TestCountedFirstFit:
    def test_pads_of_aligned_bumps_cannot_serve_the_alignment(self):
        # Every bump at align 512 leaves a pad whose payload is only
        # 8-aligned; the counts tell allocate no chunk can serve 512.
        heap = make_heap()
        for _ in range(64):
            heap.allocate(64, align=512)
        assert len(heap.free_chunks()) == 64
        assert not any(heap._class_counts[9:])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 600),
                  st.sampled_from([8 << k for k in range(10)])),
        st.tuples(st.just("free"), st.integers(0, 60), st.just(0)),
    ), min_size=1, max_size=120))
    def test_matches_the_scanning_heap(self, ops):
        """Same offsets, free list, heap top, counts and errors as the
        first fit that scans every chunk."""
        limit = BASE + (64 << 10)  # small enough to exhaust
        heap = PoolHeap(SparseMemory(limit), BASE, limit)
        oracle = ScanningPoolHeap(SparseMemory(limit), BASE, limit)
        live = []
        for kind, arg, align in ops:
            if kind == "alloc":
                got = _outcome(lambda: heap.allocate(arg, align=align))
                want = _outcome(lambda: oracle.allocate(arg, align=align))
                if isinstance(got, int):
                    live.append(got)
            else:
                # Mostly live offsets, sometimes a stale one (double free).
                target = (live.pop(arg % len(live)) if live and arg < 50
                          else BASE + HEADER_SIZE + 8 * arg)
                got = _outcome(lambda: heap.free(target))
                want = _outcome(lambda: oracle.free(target))
            assert got == want
            assert heap.free_chunks() == oracle.free_chunks()
            assert heap.heap_top == oracle.heap_top
            assert heap.live_allocations == oracle.live_allocations


class TestFailedAllocation:
    def test_failed_padded_bump_files_no_pad(self):
        # The bump at align 512 needs a 440-byte pad at heap_top, then
        # overruns the limit.  Filing that pad before the limit check
        # left a free chunk at heap_top: the next first fit and the next
        # bump both handed out 4680.
        heap = PoolHeap(SparseMemory(1 << 16), 4096, 6144)
        heap.allocate(496)
        heap.allocate(64)
        before = (heap.free_chunks(), heap.heap_top,
                  list(heap._class_counts), heap.free_bytes)
        assert before[3] == 1472
        with pytest.raises(OutOfPoolMemoryError):
            heap.allocate(1200, align=512)
        assert (heap.free_chunks(), heap.heap_top,
                list(heap._class_counts), heap.free_bytes) == before
        assert heap.allocate(432) == 4680
        assert heap.allocate(64) == 5120

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 600), st.sampled_from([8 << k for k in range(11)]),
           st.integers(0, 12))
    def test_a_failed_allocation_changes_nothing(self, size, align, fill):
        limit = BASE + 4096
        heap = PoolHeap(SparseMemory(limit), BASE, limit)
        for _ in range(fill):
            try:
                heap.allocate(200)
            except OutOfPoolMemoryError:
                break
        before = (heap.free_chunks(), heap.heap_top,
                  list(heap._class_counts), heap.free_bytes,
                  heap.live_allocations)
        try:
            heap.allocate(size, align=align)
        except OutOfPoolMemoryError:
            assert (heap.free_chunks(), heap.heap_top,
                    list(heap._class_counts), heap.free_bytes,
                    heap.live_allocations) == before


def heap_state(heap):
    """Everything an allocation can change, storage bytes included."""
    memory = heap._mem
    return (heap.free_chunks(), sorted(heap._free_by_end.items()),
            list(heap._class_counts), heap.heap_top, heap.live_allocations,
            list(memory.touched_page_indexes()),
            memory.read(0, memory.size), memory.read_durable(0, memory.size),
            sorted(memory._pending.items()))


@st.composite
def runs(draw):
    """A small heap's history (allocations and frees, so first-fit
    chunks exist) and one run that may exhaust it midway."""
    history = draw(st.lists(st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 700),
                  st.sampled_from([8 << k for k in range(11)])),
        st.tuples(st.just("free"), st.integers(0, 40), st.just(0)),
    ), max_size=30))
    return {"history": history,
            "count": draw(st.integers(0, 40)),
            "size": draw(st.integers(1, 600)),
            "align": draw(st.sampled_from([8 << k for k in range(11)])),
            "limit": BASE + draw(st.integers(1, 24)) * 1024,
            "track": draw(st.booleans())}


def _replay_history(heap, history):
    live = []
    for kind, arg, align in history:
        if kind == "alloc":
            try:
                live.append(heap.allocate(arg, align=align))
            except OutOfPoolMemoryError:
                pass
        elif live:
            heap.free(live.pop(arg % len(live)))


class TestAllocateRun:
    @settings(max_examples=150, deadline=None)
    @given(runs())
    def test_equals_an_allocate_loop(self, case):
        """Same payloads, free list, class counts, heap top, live count,
        storage pages and pending bytes, and the same error, as
        ``count`` calls of ``allocate``."""
        twins = [PoolHeap(SparseMemory(case["limit"],
                                       track_persistence=case["track"]),
                          BASE, case["limit"]) for _ in range(2)]
        for heap in twins:
            _replay_history(heap, case["history"])
        run, loop = twins
        args = (case["size"],)
        kwargs = {"align": case["align"]}
        got = _outcome(lambda: run.allocate_run(case["count"], *args,
                                                **kwargs))
        payloads = []

        def calls():
            for _ in range(case["count"]):
                payloads.append(loop.allocate(*args, **kwargs))
            return payloads

        want = _outcome(calls)
        assert got == want
        assert heap_state(run) == heap_state(loop)

    def test_pads_of_a_run_are_filed_like_single_bumps(self):
        heap = make_heap()
        payloads = heap.allocate_run(64, 64, align=512)
        assert payloads == [BASE + 512 * (k + 1) for k in range(64)]
        assert len(heap.free_chunks()) == 64
        assert heap.live_allocations == 64

    def test_empty_run_allocates_nothing(self):
        heap = make_heap()
        assert heap.allocate_run(0, 64) == []
        assert heap.heap_top == BASE
