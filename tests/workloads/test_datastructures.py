"""Property-based correctness tests for the persistent data structures.

Each structure is exercised against a plain-Python model with randomized
insert/delete/lookup mixes; tree invariants are checked at the end of
every run.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmo.storage import PAGE_SIZE
from repro.workloads.base import PerOpPolicy, UnprotectedPolicy, Workspace
from repro.workloads.datastructures import (PersistentAVL,
                                            PersistentBPlusTree,
                                            PersistentCritbitTree,
                                            PersistentHashMap,
                                            PersistentLinkedList,
                                            PersistentRBTree,
                                            PersistentStringArray)
from repro.workloads.datastructures.stringswap import STRING_SIZE
from repro.workloads.micro import (MicroParams, ZipfSampler,
                                   _StringSwapSuite, _StructuredSuite)

KEYED_STRUCTS = [PersistentAVL, PersistentRBTree, PersistentBPlusTree,
                 PersistentCritbitTree]

ops_strategy = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "lookup"]),
              st.integers(0, 120)),
    min_size=1, max_size=120)


def make_workspace(pools=3, seed=3):
    ws = Workspace(UnprotectedPolicy(), seed=seed)
    handles = [ws.create_and_attach(f"p{i}", 8 << 20) for i in range(pools)]
    return ws, handles


class TestKeyedStructuresAgainstModel:
    @pytest.mark.parametrize("cls", KEYED_STRUCTS)
    @settings(max_examples=15, deadline=None)
    @given(ops=ops_strategy)
    def test_matches_dict_model(self, cls, ops):
        ws, handles = make_workspace()
        struct = cls(ws, handles, spill=0.3)
        model = {}
        for op, key in ops:
            key += 1  # keys are nonzero
            if op == "insert":
                struct.insert(key, key * 3)
                model[key] = key * 3
            elif op == "delete":
                assert struct.delete(key) == (key in model)
                model.pop(key, None)
            else:
                assert struct.lookup(key) == model.get(key)
        assert struct.keys() == sorted(model)
        assert len(struct) == len(model)
        if hasattr(struct, "check_invariants"):
            struct.check_invariants()

    @pytest.mark.parametrize("cls", KEYED_STRUCTS)
    def test_insert_overwrites_value(self, cls):
        ws, handles = make_workspace()
        struct = cls(ws, handles)
        struct.insert(5, 1)
        struct.insert(5, 2)
        assert struct.lookup(5) == 2
        assert len(struct) == 1

    @pytest.mark.parametrize("cls", KEYED_STRUCTS)
    def test_delete_missing_returns_false(self, cls):
        ws, handles = make_workspace()
        struct = cls(ws, handles)
        assert not struct.delete(42)
        struct.insert(1, 1)
        assert not struct.delete(42)

    @pytest.mark.parametrize("cls", KEYED_STRUCTS)
    def test_empty_structure(self, cls):
        ws, handles = make_workspace()
        struct = cls(ws, handles)
        assert struct.keys() == []
        assert struct.lookup(9) is None
        assert len(struct) == 0


class TestAVLBalance:
    def test_sequential_inserts_stay_balanced(self):
        ws, handles = make_workspace()
        avl = PersistentAVL(ws, handles)
        for key in range(1, 200):
            avl.insert(key, key)
        height = avl.check_invariants()
        assert height <= 12  # 1.44 * log2(200) ~ 11

    def test_deletions_keep_balance(self):
        ws, handles = make_workspace()
        avl = PersistentAVL(ws, handles)
        for key in range(1, 128):
            avl.insert(key, key)
        for key in range(1, 100):
            avl.delete(key)
        avl.check_invariants()


@st.composite
def avl_populations(draw):
    """Pools, keys (sometimes from 8 values, so duplicates occur) and the
    node placement of one avl population."""
    key = st.integers(1, 8) if draw(st.booleans()) else \
        st.integers(1, 1 << 48)
    n_keys = draw(st.integers(0, 200))
    return {"pools": draw(st.integers(1, 6)),
            "keys": draw(st.lists(key, min_size=n_keys, max_size=n_keys)),
            "spill": draw(st.floats(0.0, 1.0)),
            "node_align": draw(st.sampled_from([8, 64, 512, 4096])),
            "seed": draw(st.integers(0, 2**32 - 1))}


def drawn(ws, keys):
    """``keys``, one workspace RNG draw before each, as the micro suite
    draws its keys: a consumer that read ahead would move the pool
    picks of the nodes it allocates."""
    for key in keys:
        ws.rng.random()
        yield key


def workspace_state(ws):
    """Everything an untraced fill can change outside the structure:
    every pool page, each heap's top, live count, free list and class
    counts, the page table in fault order, the fault count, the frame
    cursors and the RNG state."""
    heaps = []
    for _, handle in sorted(ws.pools.items()):
        memory, heap = handle.pool.memory, handle.pool.heap
        pages = [(index, memory.read(index * PAGE_SIZE, PAGE_SIZE))
                 for index in memory.touched_page_indexes()]
        heaps.append((pages, heap.heap_top, heap.live_allocations,
                      heap.free_chunks(), list(heap._class_counts)))
    frames = ws.kernel.physical_memory
    return (heaps, list(ws.process.page_table.entries()),
            ws.kernel.page_faults, frames._next_dram, frames._next_nvm,
            ws.rng.getstate())


def avl_state(ws, avl):
    """Everything an untraced population can change."""
    state = workspace_state(ws)
    with ws.untraced():
        return state + (avl.keys(), avl.check_invariants(), len(avl))


class TestAVLPopulate:
    """``populate`` equals ``insert(key, key)`` per key under
    ``untraced()``: pool bytes, heaps, page faults in order, frame
    cursors and RNG draws."""

    @staticmethod
    def tree(case):
        ws, handles = make_workspace(pools=case["pools"], seed=case["seed"])
        return ws, PersistentAVL(ws, handles, spill=case["spill"],
                                 node_align=case["node_align"])

    @settings(max_examples=60, deadline=None)
    @given(avl_populations())
    def test_equals_untraced_inserts(self, case):
        ws, avl = self.tree(case)
        with ws.untraced():
            avl.populate(drawn(ws, case["keys"]))
        ref_ws, ref = self.tree(case)
        with ref_ws.untraced():
            for key in drawn(ref_ws, case["keys"]):
                ref.insert(key, key)
        assert avl_state(ws, avl) == avl_state(ref_ws, ref)

    def test_refuses_while_recording(self):
        ws, handles = make_workspace()
        avl = PersistentAVL(ws, handles)
        with pytest.raises(RuntimeError):
            avl.populate([1, 2, 3])
        assert len(avl) == 0

    def test_refuses_a_non_empty_tree(self):
        ws, handles = make_workspace()
        avl = PersistentAVL(ws, handles)
        avl.insert(5, 5)
        with ws.untraced(), pytest.raises(ValueError):
            avl.populate([1, 2, 3])


@st.composite
def string_populations(draw):
    """Pools, capacity (up to past two directory pages), the strings and
    the node placement of one string-array population."""
    capacity = draw(st.one_of(st.integers(1, 100), st.integers(480, 1100)))
    count = draw(st.one_of(st.just(capacity), st.integers(0, capacity)))
    rand = random.Random(draw(st.integers(0, 2**32 - 1)))
    return {"pools": draw(st.integers(1, 6)),
            "capacity": capacity,
            "strings": [rand.randbytes(rand.randrange(STRING_SIZE + 1))
                        for _ in range(count)],
            "spill": draw(st.floats(0.0, 1.0)),
            "node_align": draw(st.sampled_from([8, 64, 512, 4096])),
            "seed": draw(st.integers(0, 2**32 - 1))}


def array_state(ws, array):
    """Everything an untraced string-array population can change."""
    state = workspace_state(ws)
    with ws.untraced():
        return state + (array.size, array.ps.read_count(),
                        [array.get(i) for i in range(array.size)])


class TestStringArrayPopulate:
    """``populate`` equals ``append`` per string under ``untraced()``:
    pool bytes, heaps, page faults in order (a directory past the
    anchor's page faults between strings), frame cursors and RNG
    draws."""

    @staticmethod
    def array(case):
        ws, handles = make_workspace(pools=case["pools"], seed=case["seed"])
        return ws, PersistentStringArray(ws, handles, case["capacity"],
                                         spill=case["spill"],
                                         node_align=case["node_align"])

    @settings(max_examples=40, deadline=None)
    @given(string_populations())
    def test_equals_untraced_appends(self, case):
        ws, array = self.array(case)
        with ws.untraced():
            array.populate(drawn(ws, case["strings"]))
        ref_ws, ref = self.array(case)
        with ref_ws.untraced():
            for data in drawn(ref_ws, case["strings"]):
                ref.append(data)
        assert array_state(ws, array) == array_state(ref_ws, ref)

    def test_refuses_while_recording(self):
        ws, handles = make_workspace()
        array = PersistentStringArray(ws, handles, capacity=4)
        with pytest.raises(RuntimeError):
            array.populate([b"a"])
        assert array.size == 0

    def test_refuses_a_non_empty_array(self):
        ws, handles = make_workspace()
        array = PersistentStringArray(ws, handles, capacity=4)
        array.append(b"a")
        with ws.untraced(), pytest.raises(ValueError):
            array.populate([b"b"])

    def test_refuses_more_strings_than_capacity(self):
        # append checks for a full array before it checks the length.
        ws, handles = make_workspace()
        array = PersistentStringArray(ws, handles, capacity=2)
        with ws.untraced(), pytest.raises(IndexError):
            array.populate([b"a", b"b", b"z" * (STRING_SIZE + 1)])

    def test_refuses_an_oversized_string(self):
        ws, handles = make_workspace()
        array = PersistentStringArray(ws, handles, capacity=2)
        with ws.untraced(), pytest.raises(ValueError):
            array.populate([b"a", b"z" * (STRING_SIZE + 1)])


def suite_workspace(params):
    """The workspace and pools ``generate_micro_trace`` builds."""
    ws = Workspace(PerOpPolicy(), seed=params.seed)
    pools = [ws.create_and_attach(f"{params.benchmark}-pmo-{i:04d}",
                                  params.pool_size)
             for i in range(params.n_pools)]
    return ws, pools


def per_call_suite(ws, pools, params):
    """A micro suite's construction with one ``insert`` per key (avl)
    or one ``append`` per string (ss), as the suites filled before
    their fills ran in runs."""
    rng = ws.rng
    ZipfSampler(len(pools), params.zipf, rng)
    for i, home in enumerate(pools):
        ordered = [home] + pools[:i] + pools[i + 1:]
        if params.benchmark == "ss":
            array = PersistentStringArray(ws, ordered,
                                          capacity=params.ss_strings,
                                          spill=params.spill,
                                          node_align=params.node_align)
            with ws.untraced():
                for _ in range(params.ss_strings):
                    array.append(rng.getrandbits(256).to_bytes(32, "little"))
        else:
            tree = PersistentAVL(ws, ordered, spill=params.spill,
                                 node_align=params.node_align)
            with ws.untraced():
                for _ in range(params.initial_nodes):
                    key = rng.getrandbits(48) + 1
                    tree.insert(key, key)


class TestSuiteFill:
    @pytest.mark.parametrize("bench", ["avl", "ss"])
    def test_equals_the_per_call_fill_at_256_pools(self, bench):
        """A suite built at 256 pools (otherwise default parameters)
        leaves its workspace as the per-call fill leaves a twin."""
        params = MicroParams(benchmark=bench, n_pools=256)
        ws, pools = suite_workspace(params)
        suite = _StringSwapSuite if bench == "ss" else _StructuredSuite
        suite(ws, pools, params)
        ref_ws, ref_pools = suite_workspace(params)
        per_call_suite(ref_ws, ref_pools, params)
        assert workspace_state(ws) == workspace_state(ref_ws)


class TestRBTreeProperties:
    def test_sequential_inserts_keep_rb_invariants(self):
        ws, handles = make_workspace()
        rbt = PersistentRBTree(ws, handles)
        for key in range(1, 200):
            rbt.insert(key, key)
        rbt.check_invariants()

    def test_interleaved_delete_keeps_invariants(self):
        ws, handles = make_workspace()
        rbt = PersistentRBTree(ws, handles)
        for key in range(1, 100):
            rbt.insert(key, key)
        for key in range(1, 100, 3):
            rbt.delete(key)
        rbt.check_invariants()


class TestBPlusTree:
    def test_node_split_chain(self):
        """Enough inserts to split leaves and grow internal levels."""
        ws, handles = make_workspace()
        bt = PersistentBPlusTree(ws, handles)
        n = 130 * 130 // 8  # a few thousand keys: at least two levels
        for key in range(1, n):
            bt.insert(key, key)
        assert bt.check_invariants() >= 2
        assert bt.keys() == list(range(1, n))

    def test_reverse_order_inserts(self):
        ws, handles = make_workspace()
        bt = PersistentBPlusTree(ws, handles)
        for key in range(300, 0, -1):
            bt.insert(key, key)
        assert bt.keys() == list(range(1, 301))
        bt.check_invariants()

    def test_nodes_are_page_aligned(self):
        ws, handles = make_workspace()
        bt = PersistentBPlusTree(ws, handles)
        bt.insert(1, 1)
        root = bt.ps.read_entry()
        assert root.offset % 4096 == 0


class TestLinkedList:
    def test_positional_semantics(self):
        ws, handles = make_workspace()
        ll = PersistentLinkedList(ws, handles)
        ll.insert_at(0, 10, 10)
        ll.insert_at(0, 20, 20)
        ll.insert_at(1, 30, 30)
        assert ll.keys() == [20, 30, 10]
        assert ll.delete_at(1) == 30
        assert ll.keys() == [20, 10]

    def test_insert_at_clamps_to_tail(self):
        ws, handles = make_workspace()
        ll = PersistentLinkedList(ws, handles)
        ll.insert_at(99, 1, 1)
        ll.insert_at(99, 2, 2)
        assert ll.keys() == [1, 2]

    def test_delete_at_empty_returns_none(self):
        ws, handles = make_workspace()
        ll = PersistentLinkedList(ws, handles)
        assert ll.delete_at(0) is None


class TestStringArray:
    def test_append_get_set(self):
        ws, handles = make_workspace()
        sa = PersistentStringArray(ws, handles, capacity=8)
        index = sa.append(b"hello")
        assert sa.get(index).rstrip(b"\x00") == b"hello"
        sa.set(index, b"world")
        assert sa.get(index).rstrip(b"\x00") == b"world"

    def test_swap(self):
        ws, handles = make_workspace()
        sa = PersistentStringArray(ws, handles, capacity=4)
        sa.append(b"a" * 64)
        sa.append(b"b" * 64)
        sa.swap(0, 1)
        assert sa.get(0) == b"b" * 64
        assert sa.get(1) == b"a" * 64

    def test_swap_between_arrays(self):
        ws, handles = make_workspace()
        a = PersistentStringArray(ws, handles[:1], capacity=2)
        b = PersistentStringArray(ws, handles[1:2], capacity=2)
        a.append(b"from-a")
        b.append(b"from-b")
        PersistentStringArray.swap_between(a, 0, b, 0)
        assert a.get(0).rstrip(b"\x00") == b"from-b"
        assert b.get(0).rstrip(b"\x00") == b"from-a"

    def test_capacity_enforced(self):
        ws, handles = make_workspace()
        sa = PersistentStringArray(ws, handles, capacity=1)
        sa.append(b"x")
        with pytest.raises(IndexError):
            sa.append(b"y")

    def test_oversized_string_rejected(self):
        ws, handles = make_workspace()
        sa = PersistentStringArray(ws, handles, capacity=1)
        with pytest.raises(ValueError):
            sa.append(b"z" * 65)

    def test_out_of_range_index(self):
        ws, handles = make_workspace()
        sa = PersistentStringArray(ws, handles, capacity=4)
        sa.append(b"x")
        with pytest.raises(IndexError):
            sa.get(1)


class TestHashMap:
    @settings(max_examples=15, deadline=None)
    @given(ops=ops_strategy)
    def test_matches_dict_model(self, ops):
        ws, handles = make_workspace(pools=1)
        hm = PersistentHashMap(ws, handles, n_buckets=16)
        model = {}
        for op, key in ops:
            key += 1
            if op == "insert":
                hm.put(key, key + 7)
                model[key] = key + 7
            elif op == "delete":
                assert hm.remove(key) == (key in model)
                model.pop(key, None)
            else:
                assert hm.get(key) == model.get(key)
        assert hm.keys() == sorted(model)

    def test_collisions_resolved_by_chaining(self):
        ws, handles = make_workspace(pools=1)
        hm = PersistentHashMap(ws, handles, n_buckets=1)  # all collide
        for key in range(1, 30):
            hm.put(key, key)
        assert all(hm.get(k) == k for k in range(1, 30))

    def test_spill_nodes_land_in_other_pools(self):
        ws, handles = make_workspace(pools=4)
        from repro.workloads.datastructures.avl import PersistentAVL
        avl = PersistentAVL(ws, handles, spill=1.0)
        for key in range(1, 80):
            avl.insert(key, key)
        pools_used = set()
        with ws.untraced():
            def collect(node):
                from repro.workloads.datastructures.common import is_null
                from repro.workloads.datastructures import avl as avl_mod
                if is_null(node):
                    return
                pools_used.add(node.pool_id)
                collect(avl.mem.read_oid(node, avl_mod.OFF_LEFT))
                collect(avl.mem.read_oid(node, avl_mod.OFF_RIGHT))
            collect(avl.ps.read_entry())
        # A spilled node may land in any pool of the set, home included.
        assert len(pools_used) > 1
        assert handles[0].pool.pool_id in pools_used
