"""Multi-PMO microbenchmarks — Table IV / Table VI / Figures 6–7.

Setup (Section V): ``n_pools`` pools of 8MB, each a pool of nodes for the
benchmark's data structure; the structures collectively contain nodes in
different PMOs.  Every operation randomly selects a PMO to operate on:
its structure's *home* pool, with a configurable ``spill`` fraction of
nodes allocated in other pools so traversals hop domains.  Operations are
90% inserts / 10% deletes (String Swap performs swaps).  Write permission
for a PMO is granted around each data-structure operation
(grant-on-first-write, revoke at operation end) and every thread holds
read permission on all PMOs.

Nodes are spaced ``node_align`` bytes apart so each pool's page footprint
matches the paper's (1K dense 64-byte nodes = 16 pages per pool): with few
active PMOs the whole working set is TLB-resident, with many it thrashes
the TLB — the driver of Figure 6's growth.

The paper varies the number of active PMOs from 16 to 1024; that is the
``n_pools`` parameter of :func:`generate_micro_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..cpu.trace import Trace
from ..permissions import Perm
from .base import PerOpPolicy, PoolHandle, Workspace
from .families import register_family
from .datastructures import (PersistentAVL, PersistentBPlusTree,
                             PersistentLinkedList, PersistentRBTree,
                             PersistentStringArray)

#: Benchmark keys in the order the paper lists them (Table IV).
MICRO_BENCHMARKS = ("avl", "rbt", "bt", "ll", "ss")

MICRO_LABELS = {
    "avl": "AVL Tree (AVL)",
    "rbt": "RB tree (RBT)",
    "bt": "B+ tree (BT)",
    "ll": "Linked List (LL)",
    "ss": "String Swap (SS)",
}


@dataclass(frozen=True)
class MicroParams:
    """Parameters of one microbenchmark run."""

    benchmark: str
    n_pools: int = 1024
    pool_size: int = 8 << 20
    #: Initial nodes per structure (the paper populates 1K per structure;
    #: scaled down by default — raise for higher-fidelity runs).
    initial_nodes: int = 96
    operations: int = 2000
    insert_fraction: float = 0.9
    seed: int = 7
    #: Fraction of node allocations landing in a random non-home pool.
    spill: float = 0.2
    #: Strings per array (SS).
    ss_strings: int = 96
    #: Node spacing inside a pool.  512 packs 8 nodes per page, giving a
    #: per-pool page footprint close to the paper's 1K dense 64B nodes
    #: (~16 pages/pool): small PMO counts stay TLB-resident, large counts
    #: thrash the TLB — the driver of Figure 6's growth.
    node_align: int = 512
    #: Zipf exponent for per-operation PMO selection (0 = uniform).  A
    #: mild skew models hot/cold PMOs (e.g. active vs idle clients) and
    #: produces Figure 6's gradual overhead growth instead of the sharp
    #: LRU cliff a uniform draw causes just past 16 domains.
    zipf: float = 0.8
    #: Modelled non-memory instructions per operation.
    compute_per_op: int = 60
    #: Volatile stack accesses per operation.
    stack_per_op: int = 2
    #: Worker threads; >1 interleaves operations via the round-robin
    #: scheduler (context switches included in the trace) and scales the
    #: TLB-shootdown bill of the MPK-virtualization design, which pays
    #: 286 cycles x number_of_threads per key remap (Section V).
    threads: int = 1
    #: Operations per scheduling quantum when threads > 1.
    quantum: int = 8

    def scaled(self, factor: float) -> "MicroParams":
        return replace(self, operations=max(1, int(self.operations * factor)))


def _key(rng) -> int:
    return rng.getrandbits(48) + 1


class ZipfSampler:
    """Zipf-distributed index sampler over ``n`` items (exponent ``s``).

    Item ranks are shuffled so hot PMOs are not simply the first-created
    ones; ``s = 0`` degenerates to the uniform distribution.
    """

    def __init__(self, n: int, s: float, rng):
        import bisect
        self._bisect = bisect.bisect_left
        self._rng = rng
        weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
        order = list(range(n))
        rng.shuffle(order)
        self._items = order
        total = 0.0
        self._cumulative = []
        for weight in weights:
            total += weight
            self._cumulative.append(total)
        self._total = total
        self._items_arr = None
        self._cumulative_arr = None

    def sample(self) -> int:
        point = self._rng.random() * self._total
        rank = self._bisect(self._cumulative, point)
        return self._items[min(rank, len(self._items) - 1)]

    def map_uniforms(self, uniforms) -> "np.ndarray":
        """Map a uniform[0,1) array through the sampler's distribution.

        The batch counterpart of :meth:`sample`'s body — element ``i``
        equals ``sample()`` fed the same uniform (``searchsorted`` over
        the cumulative weights is exactly ``bisect_left``).  Consumes no
        randomness itself; callers that want the sampler's own stream
        use :meth:`sample_n`.
        """
        import numpy as np
        if self._cumulative_arr is None:
            self._cumulative_arr = np.asarray(self._cumulative,
                                              dtype=np.float64)
            self._items_arr = np.asarray(self._items, dtype=np.int64)
        points = np.asarray(uniforms, dtype=np.float64) * self._total
        ranks = np.searchsorted(self._cumulative_arr, points, side="left")
        np.minimum(ranks, len(self._items) - 1, out=ranks)
        return self._items_arr[ranks]

    def sample_n(self, n: int) -> "np.ndarray":
        """``n`` draws as an int64 array, element-for-element identical
        to ``[self.sample() for _ in range(n)]`` from the same RNG state
        (the uniforms come through :func:`repro.rng.bulk_uniforms`, so
        the shared ``rng`` advances by exactly ``n`` draws)."""
        from ..rng import bulk_uniforms
        return self.map_uniforms(bulk_uniforms(self._rng, n))


_STRUCT_CLASSES = {
    "avl": PersistentAVL,
    "rbt": PersistentRBTree,
    "bt": PersistentBPlusTree,
    "ll": PersistentLinkedList,
}


class _StructuredSuite:
    """One structure per pool; ops pick a random pool, then operate."""

    def __init__(self, ws: Workspace, pools: List[PoolHandle],
                 params: MicroParams):
        self.ws = ws
        self.params = params
        cls = _STRUCT_CLASSES[params.benchmark]
        self.structs = []
        self.live: List[List[int]] = []
        rng = ws.rng
        self.sampler = ZipfSampler(len(pools), params.zipf, rng)
        for i, home in enumerate(pools):
            # Home pool first; spill allocations may hit any pool.
            ordered = [home] + pools[:i] + pools[i + 1:]
            if cls is PersistentBPlusTree:
                struct = cls(ws, ordered, spill=params.spill)
            else:
                struct = cls(ws, ordered, spill=params.spill,
                             node_align=params.node_align)
            self.structs.append(struct)
            keys: List[int] = []
            with ws.untraced():
                if params.benchmark == "ll":
                    for j in range(params.initial_nodes):
                        key = _key(rng)
                        struct.insert_at(rng.randrange(j + 1), key, key)
                        keys.append(key)
                else:
                    for _ in range(params.initial_nodes):
                        key = _key(rng)
                        struct.insert(key, key)
                        keys.append(key)
            self.live.append(keys)

    def operate(self, tid=None) -> None:
        rng = self.ws.rng
        index = self.sampler.sample()
        struct = self.structs[index]
        keys = self.live[index]
        insert = rng.random() < self.params.insert_fraction or not keys
        if self.params.benchmark == "ll":
            size = len(keys)
            if insert:
                key = _key(rng)
                position = rng.randrange(size + 1)
                struct.insert_at(position, key, key)
                keys.insert(position, key)
            else:
                position = rng.randrange(size)
                struct.delete_at(position)
                keys.pop(position)
        elif insert:
            key = _key(rng)
            struct.insert(key, key)
            keys.append(key)
        else:
            swap_index = rng.randrange(len(keys))
            keys[swap_index], keys[-1] = keys[-1], keys[swap_index]
            struct.delete(keys.pop())


class _StringSwapSuite:
    """One string array per pool; swaps stay in-pool except spills."""

    def __init__(self, ws: Workspace, pools: List[PoolHandle],
                 params: MicroParams):
        self.ws = ws
        self.params = params
        rng = ws.rng
        self.sampler = ZipfSampler(len(pools), params.zipf, rng)
        self.arrays = []
        for i, home in enumerate(pools):
            ordered = [home] + pools[:i] + pools[i + 1:]
            array = PersistentStringArray(ws, ordered,
                                          capacity=params.ss_strings,
                                          spill=params.spill,
                                          node_align=params.node_align)
            with ws.untraced():
                for _ in range(params.ss_strings):
                    array.append(rng.getrandbits(256).to_bytes(32, "little"))
            self.arrays.append(array)

    def operate(self, tid=None) -> None:
        rng = self.ws.rng
        array = self.arrays[self.sampler.sample()]
        i = rng.randrange(self.params.ss_strings)
        j = rng.randrange(self.params.ss_strings)
        if self.params.spill and rng.random() < self.params.spill \
                and len(self.arrays) > 1:
            other = self.arrays[rng.randrange(len(self.arrays))]
            PersistentStringArray.swap_between(array, i, other, j)
        else:
            array.swap(i, j)


def generate_micro_trace(params: MicroParams) -> Tuple[Trace, Workspace]:
    """Build and execute one microbenchmark; returns its trace + workspace.

    Replays never touch the workspace: every replay rebuilds a private
    context from ``trace.layout`` (:mod:`repro.engine.context`).  The
    workspace is returned for inspection (pools, process image) and is
    freed as soon as the caller drops it.
    """
    if params.benchmark not in MICRO_BENCHMARKS:
        raise ValueError(f"unknown microbenchmark {params.benchmark!r}; "
                         f"choose from {MICRO_BENCHMARKS}")
    ws = Workspace(PerOpPolicy(), seed=params.seed,
                   label=f"{params.benchmark}-{params.n_pools}pmo")
    pools = [ws.create_and_attach(f"{params.benchmark}-pmo-{i:04d}",
                                  params.pool_size)
             for i in range(params.n_pools)]

    if params.benchmark == "ss":
        suite = _StringSwapSuite(ws, pools, params)
    else:
        suite = _StructuredSuite(ws, pools, params)

    if params.threads <= 1:
        for _ in range(params.operations):
            ws.compute(params.compute_per_op)
            ws.stack_access(n=params.stack_per_op)
            with ws.operation():
                suite.operate()
        return ws.finish(), ws

    # Multi-threaded variant: split the operation budget over worker
    # threads interleaved by the scheduler (CTXSW events in the trace).
    from ..os.scheduler import RoundRobinScheduler
    scheduler = RoundRobinScheduler(ws, quantum=params.quantum)
    per_thread = params.operations // params.threads

    def make_worker(thread):
        def body():
            for _ in range(per_thread):
                ws.compute(params.compute_per_op)
                ws.stack_access(tid=thread.tid, n=params.stack_per_op)
                with ws.operation(thread.tid):
                    suite.operate(tid=thread.tid)
                yield
        return body()

    scheduler.spawn(make_worker, ws.process.main_thread)
    for _ in range(params.threads - 1):
        thread = scheduler.spawn(make_worker)
        # Late-spawned threads need the global read permission too.
        for handle in ws.pools.values():
            ws.recorder.init_perm(thread.tid, handle.domain, Perm.R)
    scheduler.run()
    return ws.finish(), ws


register_family("micro", params_type=MicroParams,
                generate=generate_micro_trace,
                benchmarks=MICRO_BENCHMARKS)
