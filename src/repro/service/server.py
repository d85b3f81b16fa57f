"""The simulated multi-tenant PMO server: plan in, trace out.

A :class:`ServiceWorkload` is the paper's Heartbleed server (Section I)
made executable at scale: every client's private record lives in its own
PMO/domain, every domain is **deny by default** for every worker thread,
and a worker only ever holds permission for the client it is currently
serving — inside an explicit SETPERM window per batch.

The server executes a :class:`~repro.service.batching.ServicePlan`
(fixed at generation time) into an ordinary replayable trace:

* batches carry the worker slot the planner's earliest-free dispatch
  assigned them to and, with more than one worker, the per-slot
  partitions are interleaved by the
  :class:`~repro.os.scheduler.RoundRobinScheduler` (context switches in
  the trace exercise the schemes' DTTLB/PTLB flush paths);
* each batch is one permission window — ``SETPERM(domain, RW)``, the
  member requests' reads/writes/compute, ``SETPERM(domain, NONE)`` —
  so the trace's window-close events double as the batch-completion
  markers the latency accounting snapshots, each carrying its worker
  slot (:func:`batch_markers` / :func:`batch_boundaries`);
* with ``revoke_every_batches > 0`` the serving worker follows every
  k-th batch with a revocation storm — a ``SETPERM(NONE)`` sweep over
  client domains (:meth:`ServiceWorkload.serve`); the marker
  recovery distinguishes those sweeps from window closes by matching
  each ``NONE`` against the worker's currently open windows.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from ..cpu.trace import (CTXSW, ICOUNT_PER_ACCESS, ICOUNT_PER_PERM,
                         INIT_PERM, LOAD, PERM, STORE, Trace)
from ..errors import SimulationError
from ..permissions import Perm
from ..pmo.oid import OID
from ..workloads.base import PoolHandle, UnprotectedPolicy, Workspace
from ..workloads.families import register_family
from .batching import ServicePlan, build_plan
from .params import ServiceParams

#: Assembled events per streamed chunk (bounds transient memory — the
#: recorder's columns are reserved up front, the chunk scratch is not).
CHUNK_EVENTS = 1 << 20


class ServiceWorkload:
    """A built server: workspace, per-client pools, and their secrets."""

    def __init__(self, params: ServiceParams):
        self.params = params
        self.ws = Workspace(
            UnprotectedPolicy(), seed=params.seed,
            label=f"service-{params.n_clients}c-{params.batching}")
        process = self.ws.process
        # Spawn the worker pool before attaching any pool so the
        # deny-by-default INIT_PERM below covers every thread.
        while len(process.threads) < max(1, params.workers):
            process.spawn_thread()
        self.worker_tids = [thread.tid for thread in process.threads]

        self.pools: List[PoolHandle] = []
        self.secrets: List[OID] = []
        for client in range(params.n_clients):
            pool = self.ws.create_and_attach(
                f"svc-client-{client:04d}", params.pool_size)
            with self.ws.untraced():
                secret = pool.pool.pmalloc(params.secret_size)
                self.ws.mem.write_bytes(
                    secret, 0,
                    f"secret-of-client-{client}".encode().ljust(64))
            # Deny by default: no thread may touch a client's PMO outside
            # an explicit serving window (stricter than the
            # microbenchmarks' global-read policy — that is the point).
            for tid in self.worker_tids:
                self.ws.recorder.init_perm(tid, pool.domain, Perm.NONE)
            self.pools.append(pool)
            self.secrets.append(secret)

        # Shared read-only domains (catalog/config segments): every
        # worker may read them at any time — INIT_PERM R, never RW, and
        # never a SETPERM window — so they add permission-check traffic
        # on a *stable* key/domain without adding batch markers.
        self.shared_pools: List[PoolHandle] = []
        self.shared_records: List[OID] = []
        for shared in range(params.shared_domains):
            pool = self.ws.create_and_attach(
                f"svc-shared-{shared:04d}", params.pool_size)
            with self.ws.untraced():
                record = pool.pool.pmalloc(
                    max(64, params.shared_words * 8))
                self.ws.mem.write_bytes(
                    record, 0,
                    f"shared-segment-{shared}".encode().ljust(64))
            for tid in self.worker_tids:
                self.ws.recorder.init_perm(tid, pool.domain, Perm.R)
            self.shared_pools.append(pool)
            self.shared_records.append(record)

    # -- serving -----------------------------------------------------------------

    def _emitted_blocks(self, batch_workers: np.ndarray
                        ) -> List[Tuple[int, int, int]]:
        """The trace-order block sequence of the scheduler interleave.

        Each element is ``(plan_index, -1, -1)`` for a served batch or
        ``(-1, old_tid, new_tid)`` for a context switch.  Replicates
        :class:`~repro.os.scheduler.RoundRobinScheduler` exactly: slots
        rotate in spawn order, a turn runs up to ``quantum`` batches, a
        thread whose remaining work is *less* than the quantum dies
        within its turn, and one with exactly a quantum left is rotated
        out alive — coming back only to die, possibly emitting one more
        context switch first.  The first thread on the core starts
        without a switch.
        """
        params = self.params
        workers = max(1, params.workers)
        n_batches = int(batch_workers.shape[0])
        if workers == 1:
            return [(index, -1, -1) for index in range(n_batches)]
        partitions: List[List[int]] = [[] for _ in range(workers)]
        for index, slot in enumerate(batch_workers.tolist()):
            partitions[slot].append(index)
        quantum = params.quantum
        queue: List[Tuple[int, int]] = [(slot, 0) for slot in range(workers)]
        current = -1
        blocks: List[Tuple[int, int, int]] = []
        while queue:
            slot, ptr = queue.pop(0)
            tid = self.worker_tids[slot]
            if current >= 0 and current != tid:
                blocks.append((-1, current, tid))
            current = tid
            part = partitions[slot]
            remaining = len(part) - ptr
            take = min(quantum, remaining)
            for offset in range(take):
                blocks.append((part[ptr + offset], -1, -1))
            if remaining >= quantum:
                queue.append((slot, ptr + take))
        return blocks

    def _fault_serving_pages(self, m_client: np.ndarray, m_rid: np.ndarray,
                             m_write: np.ndarray) -> None:
        """Demand-fault the pages the streamed accesses would touch.

        A recorded access faults each page at its first traced access,
        and the trace layout records page-table entries in fault order —
        so the assembler walks the emitted members in order, faulting
        any still-unmapped page of each member's access spans exactly
        where the recorder would have.  Candidates are pruned to pages
        the plan can actually reach, so the walk stops the moment the
        last one faults; in the default configuration the setup writes
        already mapped every serving page and the walk is skipped
        outright.
        """
        params = self.params
        ws = self.ws
        mapped = ws.process.page_table._flat
        n_shared = len(self.shared_records)

        def span_pages(base: int, words: int) -> List[Tuple[int, int]]:
            """(vpn, first access va) per page of ``words`` accesses."""
            pages: List[Tuple[int, int]] = []
            for word in range(words):
                va = base + 8 * word
                if not pages or (va >> 12) != pages[-1][0]:
                    pages.append((va >> 12, va))
            return pages

        read_pages: List[List[Tuple[int, int]]] = []
        write_pages: List[List[Tuple[int, int]]] = []
        for pool, secret in zip(self.pools, self.secrets):
            base = pool.va_of(secret)
            read_pages.append(span_pages(base, params.read_words))
            write_pages.append(span_pages(base + params.read_words * 8,
                                          params.write_words))
        shared_pages = [
            span_pages(pool.va_of(record), params.shared_words)
            for pool, record in zip(self.shared_pools, self.shared_records)]

        candidates: set = set()
        served_clients = set(np.unique(m_client).tolist())
        writer_clients = set(np.unique(m_client[m_write]).tolist()) \
            if m_write.any() else set()
        if n_shared:
            shared_seen = set(np.unique(m_rid % n_shared).tolist())
        for client in served_clients:
            for vpn, _ in read_pages[client]:
                if vpn not in mapped:
                    candidates.add(vpn)
        for client in writer_clients:
            for vpn, _ in write_pages[client]:
                if vpn not in mapped:
                    candidates.add(vpn)
        if n_shared:
            for shared in shared_seen:
                for vpn, _ in shared_pages[shared]:
                    if vpn not in mapped:
                        candidates.add(vpn)
        if not candidates:
            return

        fault = ws.kernel.handle_page_fault
        process = ws.process
        for client, rid, write in zip(m_client.tolist(), m_rid.tolist(),
                                      m_write.tolist()):
            spans = []
            if n_shared:
                spans.append(shared_pages[rid % n_shared])
            spans.append(read_pages[client])
            if write:
                spans.append(write_pages[client])
            for span in spans:
                for vpn, va in span:
                    if vpn in candidates:
                        fault(process, va)
                        candidates.discard(vpn)
            if not candidates:
                return

    def serve(self, plan: ServicePlan) -> None:
        """Execute the whole plan (worker pool, scheduler interleaving).

        The plan's column store is assembled straight into event arrays,
        chunk by chunk, never materializing a per-request object or
        event tuple.  With more than one worker the per-slot partitions
        interleave exactly as
        :class:`~repro.os.scheduler.RoundRobinScheduler` would run them
        (:meth:`_emitted_blocks`).  With ``revoke_every_batches = k > 0``
        the worker that served every k-th batch (in plan order — the
        storm schedule is fixed at generation time, like everything
        else) follows it with a ``SETPERM(NONE)`` sweep over the first
        ``revoke_fraction`` of the client domains — a lease-expiry /
        key-rotation / tenant-eviction wave.  The swept domains hold no
        open serving window, so the sweep is not a batch boundary
        (:func:`batch_markers` matches closes against open windows).

        Event-for-event identical to the per-event recorder serve it
        replaced (pinned by ``tests/service/test_columns.py`` against
        the oracle in ``tests/service/legacy.py``).
        """
        params = self.params
        ws = self.ws
        recorder = ws.recorder
        cols = plan.columns
        store = cols.requests

        n_shared = len(self.shared_records)
        n_sh = params.shared_words if n_shared else 0
        reads = params.read_words
        writes = params.write_words
        stack = params.stack_per_request
        cpr = params.compute_per_request
        stack_base = ws._stack_vma.base
        every = params.revoke_every_batches
        swept = max(1, round(params.n_clients * params.revoke_fraction)) \
            if every else 0
        storm_domains = np.asarray([pool.domain
                                    for pool in self.pools[:swept]],
                                   dtype=np.int64)
        domain_of = np.asarray([pool.domain for pool in self.pools],
                               dtype=np.int64)
        secret_va = np.asarray(
            [pool.va_of(secret)
             for pool, secret in zip(self.pools, self.secrets)],
            dtype=np.int64)
        shared_va = np.asarray(
            [pool.va_of(record)
             for pool, record in zip(self.shared_pools,
                                     self.shared_records)],
            dtype=np.int64) if n_shared else np.empty(0, dtype=np.int64)
        tid_of_slot = np.asarray(self.worker_tids, dtype=np.int64)

        # Trace-order block sequence (scheduler interleave).
        blocks = self._emitted_blocks(cols.batch_workers)
        block_plan = np.asarray([b[0] for b in blocks], dtype=np.int64) \
            if blocks else np.empty(0, dtype=np.int64)
        block_old = np.asarray([b[1] for b in blocks], dtype=np.int64) \
            if blocks else np.empty(0, dtype=np.int64)
        block_new = np.asarray([b[2] for b in blocks], dtype=np.int64) \
            if blocks else np.empty(0, dtype=np.int64)
        is_batch = block_plan >= 0
        batch_ids = block_plan[is_batch]  # plan indices, emission order

        # Per emitted batch (emission order).
        starts = cols.batch_starts
        sizes_e = np.diff(starts)[batch_ids]
        tid_e = tid_of_slot[cols.batch_workers[batch_ids]]
        dom_e = domain_of[cols.batch_clients[batch_ids]]
        storm_e = np.zeros(len(batch_ids), dtype=bool)
        if every:
            storm_e = (batch_ids + 1) % every == 0

        # Per emitted member (emission order): gather rows through the
        # plan's CSR in the scheduler's batch order.
        total_members = int(sizes_e.sum())
        member_csr = np.zeros(len(batch_ids) + 1, dtype=np.int64)
        np.cumsum(sizes_e, out=member_csr[1:])
        intra = np.arange(total_members, dtype=np.int64) - \
            np.repeat(member_csr[:-1], sizes_e)
        member_idx = cols.member_rows[
            np.repeat(starts[batch_ids], sizes_e) + intra]
        m_rid = store.rids[member_idx]
        m_write = store.is_write[member_idx]
        m_client = np.repeat(cols.batch_clients[batch_ids], sizes_e)
        m_tid = np.repeat(tid_e, sizes_e)
        m_counts = n_sh + reads + stack + writes * m_write

        # Demand faults land in first-access order, like the recorder's.
        self._fault_serving_pages(m_client, m_rid, m_write)

        # Block sizes: CTXSW blocks are one event; a batch block is the
        # window-open PERM, the member accesses, the window-close PERM,
        # and the storm sweep when one follows.
        batch_events = np.add.reduceat(m_counts, member_csr[:-1]) \
            if total_members else np.zeros(len(batch_ids), dtype=np.int64)
        block_size = np.ones(len(blocks), dtype=np.int64)
        block_size[is_batch] = 2 + batch_events + \
            storm_e.astype(np.int64) * swept
        block_csr = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum(block_size, out=block_csr[1:])
        #: emitted-batch ordinal of each block (valid where is_batch).
        batch_seq = np.cumsum(is_batch, dtype=np.int64) - 1

        perm_rw = int(Perm.RW)
        perm_none = int(Perm.NONE)
        recorder.reserve(int(block_csr[-1]))

        cursor = 0
        while cursor < len(blocks):
            end = int(np.searchsorted(
                block_csr, block_csr[cursor] + CHUNK_EVENTS, side="left"))
            end = max(cursor + 1, min(end, len(blocks)))
            c_isb = is_batch[cursor:end]
            c_starts = block_csr[cursor:end] - block_csr[cursor]
            n_chunk = int(block_csr[end] - block_csr[cursor])

            kinds = np.empty(n_chunk, dtype=np.uint8)
            tids = np.empty(n_chunk, dtype=np.int64)
            icounts = np.empty(n_chunk, dtype=np.int64)
            op_a = np.empty(n_chunk, dtype=np.int64)
            op_b = np.empty(n_chunk, dtype=np.int64)

            # Context switches (tid = outgoing, a = incoming).
            cpos = c_starts[~c_isb]
            kinds[cpos] = CTXSW
            tids[cpos] = block_old[cursor:end][~c_isb]
            icounts[cpos] = 0
            op_a[cpos] = block_new[cursor:end][~c_isb]
            op_b[cpos] = 0

            # Batch windows.
            seq = batch_seq[cursor:end][c_isb]  # emitted-batch ordinals
            if len(seq):
                j0, j1 = int(seq[0]), int(seq[-1]) + 1
                open_pos = c_starts[c_isb]
                kinds[open_pos] = PERM
                tids[open_pos] = tid_e[j0:j1]
                icounts[open_pos] = ICOUNT_PER_PERM
                op_a[open_pos] = dom_e[j0:j1]
                op_b[open_pos] = perm_rw

                # Member accesses, scattered batch-contiguously.
                m0, m1 = int(member_csr[j0]), int(member_csr[j1])
                counts = m_counts[m0:m1]
                n_mem_events = int(batch_events[j0:j1].sum())
                mstart = np.zeros(len(counts) + 1, dtype=np.int64)
                np.cumsum(counts, out=mstart[1:])
                shift = open_pos + 1 - (mstart[:-1][member_csr[j0:j1]
                                                    - member_csr[j0]])
                pos = np.arange(n_mem_events, dtype=np.int64) + \
                    np.repeat(shift, batch_events[j0:j1])
                k = np.arange(n_mem_events, dtype=np.int64) - \
                    np.repeat(mstart[:-1], counts)
                wm = np.repeat(writes * m_write[m0:m1], counts)
                sv = np.repeat(secret_va[m_client[m0:m1]], counts)
                write_mask = (k >= n_sh + reads) & (k < n_sh + reads + wm)
                stack_mask = k >= n_sh + reads + wm
                addr = sv + 8 * (k - n_sh)
                if n_sh:
                    addr = np.where(
                        k < n_sh,
                        np.repeat(shared_va[m_rid[m0:m1] % n_shared],
                                  counts) + 8 * k,
                        addr)
                addr = np.where(
                    stack_mask,
                    stack_base + (8 * (k - n_sh - reads - wm)) % 4096,
                    addr)
                mic = np.full(n_mem_events, ICOUNT_PER_ACCESS,
                              dtype=np.int64)
                mic[mstart[:-1]] += cpr  # compute() lands on the first
                kinds[pos] = np.where(write_mask, STORE, LOAD)
                tids[pos] = np.repeat(m_tid[m0:m1], counts)
                icounts[pos] = mic
                op_a[pos] = addr
                op_b[pos] = 8

                close_pos = open_pos + 1 + batch_events[j0:j1]
                kinds[close_pos] = PERM
                tids[close_pos] = tid_e[j0:j1]
                icounts[close_pos] = ICOUNT_PER_PERM
                op_a[close_pos] = dom_e[j0:j1]
                op_b[close_pos] = perm_none

                stormy = storm_e[j0:j1]
                if stormy.any():
                    spos = (close_pos[stormy][:, None] + 1 +
                            np.arange(swept, dtype=np.int64)).ravel()
                    flagged = int(stormy.sum())
                    kinds[spos] = PERM
                    tids[spos] = np.repeat(tid_e[j0:j1][stormy], swept)
                    icounts[spos] = ICOUNT_PER_PERM
                    op_a[spos] = np.tile(storm_domains, flagged)
                    op_b[spos] = perm_none

            recorder.extend(kinds, tids, icounts, op_a, op_b)
            cursor = end

    def finish(self) -> Trace:
        return self.ws.finish()

    # -- attack injection (examples/tests) ----------------------------------------

    def overread(self, victim: int, tid: int = None) -> None:
        """Record a compromised worker's over-read into another client's
        PMO — no permission window covers it, so every protecting scheme
        must fault at replay."""
        tid = self.worker_tids[0] if tid is None else tid
        pool = self.pools[victim]
        self.ws.recorder.load(tid, pool.va_of(self.secrets[victim]))


def generate_service_trace(params: ServiceParams) -> Tuple[Trace, Workspace]:
    """Build the server, execute the plan, return (trace, workspace).

    The engine's ``service`` suite entry point — same shape as
    :func:`~repro.workloads.micro.generate_micro_trace`.
    """
    plan = build_plan(params)
    workload = ServiceWorkload(params)
    workload.serve(plan)
    return workload.finish(), workload.ws


def _generate_keyed(params: ServiceParams, scheme: str):
    # Deferred import: ``closed`` calibrates through the replay engine,
    # which this module must not pull in at import time.
    from .closed import generate_service_trace_keyed
    return generate_service_trace_keyed(params, scheme)


register_family("service", params_type=ServiceParams,
                generate=generate_service_trace,
                generate_keyed=_generate_keyed,
                runner="service")


class BatchMark(NamedTuple):
    """One batch-completion marker recovered from the trace itself."""

    #: Event index *after* the batch's window-close SETPERM (the replay
    #: mark; the snapshot there is the batch's completion cycle).
    index: int
    #: Worker slot (0-based) that served the batch.
    worker: int


def worker_slots(trace: Trace) -> Dict[int, int]:
    """tid -> worker slot, recovered from the trace's INIT_PERM prologue.

    The server spawns its whole worker pool *before* attaching any
    client pool, then records the deny-by-default ``INIT_PERM`` for
    every worker tid in slot order — so the first-appearance order of
    tids among INIT_PERM events is exactly the slot order, for any
    service trace, including one loaded from the persistent cache.
    """
    columns = trace.columns

    def build() -> Dict[int, int]:
        slots: Dict[int, int] = {}
        for tid in columns.tids[columns.kinds == INIT_PERM].tolist():
            if tid not in slots:
                slots[tid] = len(slots)
        return slots

    return columns.replay_cache(("service.worker_slots",), build)


def batch_markers(trace: Trace) -> List[BatchMark]:
    """Each batch's completion marker, with its worker slot attached.

    Service traces close every serving window with
    ``SETPERM(domain, NONE)``, so both the boundary and the serving
    worker (the closing event's tid, mapped through
    :func:`worker_slots`) are recoverable from the trace alone — the
    slot is carried by the marker instead of re-inferred from whichever
    worker happened to close a window first.

    A ``NONE`` switch only counts as a batch boundary when it closes a
    window this worker actually has open on that domain: revocation
    storms (``revoke_every_batches``) sweep ``NONE`` over domains with
    no open window, and those sweeps are permission traffic, not
    completions.
    """
    columns = trace.columns

    def build() -> List[BatchMark]:
        slots = worker_slots(trace)
        events = np.nonzero(columns.kinds == PERM)[0]
        #: (tid, domain) -> number of currently open grant windows.
        open_windows: Dict[Tuple[int, int], int] = {}
        markers: List[BatchMark] = []
        for index, tid, domain, perm in zip(
                events.tolist(), columns.tids[events].tolist(),
                columns.operand_a[events].tolist(),
                columns.operand_b[events].tolist()):
            key = (tid, domain)
            if perm != int(Perm.NONE):
                open_windows[key] = open_windows.get(key, 0) + 1
                continue
            held = open_windows.get(key, 0)
            if not held:
                continue  # storm revocation — no window to close
            open_windows[key] = held - 1
            slot = slots.get(tid)
            if slot is None:
                raise SimulationError(
                    f"window-close SETPERM by tid {tid} which is "
                    f"outside the trace's worker roster")
            markers.append(BatchMark(index=index + 1, worker=slot))
        return markers

    return columns.replay_cache(("service.batch_markers",), build)


def batch_boundaries(trace: Trace) -> List[int]:
    """Event indices *after* each batch's window-close SETPERM.

    Passed as ``marks`` to the replay engine, the k-th snapshot is the
    cycle the k-th batch (in trace order) completed.  The slot-carrying
    view of the same markers is :func:`batch_markers`.
    """
    return [marker.index for marker in batch_markers(trace)]
