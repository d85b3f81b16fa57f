"""Workload infrastructure: traced, permission-instrumented pool access.

A :class:`Workspace` ties together the kernel, one process, and a trace
recorder.  Data structures access pool memory through :class:`PMem`, which

* translates ObjectIDs to virtual addresses via the attachment base
  (relocatable pool pointers, Figure 1);
* performs the *real* read/write against the pool's backing store, so the
  workloads compute genuine results;
* records a LOAD/STORE trace event per access; and
* inserts permission switches according to the active policy, mirroring
  where the paper's methodology inserts WRPKRU/SETPERM.

Two policies reproduce the two evaluation set-ups:

* :class:`PerAccessPolicy` — WHISPER: permission is granted before each
  PMO access and revoked right after (2 switches per access, Section V);
* :class:`PerOpPolicy` — multi-PMO microbenchmarks: every thread holds
  read permission on all PMOs; write permission is granted at the first
  write to a domain inside an operation and dropped at operation end
  (Section V: switches per data-structure operation).
"""

from __future__ import annotations

import random
from dataclasses import replace as _vma_copy
from typing import Dict, Optional, Set, Tuple

from ..permissions import Perm
from ..cpu.trace import Trace, TraceLayout, TraceRecorder
from ..errors import SimulationError
from ..os.kernel import Kernel
from ..os.process import Attachment, Process, Thread
from ..pmo.oid import NULL_OID, NULL_OID_VALUE, OID
from ..pmo.pool import Pool


class _NullScope:
    """Reusable no-op scope (policies without per-op state)."""

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SCOPE = _NullScope()


class PermissionPolicy:
    """Decides which SETPERM events surround each traced access."""

    def __init__(self):
        self.recorder: Optional[TraceRecorder] = None
        self.process: Optional[Process] = None

    def bind(self, recorder: TraceRecorder, process: Process) -> None:
        """Attach the policy to the recorder and process it instruments."""
        self.recorder = recorder
        self.process = process

    def on_attach(self, domain: int) -> None:
        """A PMO was attached; set default permissions."""

    def before_access(self, tid: int, domain: int, is_write: bool) -> None:
        """Called before each traced PMO access."""

    def after_access(self, tid: int, domain: int, is_write: bool) -> None:
        """Called after each traced PMO access."""

    def operation(self, tid: int):
        """Scope of one data-structure operation."""
        return _NULL_SCOPE


class PerAccessPolicy(PermissionPolicy):
    """WHISPER discipline: enable before / disable after every access."""

    def on_attach(self, domain: int) -> None:
        # The key's default permission is inaccessible (Section V).
        for thread in self.process.threads:
            self.recorder.init_perm(thread.tid, domain, Perm.NONE)

    def before_access(self, tid: int, domain: int, is_write: bool) -> None:
        self.recorder.perm(tid, domain, Perm.RW)

    def after_access(self, tid: int, domain: int, is_write: bool) -> None:
        self.recorder.perm(tid, domain, Perm.NONE)


class PerOpPolicy(PermissionPolicy):
    """Micro-benchmark discipline: global read, per-op write windows."""

    def __init__(self):
        super().__init__()
        self._granted: Dict[int, Set[int]] = {}  # tid -> domains with +W

    def on_attach(self, domain: int) -> None:
        # The application has read permission for all PMOs (Section V).
        for thread in self.process.threads:
            self.recorder.init_perm(thread.tid, domain, Perm.R)

    def before_access(self, tid: int, domain: int, is_write: bool) -> None:
        if not is_write:
            return
        granted = self._granted.get(tid)
        if granted is None:
            raise SimulationError(
                "PerOpPolicy: write outside an operation() scope")
        if domain not in granted:
            self.recorder.perm(tid, domain, Perm.RW)
            granted.add(domain)

    def operation(self, tid: int):
        return _PerOpScope(self, tid)


class _PerOpScope:
    """One PerOpPolicy operation window (hand-rolled for call economy)."""

    __slots__ = ("_policy", "_tid")

    def __init__(self, policy: "PerOpPolicy", tid: int):
        self._policy = policy
        self._tid = tid

    def __enter__(self):
        policy = self._policy
        if self._tid in policy._granted:
            raise SimulationError("nested operation() scopes")
        policy._granted[self._tid] = set()
        return None

    def __exit__(self, *exc):
        policy = self._policy
        recorder = policy.recorder
        for domain in sorted(policy._granted.pop(self._tid)):
            recorder.perm(self._tid, domain, Perm.R)
        return False


class UnprotectedPolicy(PermissionPolicy):
    """No permission instrumentation at all (pure baseline traces)."""


class _UntracedScope:
    """Suspends a :class:`PMem`'s recording flag (nesting-safe)."""

    __slots__ = ("_mem", "_saved")

    def __init__(self, mem: "PMem"):
        self._mem = mem

    def __enter__(self):
        self._saved = self._mem.recording
        self._mem.recording = False
        return None

    def __exit__(self, *exc):
        self._mem.recording = self._saved
        return False


class PoolHandle:
    """An attached pool as seen by a workload."""

    def __init__(self, pool: Pool, attachment: Attachment):
        self.pool = pool
        self.attachment = attachment
        # Flattened hot-path fields (VMA base, pmo_id and the pool's
        # backing store are all fixed for an attachment's lifetime).
        self._vbase = attachment.vma.base
        self._domain = attachment.pmo_id
        self._mem = pool.memory

    @property
    def domain(self) -> int:
        return self.attachment.pmo_id

    @property
    def base(self) -> int:
        return self.attachment.vma.base

    def va_of(self, oid: OID, offset: int = 0) -> int:
        return self.attachment.vma.base + oid.offset + offset


class Workspace:
    """Kernel + process + recorder + permission policy for one workload.

    The access state lives on :attr:`mem` (:class:`PMem`).  Nothing the
    workspace holds points back at it, so a dropped workspace is freed
    by reference counting alone, without waiting for the cycle collector.
    """

    def __init__(self, policy: Optional[PermissionPolicy] = None,
                 *, kernel: Optional[Kernel] = None, seed: int = 0,
                 label: str = ""):
        self.kernel = kernel or Kernel()
        self.process = self.kernel.create_process()
        self.recorder = TraceRecorder(label)
        self.policy = policy or UnprotectedPolicy()
        self.policy.bind(self.recorder, self.process)
        self.rng = random.Random(seed)
        self.pools: Dict[int, PoolHandle] = {}
        self._stack_vma = self.kernel.map_volatile(self.process, 1 << 20)
        self.mem = PMem(self.kernel, self.process, self.recorder,
                        self.policy, self.pools)

    @property
    def tid(self) -> int:
        """The thread currently on the core (see :attr:`PMem.current_tid`)."""
        return self.mem.current_tid

    # -- pools ---------------------------------------------------------------------

    def create_and_attach(self, name: str, size: int,
                          *, intent: Perm = Perm.RW) -> PoolHandle:
        """Create a pool and attach it (the domain gets its attach event)."""
        self.kernel.pools.pool_create(
            name, size, (Perm.RW, Perm.NONE), owner=self.process.uid)
        return self.attach(name, intent=intent)

    def attach(self, name: str, *, intent: Perm = Perm.RW) -> PoolHandle:
        attachment = self.kernel.attach(self.process, name, intent)
        pool = self.kernel.pools.pool_by_id(attachment.pmo_id)
        handle = PoolHandle(pool, attachment)
        self.pools[attachment.pmo_id] = handle
        self.recorder.attach(attachment.pmo_id, attachment.vma, intent)
        self.policy.on_attach(attachment.pmo_id)
        return handle

    def detach(self, handle: PoolHandle) -> None:
        self.recorder.detach(handle.domain)
        self.kernel.detach(self.process, handle.domain)
        del self.pools[handle.domain]

    # -- recording control --------------------------------------------------------------

    def untraced(self):
        """Suspend event recording (setup phases: initial node population)."""
        return _UntracedScope(self.mem)

    def operation(self, tid: Optional[int] = None):
        """One data-structure operation (permission-policy scope)."""
        return self.policy.operation(
            tid if tid is not None else self.mem.current_tid)

    def compute(self, instructions: int) -> None:
        """Model non-memory work (loop control, comparisons, hashing)."""
        if self.mem.recording:
            self.recorder.compute(instructions)

    def fetch(self, vaddr: int, *, tid: Optional[int] = None) -> None:
        """Record an instruction fetch (execute-only memory support)."""
        self.kernel.ensure_mapped(self.process, vaddr)
        if self.mem.recording:
            self.recorder.fetch(tid if tid is not None else self.tid,
                                vaddr)

    def stack_access(self, tid: Optional[int] = None, *, n: int = 1,
                     is_write: bool = False) -> None:
        """Record volatile (DRAM, domainless) accesses on the stack region."""
        if not self.mem.recording:
            return
        tid = tid if tid is not None else self.tid
        base = self._stack_vma.base
        for i in range(n):
            addr = base + (i * 8) % 4096
            if is_write:
                self.recorder.store(tid, addr)
            else:
                self.recorder.load(tid, addr)

    def context_switch(self, old: Thread, new: Thread) -> None:
        self.mem.context_switch(old, new)

    def finish(self) -> Trace:
        """Finalize the trace, embedding the process image it replays
        against — every VMA (copied), the page table in fault order, the
        thread count — so replays reconstruct fresh, isolated contexts."""
        trace = self.recorder.finish()
        trace.layout = TraceLayout(
            vmas=[_vma_copy(vma) for vma in self.process.address_space.vmas()],
            ptes=[(vpn, pte.pfn, int(pte.perm), pte.pkey, pte.domain)
                  for vpn, pte in self.process.page_table.entries()],
            n_threads=len(self.process.threads))
        return trace


class PMem:
    """Traced, permission-instrumented typed access to pool memory.

    Owns the workspace's access state (the recording flag, the thread on
    the core, the decoded-pointer table) and holds the pools, kernel,
    process, recorder and policy it needs, never the workspace itself.
    """

    def __init__(self, kernel: Kernel, process: Process,
                 recorder: TraceRecorder, policy: PermissionPolicy,
                 pools: Dict[int, PoolHandle]):
        self.kernel = kernel
        self.process = process
        self.recorder = recorder
        self.policy = policy
        #: domain -> handle; the workspace's dict, shared, never rebound.
        self.pools = pools
        #: Whether accesses are recorded (off inside ``untraced()``).
        self.recording = True
        #: The thread currently "on the core"; untagged accesses belong
        #: to it.  Updated by context_switch (the scheduler drives this).
        self.current_tid = process.main_thread.tid
        # Decoded pointers, interned (see read_oid).  Per workspace, so
        # the table is freed with it instead of growing per process.
        self._oids: Dict[int, OID] = {NULL_OID_VALUE: NULL_OID}
        # Hot-path handle: the page-table dict is owned by the process
        # for the workspace's whole lifetime and is mutated in place,
        # never rebound, so its bound ``get`` stays valid.
        self._pte_get = process.page_table._flat.get

    def context_switch(self, old: Thread, new: Thread) -> None:
        self.current_tid = new.tid
        if self.recording:
            self.recorder.context_switch(old.tid, new.tid)

    def _resolve(self, oid: OID, offset: int) -> Tuple[PoolHandle, int, int]:
        handle = self.pools[oid.pool_id]
        addr = oid.offset + offset
        va = handle.attachment.vma.base + addr
        return handle, addr, va

    def _trace(self, tid: int, handle: PoolHandle, va: int, size: int,
               is_write: bool) -> None:
        self.kernel.ensure_mapped(self.process, va)
        if not self.recording:
            return
        self.policy.before_access(tid, handle.domain, is_write)
        if is_write:
            self.recorder.store(tid, va, size)
        else:
            self.recorder.load(tid, va, size)
        self.policy.after_access(tid, handle.domain, is_write)

    def _trace_words(self, tid: Optional[int], handle: PoolHandle, va: int,
                     length: int, is_write: bool) -> None:
        """Trace ``length`` bytes at ``va`` as one access per 8-byte word.

        Untraced, only the faults matter: each page a word starts on is
        faulted in once, in address order — the faults, and their order,
        of the per-word walk.
        """
        if not self.recording:
            if length > 0:
                last = va + (length - 1) // 8 * 8
                for vpn in range(va >> 12, (last >> 12) + 1):
                    self.kernel.ensure_mapped(self.process,
                                              max(va, vpn << 12))
            return
        if tid is None:
            tid = self.current_tid
        for word in range(0, length, 8):
            self._trace(tid, handle, va + word, min(8, length - word),
                        is_write)

    # -- allocation -------------------------------------------------------------------

    def pmalloc(self, handle: PoolHandle, size: int, *, align: int = 8) -> OID:
        return handle.pool.pmalloc(size, align=align)

    def pfree(self, oid: OID) -> None:
        self.pools[oid.pool_id].pool.pfree(oid)

    # -- typed access -------------------------------------------------------------------

    def read_u64(self, oid: OID, offset: int = 0,
                 *, tid: Optional[int] = None) -> int:
        # The single hottest call of every workload: _resolve, the
        # kernel's ensure_mapped and _trace inlined into one frame (same
        # decisions, one page-table probe instead of three call layers).
        handle = self.pools[oid.pool_id]
        addr = oid.offset + offset
        va = handle._vbase + addr
        if self._pte_get(va >> 12) is None:
            self.kernel.handle_page_fault(self.process, va)
        if self.recording:
            if tid is None:
                tid = self.current_tid
            policy = self.policy
            domain = handle._domain
            policy.before_access(tid, domain, False)
            self.recorder.load(tid, va, 8)
            policy.after_access(tid, domain, False)
        return handle._mem.read_u64(addr)

    def write_u64(self, oid: OID, offset: int, value: int,
                  *, tid: Optional[int] = None) -> None:
        # Mirrors read_u64's inlined hot path.
        handle = self.pools[oid.pool_id]
        addr = oid.offset + offset
        va = handle._vbase + addr
        if self._pte_get(va >> 12) is None:
            self.kernel.handle_page_fault(self.process, va)
        if self.recording:
            if tid is None:
                tid = self.current_tid
            policy = self.policy
            domain = handle._domain
            policy.before_access(tid, domain, True)
            self.recorder.store(tid, va, 8)
            policy.after_access(tid, domain, True)
        handle._mem.write_u64(addr, value)

    def read_oid(self, oid: OID, offset: int = 0,
                 *, tid: Optional[int] = None) -> OID:
        """Read a pool pointer.

        Decoded pointers are interned: the workloads chase the same
        live pointers over and over, and the table turns each repeat
        into one dict probe instead of a validated construction.
        """
        value = self.read_u64(oid, offset, tid=tid)
        target = self._oids.get(value)
        if target is None:
            target = self._oids[value] = OID.unpack(value)
        return target

    def write_oid(self, oid: OID, offset: int, target: OID,
                  *, tid: Optional[int] = None) -> None:
        self.write_u64(oid, offset, target.pack(), tid=tid)

    def read_bytes(self, oid: OID, offset: int, length: int,
                   *, tid: Optional[int] = None) -> bytes:
        """Read a byte range, traced as one access per 8-byte word."""
        handle, addr, va = self._resolve(oid, offset)
        self._trace_words(tid, handle, va, length, False)
        return handle.pool.memory.read(addr, length)

    def write_bytes(self, oid: OID, offset: int, data: bytes,
                    *, tid: Optional[int] = None) -> None:
        handle, addr, va = self._resolve(oid, offset)
        self._trace_words(tid, handle, va, len(data), True)
        handle.pool.memory.write(addr, data)

    # -- bulk moves (traced at cache-line granularity) -----------------------------------
    #
    # B+-tree shifts and splits move whole runs of entries; hardware moves
    # them line by line, so one load+store pair is traced per 64B line
    # instead of per word, keeping traces proportional to real traffic.

    def move_range(self, oid: OID, src_off: int, dst_off: int, nbytes: int,
                   *, tid: Optional[int] = None) -> None:
        """Intra-object memmove, traced per 64-byte line."""
        if nbytes <= 0:
            return
        handle, src_addr, src_va = self._resolve(oid, src_off)
        _, dst_addr, dst_va = self._resolve(oid, dst_off)
        tid = tid if tid is not None else self.current_tid
        for line in range(0, nbytes, 64):
            self._trace(tid, handle, src_va + line, 8, False)
            self._trace(tid, handle, dst_va + line, 8, True)
        data = handle.pool.memory.read(src_addr, nbytes)
        handle.pool.memory.write(dst_addr, data)

    def copy_range(self, src: OID, src_off: int, dst: OID, dst_off: int,
                   nbytes: int, *, tid: Optional[int] = None) -> None:
        """Inter-object copy (e.g. node split), traced per 64-byte line."""
        if nbytes <= 0:
            return
        src_handle, src_addr, src_va = self._resolve(src, src_off)
        dst_handle, dst_addr, dst_va = self._resolve(dst, dst_off)
        tid = tid if tid is not None else self.current_tid
        for line in range(0, nbytes, 64):
            self._trace(tid, src_handle, src_va + line, 8, False)
            self._trace(tid, dst_handle, dst_va + line, 8, True)
        data = src_handle.pool.memory.read(src_addr, nbytes)
        dst_handle.pool.memory.write(dst_addr, data)
