"""Isolated replay contexts reconstructed from trace layouts.

Historically every scheme replayed against the *same* kernel/process the
generating workload left behind, which serializes schemes (libmpk and
mpk rewrite VMA pkeys and PTE key fields in place).  A
:class:`ReplayContext` instead rebuilds a private kernel, process,
address space and page table from the trace's recorded
:class:`~repro.cpu.trace.TraceLayout`, so replays are independent:

* the page-table snapshot is installed verbatim (same pfn per vpn, same
  perm/pkey/domain, same insertion order), so cache indexing, NVM/DRAM
  latency selection and libmpk's per-eviction PTE-rewrite counts are
  bit-identical to the shared-workspace replay;
* every VMA — including the ones in ``trace.attach_info`` — is a private
  copy, so scheme-side mutation never leaks between schemes, processes,
  or back into a cached trace.

This isolation is what makes scheme replays safe to fan out over
``multiprocessing`` workers (:mod:`repro.engine.executor`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from ..core.schemes import scheme_by_name
from ..cpu.fast_timing import make_replay_engine
from ..cpu.trace import Trace
from ..errors import EngineError
from ..mem.memory import NVM_FRAME_BASE
from ..mem.page_table import PTE
from ..os.kernel import Kernel
from ..os.process import Attachment, Process
from ..permissions import Perm
from ..sim.config import DEFAULT_CONFIG, SimConfig
from ..sim.stats import RunStats


class ReplayContext:
    """A private kernel + process rebuilt from a trace's layout."""

    def __init__(self, kernel: Kernel, process: Process,
                 attach_info: Dict[int, Tuple]):
        self.kernel = kernel
        self.process = process
        #: Replay-private attach table (domain -> (VMA copy, intent));
        #: handed to the cpu engine so ATTACH events never resolve to the
        #: shared VMA objects stored inside the trace.
        self.attach_info = attach_info

    @classmethod
    def from_trace(cls, trace: Trace) -> "ReplayContext":
        layout = trace.layout
        if layout is None:
            raise EngineError(
                "trace has no layout; regenerate it (format v2)")
        kernel = Kernel()
        process = kernel.create_process()
        while len(process.threads) < layout.n_threads:
            process.spawn_thread()

        # Rebuild the address space from private VMA copies.
        by_base: Dict[int, object] = {}
        for vma in layout.vmas:
            copy = dataclasses.replace(vma)
            process.address_space.adopt(copy)
            by_base[copy.base] = copy

        # Attach table + attachments.  A domain whose VMA is still in the
        # layout was attached when the snapshot was taken; one that is
        # not was detached before the end of the trace, so it gets a
        # private copy for its ATTACH events but no live attachment.
        attach_info: Dict[int, Tuple] = {}
        for domain, (vma, intent) in trace.attach_info.items():
            copy = by_base.get(vma.base)
            if copy is None or copy.pmo_id != domain:
                copy = dataclasses.replace(vma)
            else:
                process.attachments[domain] = Attachment(
                    pmo_id=domain, vma=copy, intent=intent)
            attach_info[domain] = (copy, intent)

        # Install the recorded page table verbatim: same frame numbers,
        # same insertion order, fresh PTE objects (schemes mutate them).
        max_dram = -1
        max_nvm = NVM_FRAME_BASE - 1
        page_table = process.page_table
        perm_of = {p.value: p for p in Perm}
        for vpn, pfn, perm, pkey, domain in layout.ptes:
            page_table.map_page(vpn, PTE(pfn=pfn, perm=perm_of[perm],
                                         pkey=pkey, domain=domain))
            if pfn >= NVM_FRAME_BASE:
                max_nvm = max(max_nvm, pfn)
            else:
                max_dram = max(max_dram, pfn)
        kernel.physical_memory.advance_to(max_dram + 1, max_nvm + 1)
        return cls(kernel, process, attach_info)

    def replay(self, trace: Trace, scheme: str,
               config: Optional[SimConfig] = None, *,
               marks: Optional[Sequence[int]] = None,
               n_cores: int = 1) -> RunStats:
        """Replay ``trace`` under one scheme inside this context.

        ``n_cores`` is the size of the surrounding simulated machine:
        a sharded multi-core replay runs each worker slot's shard
        through its own context with ``n_cores`` set to the worker
        count, so schemes attribute the cross-core slice of their
        shootdown broadcasts.  The default (1) is the classic
        whole-trace replay and changes nothing.
        """
        config = config or DEFAULT_CONFIG
        engine = make_replay_engine(config, self.kernel, self.process,
                                    scheme_by_name(scheme),
                                    attach_info=self.attach_info,
                                    n_cores=n_cores)
        return engine.run(trace, marks=marks)


def replay_one(trace: Trace, scheme: str,
               config: Optional[SimConfig] = None, *,
               marks: Optional[Sequence[int]] = None,
               n_cores: int = 1) -> RunStats:
    """Replay one scheme in a freshly rebuilt context.

    This is the engine's isolation primitive: every call reconstructs
    kernel/process/page-table state from the trace layout, so concurrent
    or repeated calls cannot observe each other's mutations.
    """
    return ReplayContext.from_trace(trace).replay(trace, scheme, config,
                                                  marks=marks,
                                                  n_cores=n_cores)
