"""Trace serialization: save/load recorded executions as .npz files.

Large sweeps are dominated by trace generation (the workloads run real
data-structure code); persisting traces lets a sweep be generated once
and replayed under many configurations.  Events pack into five parallel
numpy arrays; the attach side-table (VMAs and intents) is stored as
structured metadata.

Format version 2 also persists the :class:`~repro.cpu.trace.TraceLayout`
— the generating process's VMAs, page-table contents and thread count —
so a loaded trace is fully self-contained: the replay engine rebuilds a
fresh kernel/process from the file alone, which is what makes the
persistent trace cache (:mod:`repro.engine.cache`) work across
processes.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

import numpy as np

from ..errors import TraceError
from ..os.address_space import VMA
from ..permissions import Perm
from .trace import Trace, TraceColumns, TraceLayout

FORMAT_VERSION = 2


def _vma_meta(vma: VMA) -> dict:
    return {
        "base": vma.base, "reserved": vma.reserved, "size": vma.size,
        "pmo_id": vma.pmo_id, "granule": vma.granule,
        "is_nvm": vma.is_nvm, "pkey": vma.pkey,
    }


def _vma_from_meta(meta: dict) -> VMA:
    return VMA(base=meta["base"], reserved=meta["reserved"],
               size=meta["size"], pmo_id=meta["pmo_id"],
               granule=meta["granule"], is_nvm=meta["is_nvm"],
               pkey=meta.get("pkey", 0))


def save_trace(trace: Trace, path: Union[str, pathlib.Path]) -> None:
    """Write a trace (and its layout, if any) to ``path`` (.npz)."""
    attach_meta = {
        str(domain): dict(_vma_meta(vma), intent=int(intent))
        for domain, (vma, intent) in trace.attach_info.items()
    }
    header = {
        "version": FORMAT_VERSION,
        "label": trace.label,
        "total_instructions": trace.total_instructions,
        "attach_info": attach_meta,
    }
    # The trace's columns ARE the file layout.
    columns = trace.columns
    arrays = {
        "kinds": columns.kinds, "tids": columns.tids,
        "icounts": columns.icounts, "operand_a": columns.operand_a,
        "operand_b": columns.operand_b,
    }

    layout = trace.layout
    if layout is not None:
        header["n_threads"] = layout.n_threads
        header["vmas"] = [_vma_meta(vma) for vma in layout.vmas]
        m = len(layout.ptes)
        pte_vpn = np.empty(m, dtype=np.uint64)
        pte_pfn = np.empty(m, dtype=np.uint64)
        pte_perm = np.empty(m, dtype=np.uint8)
        pte_pkey = np.empty(m, dtype=np.uint8)
        pte_domain = np.empty(m, dtype=np.uint32)
        for i, (vpn, pfn, perm, pkey, domain) in enumerate(layout.ptes):
            pte_vpn[i] = vpn
            pte_pfn[i] = pfn
            pte_perm[i] = perm
            pte_pkey[i] = pkey
            pte_domain[i] = domain
        arrays.update(pte_vpn=pte_vpn, pte_pfn=pte_pfn, pte_perm=pte_perm,
                      pte_pkey=pte_pkey, pte_domain=pte_domain)

    arrays["header"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


def load_trace(path: Union[str, pathlib.Path]) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Version-2 files carry the full process layout, so the returned trace
    replays standalone (the engine reconstructs a fresh kernel/process
    from it).  Older versions are rejected with :class:`TraceError` —
    the cache treats that as a miss and regenerates.
    """
    with np.load(path) as data:
        header = json.loads(bytes(data["header"].tobytes()).decode())
        if header.get("version") != FORMAT_VERSION:
            raise TraceError(
                f"unsupported trace format version {header.get('version')}")
        columns = TraceColumns(
            data["kinds"], data["tids"], data["icounts"],
            data["operand_a"], data["operand_b"])
        layout = None
        if "vmas" in header:
            if "pte_vpn" not in data.files:
                raise TraceError("trace layout header without PTE arrays")
            ptes = list(zip(
                data["pte_vpn"].tolist(), data["pte_pfn"].tolist(),
                data["pte_perm"].tolist(), data["pte_pkey"].tolist(),
                data["pte_domain"].tolist()))
            layout = TraceLayout(
                vmas=[_vma_from_meta(meta) for meta in header["vmas"]],
                ptes=ptes,
                n_threads=header.get("n_threads", 1))
    attach_info = {}
    for domain, meta in header["attach_info"].items():
        attach_info[int(domain)] = (_vma_from_meta(meta),
                                    Perm(meta["intent"]))
    return Trace(columns, attach_info, header["total_instructions"],
                 header["label"], layout)
