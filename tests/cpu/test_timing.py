"""Tests for the trace-replay timing engine.

Every behaviour below must hold for the replay engine and for the
reference interpreter alike, so each test replays under both.
"""

import pytest

from repro.permissions import Perm
from repro.core.schemes import NullProtection, scheme_by_name
from repro.cpu.fast_timing import FastReplayEngine
from repro.errors import ProtectionFault
from repro.sim.config import DEFAULT_CONFIG
from repro.workloads.base import PerOpPolicy, UnprotectedPolicy, Workspace

from ..oracle import ReferenceEngine

ENGINES = (FastReplayEngine, ReferenceEngine)


def build_workspace(policy=None, pools=2):
    ws = Workspace(policy or UnprotectedPolicy(), seed=1)
    handles = [ws.create_and_attach(f"p{i}", 8 << 20) for i in range(pools)]
    return ws, handles


def engine(engine_class, ws, scheme="baseline", config=None):
    return engine_class(config or DEFAULT_CONFIG, ws.kernel, ws.process,
                        scheme_by_name(scheme))


def replay(ws, trace, scheme="baseline", config=None):
    """The trace's RunStats under each of ``ENGINES``, in turn, against
    the workspace's own kernel and process."""
    return [engine(engine_class, ws, scheme, config).run(trace)
            for engine_class in ENGINES]


class TestBasicReplay:
    def test_counts_loads_and_stores(self):
        ws, (pool, _) = build_workspace()
        oid = pool.pool.pmalloc(64)
        ws.mem.write_u64(oid, 0, 1)
        ws.mem.read_u64(oid, 0)
        for stats in replay(ws, ws.finish()):
            assert stats.stores == 1
            assert stats.loads == 1
            assert stats.pmo_accesses == 2

    def test_instruction_accounting(self):
        ws, (pool, _) = build_workspace()
        ws.compute(500)
        ws.mem.write_u64(pool.pool.pmalloc(64), 0, 1)
        trace = ws.finish()
        for stats in replay(ws, trace):
            assert stats.instructions == trace.total_instructions

    def test_lowerbound_adds_exactly_wrpkru_per_switch(self):
        ws, handles = build_workspace(PerOpPolicy())
        oid = handles[0].pool.pmalloc(64)
        with ws.operation():
            ws.mem.write_u64(oid, 0, 1)
        trace = ws.finish()
        for base, lower in zip(replay(ws, trace),
                               replay(ws, trace, "lowerbound")):
            switches = lower.perm_switches
            assert switches == 2  # grant + revoke around the operation
            assert lower.cycles - base.cycles == \
                pytest.approx(27 * switches)

    def test_nvm_latency_applied_to_pmo_accesses(self):
        ws, (pool, _) = build_workspace()
        pmo_oid = pool.pool.pmalloc(64)
        ws.mem.read_u64(pmo_oid, 0)
        nvm_runs = replay(ws, ws.finish())

        ws2, _ = build_workspace()
        ws2.stack_access(n=1)  # a DRAM access instead
        dram_runs = replay(ws2, ws2.finish())
        cfg = DEFAULT_CONFIG
        expected_gap = (cfg.memory.nvm_latency - cfg.memory.dram_latency) \
            * cfg.processor.stall_overlap
        for nvm_stats, dram_stats in zip(nvm_runs, dram_runs):
            assert nvm_stats.cycles - dram_stats.cycles == pytest.approx(
                expected_gap, abs=cfg.tlb.miss_penalty + 5)

    def test_tlb_warmup(self):
        ws, (pool, _) = build_workspace()
        oid = pool.pool.pmalloc(64)
        for _ in range(5):
            ws.mem.read_u64(oid, 0)
        for stats in replay(ws, ws.finish()):
            assert stats.tlb_misses == 1
            assert stats.tlb_l1_hits == 4


class TestProtectionEnforcement:
    def test_illegal_store_faults(self):
        ws, handles = build_workspace()
        oid = handles[0].pool.pmalloc(64)
        # Write with NO permission instrumentation at all: under an
        # enforcing scheme whose default is inaccessible, this faults.
        ws.mem.write_u64(oid, 0, 1)
        trace = ws.finish()
        for engine_class in ENGINES:
            with pytest.raises(ProtectionFault) as excinfo:
                engine(engine_class, ws, "domain_virt").run(trace)
            assert excinfo.value.domain == handles[0].domain
            assert excinfo.value.is_write

    def test_faults_counted_when_not_enforcing(self):
        ws, handles = build_workspace()
        ws.mem.write_u64(handles[0].pool.pmalloc(64), 0, 1)
        trace = ws.finish()
        config = DEFAULT_CONFIG.with_overrides(enforce_protection=False)
        for stats in replay(ws, trace, "domain_virt", config):
            assert stats.protection_faults == 1

    def test_instrumented_trace_replays_clean_everywhere(self):
        ws, handles = build_workspace(PerOpPolicy())
        oid = handles[0].pool.pmalloc(64)
        for _ in range(3):
            with ws.operation():
                ws.mem.write_u64(oid, 0, 7)
                ws.mem.read_u64(oid, 0)
        trace = ws.finish()
        for scheme in ("mpk", "mpk_virt", "domain_virt", "libmpk"):
            for stats in replay(ws, trace, scheme):
                assert stats.protection_faults == 0


class TestContextSwitches:
    def test_ctxsw_event_drives_scheme(self):
        ws, handles = build_workspace(PerOpPolicy())
        t2 = ws.process.spawn_thread()
        ws.recorder.init_perm(t2.tid, handles[0].domain, Perm.R)
        ws.recorder.init_perm(t2.tid, handles[1].domain, Perm.R)
        oid = handles[0].pool.pmalloc(64)
        with ws.operation():
            ws.mem.write_u64(oid, 0, 1)
        ws.context_switch(ws.process.main_thread, t2)
        ws.mem.read_u64(oid, 0, tid=t2.tid)
        trace = ws.finish()
        for stats in replay(ws, trace, "domain_virt"):
            assert stats.context_switches == 1
            assert stats.protection_faults == 0


class TestSchemeOrdering:
    def test_costs_ordered_baseline_lowerbound_hw_libmpk(self):
        """On a many-domain trace the paper's cost ordering must hold."""
        ws, _ = build_workspace(PerOpPolicy(), pools=24)
        handles = list(ws.pools.values())
        oids = [h.pool.pmalloc(64) for h in handles]
        for round_ in range(3):
            for oid in oids:
                with ws.operation():
                    ws.mem.write_u64(oid, 0, round_)
        trace = ws.finish()
        names = ("baseline", "lowerbound", "domain_virt", "mpk_virt",
                 "libmpk")
        runs = [replay(ws, trace, name) for name in names]
        for per_engine in zip(*runs):
            cycles = {name: stats.cycles
                      for name, stats in zip(names, per_engine)}
            assert cycles["baseline"] < cycles["lowerbound"]
            assert cycles["lowerbound"] < cycles["domain_virt"]
            assert cycles["domain_virt"] < cycles["mpk_virt"]
            assert cycles["mpk_virt"] < cycles["libmpk"]
