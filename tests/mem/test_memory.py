"""Tests for the DRAM/NVM physical memory model."""

import pytest

from repro.core.schemes import scheme_by_name
from repro.cpu.fast_timing import FastReplayEngine
from repro.errors import SimulationError
from repro.mem.memory import NVM_FRAME_BASE, PhysicalMemory
from repro.sim.config import DEFAULT_CONFIG, MemoryConfig
from repro.workloads.base import UnprotectedPolicy, Workspace

from ..oracle import ReferenceEngine


class TestFrameAllocation:
    def test_dram_frames_below_nvm_base(self):
        phys = PhysicalMemory()
        assert phys.alloc_dram_frame() < NVM_FRAME_BASE

    def test_nvm_frames_at_or_above_base(self):
        phys = PhysicalMemory()
        assert phys.alloc_nvm_frame() >= NVM_FRAME_BASE

    def test_frames_are_unique(self):
        phys = PhysicalMemory()
        frames = {phys.alloc_dram_frame() for _ in range(100)}
        frames |= {phys.alloc_nvm_frame() for _ in range(100)}
        assert len(frames) == 200

    def test_exhaustion(self):
        phys = PhysicalMemory(dram_frames=2)
        phys.alloc_dram_frame()
        phys.alloc_dram_frame()
        with pytest.raises(SimulationError):
            phys.alloc_dram_frame()

    def test_allocation_counters(self):
        phys = PhysicalMemory()
        phys.alloc_dram_frame()
        phys.alloc_nvm_frame()
        phys.alloc_nvm_frame()
        assert phys.dram_frames_allocated == 1
        assert phys.nvm_frames_allocated == 2


class TestLatency:
    """Frames are classified by region; a replay charges each region
    the latency of its ``config.memory``."""

    def test_custom_latencies(self):
        config = DEFAULT_CONFIG.with_overrides(
            memory=MemoryConfig(dram_latency=100, nvm_latency=500))
        ws = Workspace(UnprotectedPolicy(), seed=1)
        handle = ws.create_and_attach("p", 8 << 20)
        ws.mem.read_u64(handle.pool.pmalloc(64), 0)
        ws.stack_access(n=1)
        trace = ws.finish()
        for engine_class in (FastReplayEngine, ReferenceEngine):
            runs = [engine_class(cfg, ws.kernel, ws.process,
                                 scheme_by_name("baseline")).run(trace)
                    for cfg in (DEFAULT_CONFIG, config)]
            # One NVM and one DRAM line miss to memory.
            assert runs[1].cycles - runs[0].cycles == pytest.approx(
                (500 - 360 + 100 - 120) * config.processor.stall_overlap)

    def test_is_nvm_frame(self):
        assert PhysicalMemory.is_nvm_frame(NVM_FRAME_BASE)
        assert not PhysicalMemory.is_nvm_frame(NVM_FRAME_BASE - 1)
