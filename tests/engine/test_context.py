"""Replay-context tests: reconstruction fidelity and scheme isolation."""

import pytest

from repro.core.schemes import NullProtection, scheme_by_name
from repro.cpu.fast_timing import make_replay_engine
from repro.engine import ReplayContext, replay_one
from repro.errors import EngineError
from repro.mem.memory import NVM_FRAME_BASE
from repro.sim.simulator import MULTI_PMO_SCHEMES
from repro.sim.config import DEFAULT_CONFIG
from repro.cpu.trace import Trace
from repro.workloads.micro import MicroParams, generate_micro_trace

TINY = dict(n_pools=12, operations=150, initial_nodes=16, pool_size=1 << 20)


def _replay_shared(trace, workspace, names, config, include_baseline):
    """The historical replay: every scheme in turn against the generating
    workspace's own kernel and process (the oracle for isolated contexts).
    """
    kernel, process = workspace.kernel, workspace.process
    results = {}
    baseline = make_replay_engine(config, kernel, process,
                                  NullProtection).run(trace)
    if include_baseline:
        results["baseline"] = baseline
    for name in names:
        engine = make_replay_engine(config, kernel, process,
                                    scheme_by_name(name))
        stats = engine.run(trace)
        stats.baseline_cycles = baseline.cycles
        results[name] = stats
    return results


@pytest.fixture(scope="module")
def generated():
    return generate_micro_trace(MicroParams(benchmark="avl", **TINY))


class TestReconstruction:
    def test_requires_layout(self):
        bare = Trace(events=[], attach_info={}, total_instructions=0,
                     label="bare")
        with pytest.raises(EngineError):
            ReplayContext.from_trace(bare)

    def test_rebuilds_address_space(self, generated):
        trace, ws = generated
        ctx = ReplayContext.from_trace(trace)
        original = {vma.base: vma for vma in ws.process.address_space.vmas()}
        rebuilt = {vma.base: vma for vma in
                   ctx.process.address_space.vmas()}
        assert rebuilt.keys() == original.keys()
        for base, vma in original.items():
            copy = rebuilt[base]
            assert copy is not vma  # private objects
            assert (copy.size, copy.pmo_id, copy.is_nvm) == \
                (vma.size, vma.pmo_id, vma.is_nvm)

    def test_rebuilds_page_table_verbatim(self, generated):
        trace, ws = generated
        ctx = ReplayContext.from_trace(trace)
        original = list(ws.process.page_table.entries())
        rebuilt = list(ctx.process.page_table.entries())
        assert len(rebuilt) == len(original)
        # Same vpn -> pfn/perm/domain mapping, in the same fault order
        # (insertion order drives libmpk's rewrite accounting).
        for (vpn_a, pte_a), (vpn_b, pte_b) in zip(original, rebuilt):
            assert vpn_a == vpn_b
            assert (pte_a.pfn, pte_a.perm, pte_a.domain) == \
                (pte_b.pfn, pte_b.perm, pte_b.domain)

    def test_frame_allocators_advanced(self, generated):
        trace, _ = generated
        ctx = ReplayContext.from_trace(trace)
        pfns = [pfn for _, pfn, _, _, _ in trace.layout.ptes]
        nvm = [pfn for pfn in pfns if pfn >= NVM_FRAME_BASE]
        fresh = ctx.kernel.physical_memory.alloc_nvm_frame()
        assert fresh not in nvm  # no collision with snapshot frames

    def test_attachments_restored(self, generated):
        trace, ws = generated
        ctx = ReplayContext.from_trace(trace)
        assert ctx.process.attachments.keys() == \
            ws.process.attachments.keys()
        for domain, (vma, intent) in ctx.attach_info.items():
            assert vma is not trace.attach_info[domain][0]

    def test_threads_restored(self, generated):
        trace, ws = generated
        ctx = ReplayContext.from_trace(trace)
        assert len(ctx.process.threads) == len(ws.process.threads)


class TestIsolation:
    def test_fresh_context_matches_shared_workspace(self):
        """The enabling refactor's contract: context replay must be
        bit-identical to the historical shared-workspace replay."""
        params = MicroParams(benchmark="rbt", **TINY)
        t_shared, ws = generate_micro_trace(params)
        t_fresh, _ = generate_micro_trace(params)
        shared = _replay_shared(t_shared, ws, list(MULTI_PMO_SCHEMES),
                                DEFAULT_CONFIG, True)
        for name, stats in shared.items():
            fresh = replay_one(t_fresh, name)
            # baseline_cycles is wiring done by the caller, not a replay
            # result; compare the raw replays over the same denominator.
            base = stats.baseline_cycles or shared["baseline"].cycles
            assert fresh.to_dict(baseline=base) == \
                stats.to_dict(baseline=base), name

    def test_replay_order_is_irrelevant(self, generated):
        trace, _ = generated
        forward = [replay_one(trace, s).cycles for s in MULTI_PMO_SCHEMES]
        backward = [replay_one(trace, s).cycles
                    for s in reversed(MULTI_PMO_SCHEMES)]
        assert forward == list(reversed(backward))

    def test_repeated_replays_identical(self, generated):
        trace, _ = generated
        first = replay_one(trace, "libmpk")
        second = replay_one(trace, "libmpk")
        assert first.to_dict() == second.to_dict()

    def test_replay_does_not_mutate_trace(self, generated):
        trace, _ = generated
        pkeys_before = [pkey for _, _, _, pkey, _ in trace.layout.ptes]
        attach_pkeys = {d: vma.pkey
                        for d, (vma, _) in trace.attach_info.items()}
        replay_one(trace, "libmpk")  # libmpk rewrites pkeys aggressively
        assert [pkey for _, _, _, pkey, _ in trace.layout.ptes] == \
            pkeys_before
        assert {d: vma.pkey for d, (vma, _)
                in trace.attach_info.items()} == attach_pkeys
