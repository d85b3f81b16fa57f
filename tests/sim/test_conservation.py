"""Conservation of simulated cycles: the TLB residual.

A scheme's cycles are the baseline replay's cycles, plus its charges
(the Table VII buckets), plus the TLB re-walks its invalidations cause:
instructions and cache penalties are the same for every scheme, since
schemes never touch the caches.  So the *residual*
``cycles - baseline_cycles - sum(buckets)`` equals
``dtlb_l2_hits * tlb.l2_latency + dtlb_misses * tlb.miss_penalty``,
both counts taken against the baseline replay, and both are 0 for a
scheme that never invalidates a TLB entry.

The identity holds up to float rounding, not bit for bit: the two
replays fold different addends, so their totals round differently (at
seed 7 with 600 operations, avl at 256 pools reads 72,583.99999998137
for libmpk's 72,584, and 1.16e-10 for dpti with both counts 0).  The
check allows ``1e-9 * baseline_cycles``, far below one L2 TLB hit.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schemes import scheme_by_name
from repro.engine.context import replay_one
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.simulator import MULTI_PMO_SCHEMES, viable_schemes
from repro.workloads.micro import (MICRO_BENCHMARKS, MicroParams,
                                   generate_micro_trace)

#: The residual's allowance, as a share of the baseline replay's cycles.
TOLERANCE = 1e-9


@lru_cache(maxsize=8)
def _baseline(benchmark, n_pools, operations, seed):
    """A micro trace and its baseline replay."""
    trace, _ = generate_micro_trace(MicroParams(
        benchmark=benchmark, n_pools=n_pools, operations=operations,
        seed=seed))
    return trace, replay_one(trace, "baseline")


class TestTLBResidual:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), benchmark=st.sampled_from(MICRO_BENCHMARKS),
           n_pools=st.sampled_from((16, 64)),
           operations=st.integers(20, 400), seed=st.integers(0, 1000))
    def test_residual_is_the_tlb_rewalk_cost(self, data, benchmark, n_pools,
                                             operations, seed):
        scheme = data.draw(st.sampled_from(
            viable_schemes(MULTI_PMO_SCHEMES, n_pools)))
        trace, base = _baseline(benchmark, n_pools, operations, seed)
        stats = replay_one(trace, scheme)
        residual = stats.cycles - base.cycles - sum(stats.buckets.values())
        d_l2 = stats.tlb_l2_hits - base.tlb_l2_hits
        d_miss = stats.tlb_misses - base.tlb_misses
        tlb = DEFAULT_CONFIG.tlb
        rewalks = d_l2 * tlb.l2_latency + d_miss * tlb.miss_penalty
        assert abs(residual - rewalks) <= TOLERANCE * base.cycles
        if not scheme_by_name(scheme).cost.invalidates_tlb:
            assert d_l2 == d_miss == 0
