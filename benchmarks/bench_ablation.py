"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation reruns the AVL microbenchmark at 256 PMOs under one
modified configuration and reports how the three schemes' overheads move:

* PTLB size (8 / 16 / 32 entries) — how much of DV's cost is PTLB misses;
* DTTLB size — ditto for MPK virtualization's DTT walks;
* usable protection keys (15 vs 16) — Linux-style reserved key 0 vs the
  paper's full 16-key pool;
* NVM latency (DRAM-equal vs 3x vs 6x) — how the substrate latency scales
  the *relative* results;
* TLB shootdown cost sensitivity (143 / 286 / 572 cycles).
"""

from dataclasses import replace

from repro.experiments.reporting import format_table
from repro.sim.config import DEFAULT_CONFIG, MemoryConfig
from repro.sim.simulator import (MULTI_PMO_SCHEMES, overhead_over_lowerbound,
                                 replay_trace, viable_schemes)
from repro.workloads.micro import MicroParams, generate_micro_trace

N_POOLS = 256
SCHEMES = ("libmpk", "mpk_virt", "domain_virt")


def _trace():
    params = MicroParams(benchmark="avl", n_pools=N_POOLS, operations=1200)
    return generate_micro_trace(params)


def _overheads(trace, config):
    results = replay_trace(trace,
                           viable_schemes(MULTI_PMO_SCHEMES, N_POOLS),
                           config)
    return [overhead_over_lowerbound(results, s) for s in SCHEMES]


def _run_ablation(variants):
    trace, _ = _trace()
    rows = []
    for label, config in variants:
        rows.append([label] + _overheads(trace, config))
    return rows


def test_ablation_ptlb_size(benchmark, save_report):
    def run():
        cfg = DEFAULT_CONFIG
        variants = [
            (f"PTLB {entries} entries",
             cfg.with_overrides(domain_virt=replace(cfg.domain_virt,
                                                    ptlb_entries=entries)))
            for entries in (8, 16, 32)]
        return _run_ablation(variants)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("ablation_ptlb", format_table(
        f"Ablation: PTLB size (AVL, {N_POOLS} PMOs, % over lowerbound)",
        ["Variant"] + list(SCHEMES), rows))
    dv = [row[3] for row in rows]
    assert dv[0] >= dv[1] >= dv[2]  # bigger PTLB, cheaper DV


def test_ablation_dttlb_size(benchmark, save_report):
    def run():
        cfg = DEFAULT_CONFIG
        variants = [
            (f"DTTLB {entries} entries",
             cfg.with_overrides(mpk_virt=replace(cfg.mpk_virt,
                                                 dttlb_entries=entries)))
            for entries in (8, 16, 32)]
        return _run_ablation(variants)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("ablation_dttlb", format_table(
        f"Ablation: DTTLB size (AVL, {N_POOLS} PMOs, % over lowerbound)",
        ["Variant"] + list(SCHEMES), rows))


def test_ablation_usable_keys(benchmark, save_report):
    def run():
        cfg = DEFAULT_CONFIG
        variants = []
        for keys in (15, 16):
            variant = cfg.with_overrides(
                mpk_virt=replace(cfg.mpk_virt, usable_keys=keys),
                libmpk=replace(cfg.libmpk, usable_keys=keys))
            variants.append((f"{keys} usable keys", variant))
        return _run_ablation(variants)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("ablation_keys", format_table(
        f"Ablation: protection-key pool (AVL, {N_POOLS} PMOs, "
        "% over lowerbound)", ["Variant"] + list(SCHEMES), rows))


def test_ablation_nvm_latency(benchmark, save_report):
    def run():
        cfg = DEFAULT_CONFIG
        variants = [
            (f"NVM {latency} cycles",
             cfg.with_overrides(memory=MemoryConfig(nvm_latency=latency)))
            for latency in (120, 360, 720)]
        return _run_ablation(variants)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("ablation_nvm", format_table(
        f"Ablation: NVM latency (AVL, {N_POOLS} PMOs, % over lowerbound)",
        ["Variant"] + list(SCHEMES), rows))
    # Slower NVM inflates the baseline, shrinking relative overheads.
    libmpk = [row[1] for row in rows]
    assert libmpk[0] > libmpk[2]


def test_ablation_shootdown_cost(benchmark, save_report):
    def run():
        cfg = DEFAULT_CONFIG
        variants = [
            (f"shootdown {cycles} cycles",
             cfg.with_overrides(
                 mpk_virt=replace(cfg.mpk_virt,
                                  tlb_invalidation_cycles=cycles),
                 libmpk=replace(cfg.libmpk,
                                tlb_invalidation_cycles=cycles)))
            for cycles in (143, 286, 572)]
        return _run_ablation(variants)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("ablation_shootdown", format_table(
        f"Ablation: TLB shootdown cost (AVL, {N_POOLS} PMOs, "
        "% over lowerbound)", ["Variant"] + list(SCHEMES), rows))
    mpkv = [row[2] for row in rows]
    assert mpkv[0] < mpkv[2]  # MPKV scales with shootdown cost
    dv = [row[3] for row in rows]
    assert abs(dv[0] - dv[2]) / dv[1] < 0.05  # DV is insensitive
