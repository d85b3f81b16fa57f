"""Benchmark comparing the analytic model against the full simulation.

For each scheme, the closed-form prediction (from measured event counts)
is compared with the simulated overhead — a consistency audit of the
charging arithmetic, reported as a table of relative errors.
"""

from repro.experiments.reporting import format_table
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.model import predict, relative_error
from repro.sim.simulator import (MULTI_PMO_SCHEMES, replay_trace,
                                 viable_schemes)
from repro.workloads.micro import MicroParams, generate_micro_trace

SCHEMES = ("lowerbound", "mpk_virt", "domain_virt", "libmpk")


def test_model_vs_simulation(benchmark, save_report):
    def run():
        rows = []
        for bench in ("avl", "bt", "ss"):
            trace, _ = generate_micro_trace(MicroParams(
                benchmark=bench, n_pools=256, operations=1000))
            results = replay_trace(trace,
                                   viable_schemes(MULTI_PMO_SCHEMES, 256))
            for scheme in SCHEMES:
                stats = results[scheme]
                measured = stats.cycles - stats.baseline_cycles
                predicted = predict(scheme, stats, DEFAULT_CONFIG)
                rows.append([
                    bench, scheme, measured, predicted.total,
                    100 * relative_error(predicted.total, measured)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("model_vs_sim", format_table(
        "Analytic model vs simulation (overhead cycles, 256 PMOs)",
        ["Benchmark", "Scheme", "Simulated", "Predicted", "Error %"],
        rows))
    # The model must track the simulator within 25% on every point.
    assert all(row[4] < 25 for row in rows), rows
