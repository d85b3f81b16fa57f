"""Scenario compilation: the cross-product grid and its substitutions."""

import pytest

from repro.engine.job import WorkloadSpec
from repro.scenario import (Scenario, ScenarioError, compile_scenario,
                            smoke_active)


def scenario(**over):
    document = {
        "scenario": "demo",
        "workload": "micro",
        "params": {"benchmark": "avl", "n_pools": 32, "operations": 200},
        "schemes": ["@multi_pmo"],
    }
    document.update(over)
    return Scenario.from_document(document)


class TestGrid:
    def test_cross_product_in_document_order(self):
        compiled = compile_scenario(scenario(
            sweep={"benchmark": ["avl", "ss"], "n_pools": [16, 32]}),
            smoke=False, scale=1.0)
        assert [cell.axes for cell in compiled.cells] == [
            (("benchmark", "avl"), ("n_pools", 16)),
            (("benchmark", "avl"), ("n_pools", 32)),
            (("benchmark", "ss"), ("n_pools", 16)),
            (("benchmark", "ss"), ("n_pools", 32)),
        ]

    def test_chunks_group_by_first_axis_value(self):
        compiled = compile_scenario(scenario(
            sweep={"benchmark": ["avl", "ss"], "n_pools": [16, 32]}),
            smoke=False, scale=1.0)
        assert compiled.first_axis == "benchmark"
        chunks = compiled.chunks()
        assert [len(chunk) for chunk in chunks] == [2, 2]
        assert {cell.axes_dict["benchmark"] for cell in chunks[0]} == {"avl"}
        assert {cell.axes_dict["benchmark"] for cell in chunks[1]} == {"ss"}

    def test_no_sweep_compiles_one_cell_one_chunk(self):
        compiled = compile_scenario(scenario(), smoke=False, scale=1.0)
        assert len(compiled.cells) == 1
        assert compiled.cells[0].axes == ()
        assert compiled.first_axis is None
        assert [len(chunk) for chunk in compiled.chunks()] == [1]

    def test_cell_labels_name_the_coordinates(self):
        compiled = compile_scenario(scenario(
            sweep={"n_pools": [16]}), smoke=False, scale=1.0)
        assert compiled.cells[0].label == "n_pools=16"

    def test_specs_go_through_the_stock_constructor(self):
        compiled = compile_scenario(scenario(), smoke=False, scale=1.0)
        direct = WorkloadSpec.micro("avl", 32, operations=200)
        assert compiled.cells[0].spec == direct
        assert compiled.cells[0].spec.cache_key() == direct.cache_key()

    def test_scale_flows_into_the_spec(self):
        compiled = compile_scenario(scenario(), smoke=False, scale=0.5)
        direct = WorkloadSpec.micro("avl", 32, operations=200, scale=0.5)
        assert compiled.cells[0].spec.cache_key() == direct.cache_key()


class TestConfig:
    def test_global_config_overrides_apply_to_every_cell(self):
        compiled = compile_scenario(scenario(
            config={"mpk_virt.tlb_invalidation_cycles": 999},
            sweep={"n_pools": [16, 32]}), smoke=False, scale=1.0)
        assert all(cell.config.mpk_virt.tlb_invalidation_cycles == 999
                   for cell in compiled.cells)

    def test_dotted_axis_sweeps_config_not_the_spec(self):
        compiled = compile_scenario(scenario(
            sweep={"mpk_virt.tlb_invalidation_cycles": [143, 286]}),
            smoke=False, scale=1.0)
        keys = {cell.spec.cache_key() for cell in compiled.cells}
        assert len(keys) == 1  # the trace is shared across the sweep
        assert [cell.config.mpk_virt.tlb_invalidation_cycles
                for cell in compiled.cells] == [143, 286]

    def test_unknown_config_path_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="demo"):
            compile_scenario(scenario(
                config={"mpk_virt.warp_factor": 9}), smoke=False, scale=1.0)

    def test_bad_cell_params_name_the_coordinates(self):
        bad = Scenario.from_document({
            "scenario": "demo", "workload": "service",
            "schemes": ["dv"], "sweep": {"pattern": ["poisson", "tide"]}})
        with pytest.raises(ScenarioError, match="'pattern': 'tide'"):
            compile_scenario(bad, smoke=False, scale=1.0)


class TestSmoke:
    def test_smoke_substitutes_params_sweep_and_schemes(self):
        compiled = compile_scenario(scenario(
            sweep={"n_pools": [256, 1024]},
            smoke={"params": {"operations": 50},
                   "sweep": {"n_pools": [16]},
                   "schemes": ["dv"]}), smoke=True, scale=1.0)
        assert compiled.smoke
        assert compiled.schemes == ("dv",)
        assert [cell.axes_dict["n_pools"] for cell in compiled.cells] == [16]
        assert compiled.cells[0].spec == WorkloadSpec.micro(
            "avl", 16, operations=50)

    def test_smoke_false_ignores_the_smoke_section(self):
        compiled = compile_scenario(scenario(
            sweep={"n_pools": [256]},
            smoke={"sweep": {"n_pools": [16]}}), smoke=False, scale=1.0)
        assert not compiled.smoke
        assert [cell.axes_dict["n_pools"] for cell in compiled.cells] == [256]

    def test_smoke_none_consults_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SMOKE", "1")
        assert smoke_active()
        compiled = compile_scenario(scenario(
            sweep={"n_pools": [256]},
            smoke={"sweep": {"n_pools": [16]}}), scale=1.0)
        assert compiled.smoke
        monkeypatch.setenv("REPRO_SMOKE", "0")
        assert not smoke_active()

    @pytest.mark.parametrize("raw, on", [
        ("", False), ("0", False), ("false", False), ("no", False),
        ("off", False), ("1", True), ("yes", True)])
    def test_smoke_truth_table(self, monkeypatch, raw, on):
        monkeypatch.setenv("REPRO_SMOKE", raw)
        assert smoke_active() is on
