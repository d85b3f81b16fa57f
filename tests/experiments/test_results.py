"""Tests for the JSON results archive."""

import json

import pytest

from repro.experiments.results import ResultsArchive, significant_changes
from repro.sim.simulator import replay_trace
from repro.workloads.micro import MicroParams, generate_micro_trace


@pytest.fixture(scope="module")
def results():
    trace, ws = generate_micro_trace(MicroParams(
        benchmark="ss", n_pools=4, initial_nodes=8, operations=25))
    return replay_trace(trace, ("lowerbound", "domain_virt"))


class TestStoreLoad:
    def test_round_trip(self, tmp_path, results):
        archive = ResultsArchive(tmp_path / "a")
        archive.store("ss-4", results, metadata={"n_pools": 4})
        record = archive.load("ss-4")
        assert record["metadata"] == {"n_pools": 4}
        assert record["schemes"]["domain_virt"]["perm_switches"] == \
            results["domain_virt"].perm_switches

    def test_overhead_percent_derived(self, tmp_path, results):
        archive = ResultsArchive(tmp_path / "a")
        archive.store("r", results)
        record = archive.load("r")
        expected = results["domain_virt"].overhead_percent(
            results["baseline"].cycles)
        assert record["schemes"]["domain_virt"]["overhead_percent"] == \
            pytest.approx(expected)

    def test_document_is_valid_json(self, tmp_path, results):
        archive = ResultsArchive(tmp_path / "a")
        path = archive.store("r", results, timestamp=123.0)
        document = json.loads(path.read_text())
        assert document["saved_at"] == 123.0

    def test_names_and_contains(self, tmp_path, results):
        archive = ResultsArchive(tmp_path / "a")
        archive.store("one", results)
        archive.store("two", results)
        assert archive.names() == ["one", "two"]
        assert "one" in archive and "three" not in archive

    def test_missing_record(self, tmp_path):
        archive = ResultsArchive(tmp_path / "a")
        with pytest.raises(FileNotFoundError):
            archive.load("nope")

    def test_bad_name_rejected(self, tmp_path, results):
        archive = ResultsArchive(tmp_path / "a")
        with pytest.raises(ValueError):
            archive.store("../escape", results)


class TestDiff:
    def test_identical_archives_ratio_one(self, tmp_path, results):
        a = ResultsArchive(tmp_path / "a")
        b = ResultsArchive(tmp_path / "b")
        a.store("r", results)
        b.store("r", results)
        rows = a.diff("r", b)
        assert rows
        assert all(row[4] == pytest.approx(1.0) for row in rows)
        assert significant_changes(rows) == []

    def test_detects_changed_cycles(self, tmp_path, results):
        a = ResultsArchive(tmp_path / "a")
        b = ResultsArchive(tmp_path / "b")
        a.store("r", results)
        b.store("r", results)
        # Tamper with one number in archive b.
        record = b.load("r")
        record["schemes"]["domain_virt"]["cycles"] *= 2
        (b.root / "r.json").write_text(json.dumps(record))
        changed = significant_changes(a.diff("r", b))
        assert any(row[0] == "domain_virt" and row[1] == "cycles"
                   for row in changed)
