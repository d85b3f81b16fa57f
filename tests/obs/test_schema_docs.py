"""The schema contract: code, docs, and runtime must agree.

``src/repro/obs/schema.py`` and ``docs/OBSERVABILITY.md`` are two halves
of one contract; this module diffs them in both directions, then runs an
instrumented replay and checks that everything actually emitted is
covered by the contract.
"""

import pathlib

import pytest

import repro
from repro import obs
from repro.engine import TraceCache
from repro.experiments.runner import ExperimentRunner
from repro.obs import schema

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / \
    "OBSERVABILITY.md"


def _tables(text):
    """Markdown tables as (header cells, list of row cells)."""
    tables, current = [], []
    for line in text.splitlines():
        if line.startswith("|"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            current.append(cells)
        elif current:
            tables.append((current[0], current[2:]))  # skip |---| rule
            current = []
    if current:
        tables.append((current[0], current[2:]))
    return tables


def _table_by_header(first_cell):
    for header, rows in _tables(DOC.read_text(encoding="utf-8")):
        if header and header[0] == first_cell:
            return rows
    raise AssertionError(
        f"docs/OBSERVABILITY.md has no table headed {first_cell!r}")


def _code(cell):
    assert cell.startswith("`") and cell.endswith("`"), \
        f"first cell must be backticked code: {cell!r}"
    return cell.strip("`")


class TestMetricsTable:
    def test_docs_match_schema_exactly(self):
        rows = _table_by_header("Metric")
        documented = {_code(row[0]): row[1] for row in rows}
        assert set(documented) == set(schema.METRICS), \
            "metric names drifted between schema.py and OBSERVABILITY.md"
        for name, (mtype, _source, _desc) in schema.METRICS.items():
            assert documented[name] == mtype, \
                f"{name}: documented type {documented[name]!r} != {mtype!r}"

    def test_docs_sources_match_schema(self):
        rows = _table_by_header("Metric")
        for row in rows:
            name = _code(row[0])
            assert row[2] == schema.METRICS[name][1], name

    def test_sources_name_existing_modules(self):
        package = pathlib.Path(repro.__file__).parent
        for name, (_mtype, source, _desc) in schema.METRICS.items():
            module = package / source
            assert module.with_suffix(".py").is_file() or \
                (module / "__init__.py").is_file(), \
                f"{name}: source {source!r} names no module in src/repro"


class TestEventsTable:
    def test_docs_match_schema_exactly(self):
        rows = _table_by_header("Kind")
        documented = {}
        for row in rows:
            fields = () if row[1] == "—" else tuple(
                part.strip().strip("`") for part in row[1].split(","))
            documented[_code(row[0])] = fields
        assert set(documented) == set(schema.EVENTS), \
            "event kinds drifted between schema.py and OBSERVABILITY.md"
        for kind, fields in schema.EVENTS.items():
            assert documented[kind] == fields, kind


class TestKnobsTable:
    def test_docs_match_schema_exactly(self):
        rows = _table_by_header("Knob")
        documented = {_code(row[0]) for row in rows}
        assert documented == set(schema.ENV_KNOBS)


class TestRuntimeHonorsContract:
    @pytest.fixture()
    def instrumented(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVENTS", "ring")
        monkeypatch.setenv("REPRO_EVENTS_BUFFER", "100000")
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        obs.reset()
        TraceCache.clear_memory()
        runner = ExperimentRunner(scale=0.02)
        results = runner.replay_micro(
            "avl", 16, ("libmpk", "mpk_virt", "domain_virt"))
        records = list(obs.active_events().records())
        obs.reset()
        return results, records

    def test_emitted_metrics_are_all_documented(self, instrumented):
        results, _ = instrumented
        for stats in results.values():
            payload = stats.metrics
            for group in ("counters", "gauges", "histograms"):
                for name in payload.get(group, {}):
                    assert name in schema.METRICS, name
                    assert schema.METRICS[name][0] == group[:-1], name

    def test_emitted_events_are_all_documented(self, instrumented):
        _, records = instrumented
        assert records
        allowed_extra = set(schema.ENVELOPE) | set(schema.REPLAY_CONTEXT)
        for record in records:
            kind = record["kind"]
            assert kind in schema.EVENTS, kind
            unknown = set(record) - allowed_extra - set(schema.EVENTS[kind])
            assert not unknown, f"{kind}: undocumented fields {unknown}"

    def test_sampled_kinds_are_a_subset_of_events(self):
        assert set(schema.SAMPLED_EVENTS) <= set(schema.EVENTS)
