"""Event stream round-trip: emit -> jsonl -> obsreport.

One instrumented replay; then every record must parse, obey the schema,
and reconstruct the per-scheme overhead breakdown *exactly* — the
acceptance criterion for ``REPRO_EVENTS``.
"""

import json

import pytest

from repro import obs
from repro.engine import TraceCache, replay_one
from repro.errors import PkeyError
from repro.experiments.runner import ExperimentRunner
from repro.obs import schema
from repro.sim.simulator import MULTI_PMO_SCHEMES
from repro.tools import obsreport
from repro.workloads.micro import MicroParams, generate_micro_trace


@pytest.fixture()
def traced_run(monkeypatch, tmp_path):
    sink = tmp_path / "events.jsonl"
    monkeypatch.setenv("REPRO_EVENTS", f"jsonl:{sink}")
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    obs.reset()
    TraceCache.clear_memory()
    runner = ExperimentRunner(scale=0.02)
    results = runner.replay_micro("avl", 16, MULTI_PMO_SCHEMES)
    obs.reset()  # final flush
    return sink, results


class TestJsonlStream:
    def test_every_line_parses_and_obeys_schema(self, traced_run):
        sink, _ = traced_run
        lines = sink.read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert record["kind"] in schema.EVENTS
            for field in schema.ENVELOPE:
                assert field in record, record["kind"]
            for field in schema.EVENTS[record["kind"]]:
                assert field in record, record["kind"]

    def test_sequence_is_monotone(self, traced_run):
        sink, _ = traced_run
        seqs = [json.loads(line)["seq"] for line in
                sink.read_text().splitlines()]
        assert seqs == sorted(seqs)

    def test_replay_done_buckets_match_runstats_exactly(self, traced_run):
        sink, results = traced_run
        events = obsreport.load_events(str(sink))
        done = {e["scheme"]: e for e in events if e["kind"] == "replay.done"}
        # baseline + every requested scheme replayed exactly once
        assert set(done) == {"baseline", *MULTI_PMO_SCHEMES}
        for scheme, stats in results.items():
            assert done[scheme]["buckets"] == stats.buckets, scheme
            assert done[scheme]["cycles"] == stats.cycles, scheme
            assert done[scheme]["instructions"] == stats.instructions

    def test_perm_switch_counts_match(self, traced_run):
        sink, results = traced_run
        events = obsreport.load_events(str(sink))
        for scheme, stats in results.items():
            count = sum(1 for e in events if e["kind"] == "perm_switch"
                        and e["scheme"] == scheme)
            assert count == stats.perm_switches, scheme

    def test_corrupt_lines_are_skipped(self, traced_run):
        sink, _ = traced_run
        intact = len(obsreport.load_events(str(sink)))
        with open(sink, "a") as handle:
            handle.write('{"kind": "truncat')  # killed mid-flush
        assert len(obsreport.load_events(str(sink))) == intact


class TestAbortedReplay:
    def test_span_closes_when_the_replay_raises(self, monkeypatch):
        # Default MPK runs out of keys at 24 domains mid-replay; records
        # emitted after that belong to no replay.
        monkeypatch.setenv("REPRO_EVENTS", "ring")
        obs.reset()
        trace, _ = generate_micro_trace(MicroParams(
            benchmark="avl", n_pools=24, initial_nodes=24, operations=40))
        with pytest.raises(PkeyError):
            replay_one(trace, "mpk")
        ev = obs.active_events()
        kinds = [record["kind"] for record in ev.records()]
        assert "replay.start" in kinds
        assert "replay.done" not in kinds
        ev.emit("job.cache_hit")
        assert not {"scheme", "label", "cycle"} & ev.records()[-1].keys()


class TestSampling:
    def test_walk_events_are_decimated(self, monkeypatch, tmp_path):
        def run(sample):
            sink = tmp_path / f"sampled-{sample}.jsonl"
            monkeypatch.setenv("REPRO_EVENTS", f"jsonl:{sink}")
            monkeypatch.setenv("REPRO_EVENTS_SAMPLE", str(sample))
            monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
            obs.reset()
            TraceCache.clear_memory()
            runner = ExperimentRunner(scale=0.02)
            results = runner.replay_micro("avl", 16, ("mpk_virt",))
            obs.reset()
            events = obsreport.load_events(str(sink))
            walks = sum(1 for e in events if e["kind"] == "dtt_walk")
            return walks, results["mpk_virt"]

        walks_full, stats = run(1)
        assert walks_full == stats.dttlb_misses
        walks_tenth, stats = run(10)
        assert walks_tenth == stats.dttlb_misses // 10
        # Non-sampled kinds are never decimated.
        assert stats.perm_switches > 0


class TestObsreportCli:
    def test_all_commands_run(self, traced_run, capsys):
        sink, _ = traced_run
        for command in ("summary", "breakdown", "timeline"):
            assert obsreport.main([command, str(sink)]) == 0
            assert capsys.readouterr().out.strip()

    def test_breakdown_renders_buckets_and_schemes(self, traced_run,
                                                   capsys):
        sink, results = traced_run
        assert obsreport.main(["breakdown", str(sink)]) == 0
        out = capsys.readouterr().out
        from repro.sim.stats import OVERHEAD_BUCKETS
        for bucket in OVERHEAD_BUCKETS:
            assert bucket in out
        for scheme in results:
            assert scheme in out

    def test_timeline_filters(self, traced_run, capsys):
        sink, _ = traced_run
        assert obsreport.main(["timeline", str(sink),
                               "--scheme", "domain_virt",
                               "--bins", "20"]) == 0
        out = capsys.readouterr().out
        assert "domain_virt" in out
        assert "mpk_virt" not in out

    def test_empty_stream_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert obsreport.main(["summary", str(empty)]) == 1
