"""Tests for the tracedump CLI."""

import pytest

from repro.cpu.tracefile import save_trace
from repro.tools.tracedump import main
from repro.workloads.micro import MicroParams, generate_micro_trace


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    trace, _ws = generate_micro_trace(MicroParams(
        benchmark="ss", n_pools=4, initial_nodes=8, operations=20))
    path = tmp_path_factory.mktemp("traces") / "ss.npz"
    save_trace(trace, path)
    return str(path)


class TestSummary:
    def test_reports_counts(self, trace_path, capsys):
        assert main(["summary", trace_path]) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "permission switches" in out
        assert "attached domains    : 4" in out


    def test_reports_exact_run_shares(self, tmp_path, capsys):
        from repro.cpu.trace import TraceRecorder
        from repro.os.address_space import VMA
        from repro.permissions import Perm
        base = 0x2000_0000_0000
        rec = TraceRecorder()
        rec.attach(1, VMA(base=base, reserved=1 << 30, size=8 << 20,
                          pmo_id=1, granule=1 << 30, is_nvm=True), Perm.RW)
        rec.load(1, base)             # head
        rec.load(1, base + 8)         # page and line tail
        rec.store(1, base + 64)       # page tail on a new line
        rec.load(2, base + 72)        # another thread: head
        rec.fetch(2, base + 72)       # a fetch is always a head
        rec.load(2, base + 72)        # so is the access after it
        rec.perm(2, 1, Perm.R)
        rec.load(2, base + 72)        # after a cold event: head
        rec.load(2, base + 4096)      # another page: head
        path = tmp_path / "runs.npz"
        save_trace(rec.finish(), path)
        assert main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "page-run tails      : 2 of 8 memory events (25.0%)" in out
        assert "line-run tails      : 1 of 8 memory events (12.5%)" in out


class TestEvents:
    def test_dumps_limited_events(self, trace_path, capsys):
        assert main(["events", trace_path, "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "attach" in out
        assert "more)" in out

    def test_event_lines_show_addresses(self, trace_path, capsys):
        main(["events", trace_path, "--limit", "200"])
        out = capsys.readouterr().out
        assert "vaddr=0x" in out
        assert "perm=" in out


class TestInspect:
    def test_clean_trace_exits_zero(self, trace_path, capsys):
        assert main(["inspect", trace_path, "--max-open", "4"]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_violating_trace_exits_nonzero(self, tmp_path, capsys):
        from repro.permissions import Perm
        from repro.cpu.trace import TraceRecorder
        from repro.os.address_space import VMA
        rec = TraceRecorder()
        rec.attach(1, VMA(base=0x2000_0000_0000, reserved=1 << 30,
                          size=8 << 20, pmo_id=1, granule=1 << 30,
                          is_nvm=True), Perm.RW)
        rec.perm(1, 1, Perm.RW)  # never revoked
        path = tmp_path / "bad.npz"
        save_trace(rec.finish(), path)
        assert main(["inspect", str(path)]) == 1
        assert "violation" in capsys.readouterr().out
