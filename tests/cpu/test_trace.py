"""Tests for trace recording."""

import numpy as np
import pytest

from repro.permissions import Perm
from repro.cpu import trace as tr
from repro.errors import TraceError
from repro.os.address_space import VMA


def vma(domain=1):
    return VMA(base=0x2000_0000_0000, reserved=1 << 30, size=8 << 20,
               pmo_id=domain, granule=1 << 30, is_nvm=True)


class TestRecording:
    def test_load_store_events(self):
        rec = tr.TraceRecorder()
        rec.load(1, 0x1000)
        rec.store(1, 0x2000, size=4)
        trace = rec.finish()
        assert trace.events[0][:2] == (tr.LOAD, 1)
        assert trace.events[1][0] == tr.STORE
        assert trace.events[1][4] == 4

    def test_perm_event_carries_domain_and_level(self):
        rec = tr.TraceRecorder()
        rec.perm(2, 7, Perm.RW)
        trace = rec.finish()
        kind, tid, _icount, domain, perm = trace.events[0]
        assert (kind, tid, domain, perm) == (tr.PERM, 2, 7, int(Perm.RW))

    def test_compute_folds_into_next_event(self):
        rec = tr.TraceRecorder()
        rec.compute(100)
        rec.load(1, 0x1000)
        trace = rec.finish()
        assert trace.events[0][2] == 100 + tr.ICOUNT_PER_ACCESS

    def test_total_instructions(self):
        rec = tr.TraceRecorder()
        rec.load(1, 0x1000)
        rec.compute(10)
        rec.store(1, 0x2000)
        trace = rec.finish()
        assert trace.total_instructions == 2 * tr.ICOUNT_PER_ACCESS + 10

    def test_attach_records_side_table(self):
        rec = tr.TraceRecorder()
        region = vma(domain=9)
        rec.attach(9, region, Perm.RW)
        trace = rec.finish()
        assert trace.attach_info[9] == (region, Perm.RW)
        assert trace.events[0][0] == tr.ATTACH

    def test_context_switch_event(self):
        rec = tr.TraceRecorder()
        rec.context_switch(1, 2)
        trace = rec.finish()
        kind, old, _ic, new, _b = trace.events[0]
        assert (kind, old, new) == (tr.CTXSW, 1, 2)

    def test_finish_twice_rejected(self):
        rec = tr.TraceRecorder()
        rec.finish()
        with pytest.raises(TraceError):
            rec.finish()

    def test_emit_after_finish_rejected(self):
        rec = tr.TraceRecorder()
        rec.finish()
        with pytest.raises(TraceError):
            rec.load(1, 0)

    def test_counts_histogram(self):
        rec = tr.TraceRecorder()
        rec.load(1, 0)
        rec.load(1, 8)
        rec.perm(1, 1, Perm.R)
        trace = rec.finish()
        assert trace.counts() == {"load": 2, "perm": 1}

    def test_len_and_label(self):
        rec = tr.TraceRecorder("mylabel")
        rec.load(1, 0)
        trace = rec.finish()
        assert len(trace) == 1
        assert trace.label == "mylabel"

    def test_rows_round_trip_across_the_chunk_boundary(self):
        # Single events move into the column builder every ROW_CHUNK
        # rows; a bulk chunk lands after them, and compute() still
        # pending then stays with the next single event.
        rec = tr.TraceRecorder()
        expected = []
        for i in range(tr.ROW_CHUNK + 5):
            rec.load(i % 3, 8 * i)
            expected.append((tr.LOAD, i % 3, tr.ICOUNT_PER_ACCESS, 8 * i, 8))
        rec.compute(10)
        chunk = [(tr.PERM, 1, 1, 7, int(Perm.RW)),
                 (tr.STORE, 2, 4, 1 << 40, 8)]
        rec.extend(*(np.array(column) for column in zip(*chunk)))
        expected += chunk
        rec.store(1, 64)
        expected.append((tr.STORE, 1, tr.ICOUNT_PER_ACCESS + 10, 64, 8))
        trace = rec.finish()
        assert trace.events == expected
        assert trace.total_instructions == sum(row[2] for row in expected)
