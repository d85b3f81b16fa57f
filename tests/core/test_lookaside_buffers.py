"""Tests for the lookaside buffer, as the DTTLB and as the PTLB."""

import pytest

from repro.core.dtt import DTTLBEntry
from repro.core.lookaside import LookasideBuffer
from repro.core.permission_table import PermissionTable, PTLBEntry
from repro.obs.metrics import MetricsRegistry
from repro.permissions import Perm


class BufferTests:
    """Every buffer behaviour, run once per entry kind (the subclasses)."""

    name = ""

    def make_entry(self, domain, perm=Perm.RW, dirty=False):
        raise NotImplementedError

    def buffer(self, entries):
        return LookasideBuffer(entries, self.name)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            self.buffer(12)

    def test_miss_then_hit(self):
        buf = self.buffer(16)
        assert buf.lookup(5) is None
        buf.insert(self.make_entry(5, perm=Perm.R))
        entry = buf.lookup(5)
        assert entry.domain == 5 and entry.perm == Perm.R
        assert buf.hits == 1 and buf.misses == 1

    def test_capacity_and_eviction(self):
        buf = self.buffer(4)
        for domain in range(5):
            buf.insert(self.make_entry(domain))
        assert len(buf) == 4

    def test_eviction_at_capacity(self):
        buf = self.buffer(4)
        victims = [buf.insert(self.make_entry(d)) for d in range(6)]
        assert len(buf) == 4
        assert sum(v is not None for v in victims) == 2

    def test_eviction_returns_victim(self):
        buf = self.buffer(2)
        buf.insert(self.make_entry(1))
        buf.insert(self.make_entry(2))
        victim = buf.insert(self.make_entry(3))
        assert victim is not None
        assert victim.domain in (1, 2)
        assert victim.domain not in buf

    def test_plru_spares_recent(self):
        buf = self.buffer(4)
        for domain in range(4):
            buf.insert(self.make_entry(domain))
        buf.lookup(3)
        victim = buf.insert(self.make_entry(9))
        assert victim.domain != 3

    def test_reinsert_same_domain_updates_in_place(self):
        buf = self.buffer(4)
        buf.insert(self.make_entry(1, perm=Perm.R))
        assert buf.insert(self.make_entry(1, perm=Perm.RW)) is None
        assert buf.lookup(1).perm == Perm.RW
        assert len(buf) == 1

    def test_invalidate(self):
        buf = self.buffer(4)
        buf.insert(self.make_entry(1))
        removed = buf.invalidate(1)
        assert removed.domain == 1
        assert 1 not in buf
        assert buf.lookup(1) is None
        assert buf.invalidate(1) is None

    def test_flush_returns_only_dirty(self):
        buf = self.buffer(4)
        buf.insert(self.make_entry(1))
        buf.insert(self.make_entry(2, dirty=True))
        flushed = buf.flush()
        assert [e.domain for e in flushed] == [2]
        assert len(buf) == 0

    def test_flush_returns_dirty_for_pt_writeback(self):
        # The writeback counter counts what a flush hands back for
        # writing to the DTT or the PT.
        buf = self.buffer(4)
        buf.insert(self.make_entry(1, dirty=True))
        buf.insert(self.make_entry(2))
        buf.insert(self.make_entry(3, dirty=True))
        assert sorted(e.domain for e in buf.flush()) == [1, 3]
        assert buf.writebacks == 2
        assert buf.flush() == [] and buf.writebacks == 2

    def test_peek_does_not_count(self):
        buf = self.buffer(4)
        buf.insert(self.make_entry(1))
        assert buf.peek(1).domain == 1
        assert buf.peek(2) is None
        assert buf.hits == 0 and buf.misses == 0

    def test_slot_reuse_after_invalidate(self):
        buf = self.buffer(2)
        buf.insert(self.make_entry(1))
        buf.insert(self.make_entry(2))
        buf.invalidate(1)
        # Free slot is reused; no eviction needed.
        assert buf.insert(self.make_entry(3)) is None
        assert len(buf) == 2

    def test_report_metrics_names(self):
        buf = self.buffer(2)
        buf.lookup(1)
        buf.insert(self.make_entry(1, dirty=True))
        buf.lookup(1)
        buf.flush()
        registry = MetricsRegistry()
        buf.report_metrics(registry)
        assert sorted(registry.names()) == [
            f"{self.name}.hits", f"{self.name}.misses",
            f"{self.name}.writebacks"]
        assert [registry.value(f"{self.name}.{counter}")
                for counter in ("hits", "misses", "writebacks")] == [1, 1, 1]


class TestDTTLB(BufferTests):
    name = "dttlb"

    def make_entry(self, domain, perm=Perm.RW, dirty=False):
        return DTTLBEntry(domain=domain, key=1, perm=perm, dirty=dirty)


class TestPTLB(BufferTests):
    name = "ptlb"

    def make_entry(self, domain, perm=Perm.RW, dirty=False):
        return PTLBEntry(domain=domain, perm=perm, dirty=dirty)


class TestPermissionTable:
    def test_default_is_none(self):
        pt = PermissionTable()
        assert pt.get(domain=1, tid=1) == Perm.NONE

    def test_set_get_per_thread(self):
        pt = PermissionTable()
        pt.set(1, 100, Perm.RW)
        pt.set(1, 200, Perm.R)
        assert pt.get(1, 100) == Perm.RW
        assert pt.get(1, 200) == Perm.R
        assert pt.get(1, 300) == Perm.NONE

    def test_register_and_drop_domain(self):
        pt = PermissionTable()
        pt.set(5, 1, Perm.RW)
        pt.set(6, 1, Perm.R)
        pt.drop_domain(5)
        assert pt.get(5, 1) == Perm.NONE
        assert pt.get(6, 1) == Perm.R
        pt.drop_domain(5)  # an unknown domain: nothing to drop
        assert pt.get(5, 1) == Perm.NONE

    def test_lookup_counter(self):
        pt = PermissionTable()
        pt.get(1, 1)
        pt.get(1, 1)
        assert pt.lookups == 2
