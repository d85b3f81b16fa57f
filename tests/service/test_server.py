"""The server's trace contract: windows, marks, isolation enforcement."""

import pytest

from repro.cpu.trace import INIT_PERM, PERM
from repro.engine import replay_one
from repro.errors import ProtectionFault, SimulationError
from repro.permissions import Perm
from repro.service import (ServiceParams, ServiceWorkload, batch_boundaries,
                           build_plan, generate_service_trace)

from .legacy import object_view, served_batches

SMALL = ServiceParams(n_clients=8, n_requests=120)


@pytest.fixture(scope="module")
def generated():
    trace, _ws = generate_service_trace(SMALL)
    return trace, build_plan(SMALL)


class TestTraceShape:
    def test_one_permission_window_per_batch(self, generated):
        trace, plan = generated
        perms = [event for event in trace.events if event[0] == PERM]
        assert len(perms) == 2 * plan.columns.n_batches
        # Windows strictly alternate: open RW, close NONE, same domain.
        for opener, closer in zip(perms[0::2], perms[1::2]):
            assert opener[4] == int(Perm.RW)
            assert closer[4] == int(Perm.NONE)
            assert opener[3] == closer[3]

    def test_deny_by_default_covers_every_client(self, generated):
        trace, _plan = generated
        inits = [event for event in trace.events if event[0] == INIT_PERM]
        assert len(inits) == SMALL.n_clients  # one worker thread
        assert all(event[4] == int(Perm.NONE) for event in inits)

    def test_generation_is_deterministic(self):
        first, _ = generate_service_trace(SMALL)
        second, _ = generate_service_trace(SMALL)
        assert first.events == second.events


class TestBatchBoundaries:
    def test_one_mark_per_batch_pointing_past_the_close(self, generated):
        trace, plan = generated
        marks = batch_boundaries(trace)
        assert len(marks) == plan.columns.n_batches
        events = trace.events
        for mark in marks:
            closer = events[mark - 1]
            assert closer[0] == PERM and closer[4] == int(Perm.NONE)
        assert marks == sorted(marks)

    def test_recoverable_without_a_plan(self, generated):
        # The boundaries come from trace content alone — the property
        # that makes cached traces re-markable.
        trace, plan = generated
        assert len(batch_boundaries(trace)) == plan.columns.n_batches


class TestServedBatches:
    def test_single_worker_is_plan_order(self, generated):
        trace, plan = generated
        assert served_batches(trace, plan) == object_view(plan).batches

    def test_multi_worker_is_an_interleaved_permutation(self):
        params = ServiceParams(n_clients=8, n_requests=120,
                               workers=3, quantum=2)
        plan = build_plan(params)
        workload = ServiceWorkload(params)
        workload.serve(plan)
        order = served_batches(workload.finish(), plan)
        assert sorted(b.index for b in order) == \
            list(range(plan.columns.n_batches))
        assert [b.index for b in order] != sorted(b.index for b in order)
        # Within one worker slot, partition order is preserved.
        for slot in range(3):
            mine = [b.index for b in order if b.worker == slot]
            assert mine == sorted(mine)

    def test_mismatched_plan_is_an_error(self, generated):
        trace, plan = generated
        shorter = build_plan(ServiceParams(n_clients=8, n_requests=60))
        with pytest.raises(SimulationError):
            served_batches(trace, shorter)


class TestIsolation:
    @pytest.mark.parametrize("scheme", ["domain_virt", "mpk_virt"])
    def test_overread_faults_under_protection(self, scheme):
        params = ServiceParams(n_clients=4, n_requests=40)
        workload = ServiceWorkload(params)
        workload.serve(build_plan(params))
        workload.overread(victim=1)
        trace = workload.finish()
        with pytest.raises(ProtectionFault) as excinfo:
            replay_one(trace, scheme)
        assert excinfo.value.domain == workload.pools[1].domain

    def test_clean_trace_replays_without_fault(self, generated):
        trace, _plan = generated
        replay_one(trace, "domain_virt")
