"""Admission control and domain-aware batching of the service planner."""

import dataclasses

from repro.service import ServiceParams, build_plan

from .legacy import object_view

SATURATED = dict(n_clients=16, n_requests=400)  # default load: queues build


class TestDeterminism:
    def test_same_params_identical_plan(self):
        params = ServiceParams(**SATURATED)
        assert object_view(build_plan(params)) == \
            object_view(build_plan(params))


class TestConservation:
    def test_every_offered_request_served_or_rejected(self):
        params = ServiceParams(**SATURATED)
        plan = object_view(build_plan(params))
        served_rids = [r.rid for batch in plan.batches
                       for r in batch.requests]
        assert len(served_rids) + len(plan.rejected) == params.n_requests
        rejected_rids = [r.rid for r in plan.rejected]
        assert sorted(served_rids + rejected_rids) == \
            list(range(params.n_requests))
        assert len(set(served_rids)) == len(served_rids)


class TestBatching:
    def test_client_batches_are_single_client_and_bounded(self):
        params = ServiceParams(**SATURATED, batch_limit=4)
        plan = build_plan(params)
        for batch in object_view(plan).batches:
            assert 1 <= len(batch.requests) <= 4
            assert {r.client for r in batch.requests} == {batch.client}
        assert plan.coalesced > 0  # saturation leaves material to coalesce

    def test_none_serves_one_request_per_window(self):
        params = ServiceParams(**SATURATED, batching="none")
        plan = build_plan(params)
        assert plan.batch_sizes().tolist() == [1] * plan.n_served
        assert plan.coalesced == 0

    def test_client_batching_strictly_reduces_windows(self):
        batched = build_plan(ServiceParams(**SATURATED))
        unbatched = build_plan(ServiceParams(**SATURATED, batching="none"))
        assert batched.columns.n_batches < unbatched.columns.n_batches

    def test_batch_indices_are_dense(self):
        plan = build_plan(ServiceParams(**SATURATED))
        starts = plan.columns.batch_starts
        assert starts[0] == 0 and starts[-1] == plan.n_served
        assert (plan.batch_sizes() >= 1).all()


class TestAdmissionControl:
    def test_unbounded_queue_never_rejects(self):
        plan = build_plan(ServiceParams(**SATURATED, max_queue=0))
        assert plan.n_rejected == 0
        assert plan.n_served == SATURATED["n_requests"]

    def test_bounded_queue_rejects_under_overload(self):
        roomy = build_plan(ServiceParams(**SATURATED, max_queue=0))
        tight = build_plan(ServiceParams(**SATURATED, max_queue=8))
        assert tight.n_rejected > roomy.n_rejected

    def test_rejects_are_excluded_from_batches(self):
        plan = build_plan(ServiceParams(**SATURATED, max_queue=8))
        rejected = set(plan.columns.rejected_rows.tolist())
        served = set(plan.columns.member_rows.tolist())
        assert rejected and not rejected & served


class TestWorkerAssignment:
    def test_earliest_free_uses_every_slot(self):
        plan = build_plan(ServiceParams(**SATURATED, workers=3))
        # Saturated load keeps all three workers busy, and the first
        # batch lands on slot 0 (ties break to the lowest slot).
        workers = plan.columns.batch_workers
        assert set(workers.tolist()) == {0, 1, 2}
        assert workers[0] == 0

    def test_earliest_free_balances_saturated_load(self):
        plan = build_plan(ServiceParams(**SATURATED, workers=3))
        requests = [0, 0, 0]
        for worker, size in zip(plan.columns.batch_workers.tolist(),
                                plan.batch_sizes().tolist()):
            requests[worker] += size
        # Under saturation no worker idles while another drowns.
        assert min(requests) > 0
        assert max(requests) <= 2 * min(requests)

    def test_single_worker_everything_on_slot_zero(self):
        plan = build_plan(ServiceParams(**SATURATED))
        assert set(plan.columns.batch_workers.tolist()) == {0}


class TestLoadSensitivity:
    def test_light_load_degenerates_to_fifo(self):
        # Interarrival far above service cost: the queue never holds two
        # requests, so client batching finds nothing to coalesce.
        light = dataclasses.replace(ServiceParams(**SATURATED),
                                    interarrival_cycles=50000.0)
        plan = build_plan(light)
        assert plan.coalesced == 0
        assert plan.n_rejected == 0
