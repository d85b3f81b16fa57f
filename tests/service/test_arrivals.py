"""Arrival-pattern plugins: churn windows and revocation storms."""

import dataclasses

import pytest

from repro.cpu.trace import PERM
from repro.permissions import Perm
from repro.service import (ServiceParams, batch_boundaries, build_plan,
                           generate_request_columns, generate_service_trace)
from repro.service.arrivals import pattern_by_name


class TestChurnPattern:
    def test_window_rotates_with_time(self):
        params = ServiceParams(n_clients=16, pattern="churn",
                               churn_period_cycles=1000.0,
                               churn_active_fraction=0.25)
        churn = pattern_by_name("churn")
        first = churn.window(params, 0.0, 16)
        second = churn.window(params, 1000.0, 16)
        assert first == (0, 4)
        assert second == (4, 4)
        assert churn.window(params, 4000.0, 16) == first  # wraps around

    def test_remap_confines_clients_to_the_window(self):
        params = ServiceParams(n_clients=16, pattern="churn",
                               churn_period_cycles=1000.0,
                               churn_active_fraction=0.25)
        churn = pattern_by_name("churn")
        for now in (0.0, 1500.0, 3200.0):
            start, width = churn.window(params, now, 16)
            window = {(start + offset) % 16 for offset in range(width)}
            remapped = {churn.remap_client(params, now, client, 16)
                        for client in range(16)}
            assert remapped <= window

    def test_generated_stream_follows_the_rotation(self):
        params = ServiceParams(n_clients=16, n_requests=600,
                               pattern="churn",
                               churn_active_fraction=0.25)
        clients = set(generate_request_columns(params).clients.tolist())
        # More distinct clients than one window (the window moved), but
        # the stream is still confined to windows, never uniform.
        assert 4 <= len(clients) <= 16

    def test_early_stream_stays_in_the_first_window(self):
        params = ServiceParams(n_clients=16, n_requests=400,
                               pattern="churn",
                               churn_period_cycles=10_000_000.0,
                               churn_active_fraction=0.25)
        clients = set(generate_request_columns(params).clients.tolist())
        assert clients <= {0, 1, 2, 3}

    def test_churn_params_are_validated(self):
        with pytest.raises(ValueError):
            ServiceParams(churn_period_cycles=0.0)
        with pytest.raises(ValueError):
            ServiceParams(churn_active_fraction=0.0)
        with pytest.raises(ValueError):
            ServiceParams(churn_active_fraction=1.5)


class TestRevocationStorms:
    PARAMS = ServiceParams(n_clients=8, n_requests=120,
                           revoke_every_batches=4, revoke_fraction=0.5)

    def test_storm_params_are_validated(self):
        with pytest.raises(ValueError):
            ServiceParams(revoke_every_batches=-1)
        with pytest.raises(ValueError):
            ServiceParams(revoke_fraction=0.0)
        with pytest.raises(ValueError):
            ServiceParams(revoke_fraction=2.0)

    def test_storms_add_none_permission_sweeps(self):
        calm = dataclasses.replace(self.PARAMS, revoke_every_batches=0)
        stormy_trace, _ = generate_service_trace(self.PARAMS)
        calm_trace, _ = generate_service_trace(calm)

        def revocations(trace):
            return sum(1 for event in trace.events
                       if event[0] == PERM and event[4] == int(Perm.NONE))

        plan = build_plan(self.PARAMS)
        storms = plan.columns.n_batches // self.PARAMS.revoke_every_batches
        swept = max(1, round(self.PARAMS.n_clients
                             * self.PARAMS.revoke_fraction))
        assert revocations(stormy_trace) \
            == revocations(calm_trace) + storms * swept

    def test_batch_boundaries_ignore_storm_revocations(self):
        # Storm sweeps close no open window, so the marker count must
        # still equal the plan's batch count — the accounting contract.
        trace, _ = generate_service_trace(self.PARAMS)
        assert len(batch_boundaries(trace)) \
            == build_plan(self.PARAMS).columns.n_batches

    def test_storms_change_the_cache_key_but_defaults_do_not(self):
        from repro.engine.job import WorkloadSpec
        plain = WorkloadSpec.service(n_clients=8, n_requests=120)
        stormy = WorkloadSpec.service(n_clients=8, n_requests=120,
                                      revoke_every_batches=4)
        explicit_default = WorkloadSpec.service(n_clients=8, n_requests=120,
                                                revoke_every_batches=0)
        assert stormy.cache_key() != plain.cache_key()
        assert explicit_default.cache_key() == plain.cache_key()

    def test_storms_are_deterministic(self):
        first, _ = generate_service_trace(self.PARAMS)
        second, _ = generate_service_trace(self.PARAMS)
        assert first.events == second.events

    def test_multi_worker_storms_keep_the_marker_contract(self):
        params = dataclasses.replace(self.PARAMS, workers=3, quantum=2)
        trace, _ = generate_service_trace(params)
        assert len(batch_boundaries(trace)) \
            == build_plan(params).columns.n_batches
