"""Parameter validation and the nominal service-cost model."""

import dataclasses

import pytest

from repro.service import ServiceParams, nominal_request_cycles


class TestValidation:
    def test_defaults_are_valid(self):
        ServiceParams()

    @pytest.mark.parametrize("field, value", [
        ("arrival", "poisson"),
        ("batching", "domain"),
        ("n_clients", 0),
        ("batch_limit", 0),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            ServiceParams(**{field: value})

    def test_quantum_below_one_fails_at_construction(self):
        # Used to pass validation and fail only inside the round-robin
        # scheduler at trace generation.
        with pytest.raises(ValueError, match="quantum"):
            ServiceParams(workers=2, quantum=0)
        with pytest.raises(ValueError, match="quantum"):
            ServiceParams(quantum=-1)

    @pytest.mark.parametrize("kwargs", [
        dict(read_words=0, stack_per_request=0),
        dict(read_words=0, stack_per_request=0, shared_words=3),
    ])
    def test_requests_without_events_are_rejected(self, kwargs):
        with pytest.raises(ValueError, match="read_words"):
            ServiceParams(**kwargs)

    def test_one_shared_word_is_enough_events(self):
        ServiceParams(read_words=0, stack_per_request=0, shared_domains=1,
                      shared_words=1)

    def test_frozen(self):
        params = ServiceParams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.n_clients = 128


class TestScaling:
    def test_scaled_multiplies_requests(self):
        params = ServiceParams(n_requests=1000)
        assert params.scaled(0.5).n_requests == 500
        assert params.scaled(3.0).n_requests == 3000

    def test_scaled_floors_at_one_request(self):
        assert ServiceParams(n_requests=10).scaled(0.0).n_requests == 1

    def test_scaled_touches_nothing_else(self):
        params = ServiceParams(n_clients=32, seed=11)
        scaled = params.scaled(2.0)
        assert dataclasses.replace(scaled, n_requests=params.n_requests) \
            == params


class TestNominalCost:
    def test_grows_with_compute(self):
        cheap = ServiceParams(compute_per_request=100)
        dear = ServiceParams(compute_per_request=1000)
        assert nominal_request_cycles(dear) > nominal_request_cycles(cheap)

    def test_write_words_weighted_by_write_fraction(self):
        reads = ServiceParams(read_fraction=1.0, write_words=100)
        writes = ServiceParams(read_fraction=0.0, write_words=100)
        assert nominal_request_cycles(writes) > nominal_request_cycles(reads)

    def test_default_load_is_past_saturation(self):
        # The default open-loop interarrival sits below the nominal
        # service cost on purpose: queues must build for batching and
        # admission control to have anything to do.
        params = ServiceParams()
        assert params.interarrival_cycles < nominal_request_cycles(params)
