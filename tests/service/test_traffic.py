"""Traffic-generation determinism and distributional properties."""

from collections import Counter

import pytest

from repro.service import ServiceParams

from .legacy import generate_requests


class TestDeterminism:
    @pytest.mark.parametrize("arrival", ["open", "closed"])
    def test_same_params_identical_stream(self, arrival):
        params = ServiceParams(n_clients=16, n_requests=300, arrival=arrival)
        assert generate_requests(params) == generate_requests(params)

    def test_seed_changes_the_stream(self):
        base = ServiceParams(n_clients=16, n_requests=300)
        import dataclasses
        other = dataclasses.replace(base, seed=base.seed + 1)
        assert generate_requests(base) != generate_requests(other)


class TestOpenLoop:
    def test_sorted_arrivals_and_dense_rids(self):
        params = ServiceParams(n_clients=8, n_requests=200)
        stream = generate_requests(params)
        assert [request.rid for request in stream] == list(range(200))
        arrivals = [request.arrival for request in stream]
        assert arrivals == sorted(arrivals)
        assert all(arrival > 0 for arrival in arrivals)

    def test_mean_interarrival_tracks_the_knob(self):
        params = ServiceParams(n_clients=8, n_requests=2000,
                               interarrival_cycles=500.0)
        stream = generate_requests(params)
        mean = stream[-1].arrival / len(stream)
        assert mean == pytest.approx(500.0, rel=0.15)

    def test_zipf_skews_toward_hot_clients(self):
        params = ServiceParams(n_clients=32, n_requests=2000, zipf=0.9)
        counts = Counter(r.client for r in generate_requests(params))
        uniform_share = params.n_requests / params.n_clients
        assert max(counts.values()) > 2 * uniform_share

    def test_zipf_zero_is_roughly_uniform(self):
        params = ServiceParams(n_clients=8, n_requests=4000, zipf=0.0)
        counts = Counter(r.client for r in generate_requests(params))
        assert len(counts) == 8
        assert max(counts.values()) < 2 * min(counts.values())

    @pytest.mark.parametrize("read_fraction, expect_writes",
                             [(1.0, False), (0.0, True)])
    def test_read_fraction_extremes(self, read_fraction, expect_writes):
        params = ServiceParams(n_clients=4, n_requests=200,
                               read_fraction=read_fraction)
        writes = [r.is_write for r in generate_requests(params)]
        assert all(writes) if expect_writes else not any(writes)


class TestClosedLoop:
    def test_one_outstanding_request_per_client(self):
        params = ServiceParams(n_clients=6, n_requests=300, arrival="closed")
        stream = generate_requests(params)
        assert len(stream) == 300
        per_client = {}
        for request in stream:
            per_client.setdefault(request.client, []).append(request.arrival)
        # Every client participates and its arrivals strictly increase
        # (the next request is only issued after the previous completes).
        assert set(per_client) == set(range(6))
        for arrivals in per_client.values():
            assert arrivals == sorted(arrivals)
            assert len(set(arrivals)) == len(arrivals)

    def test_sorted_by_arrival(self):
        params = ServiceParams(n_clients=6, n_requests=300, arrival="closed")
        arrivals = [r.arrival for r in generate_requests(params)]
        assert arrivals == sorted(arrivals)
