"""Differential suite: the columnar pipeline vs. the legacy per-object
loops it replaced.

Three layers of equivalence, each pinned bit-for-bit:

* **traffic** — :func:`generate_request_columns` against verbatim copies
  of the pre-streaming scalar generators (per-request ``rng`` calls,
  heap-of-tuples closed loop, post-hoc sort), across both disciplines ×
  every rate pattern × several seeds;
* **emission order** — the closed loop's deleted ``requests.sort(...)``
  really was a no-op: pops never decrease in time and rids increase in
  pop order, so the emitted stream is already sorted by
  ``(arrival, rid)``;
* **planning / serving** — the columnar planner makes the object
  planner's decisions, and the streamed columnar server emits
  event-for-event the same trace as the recorder serve, both held
  verbatim in :mod:`tests.service.legacy` (complementing the golden
  hashes in ``tests/service/test_golden_traces.py``; the full policy ×
  loop × workers matrix is ``tests/service/test_planner_oracle.py``).
"""

import heapq
import random

import numpy as np
import pytest

from repro.service import ServiceParams, build_plan
from repro.service.params import nominal_request_cycles
from repro.service.server import ServiceWorkload
from repro.service.traffic import (arrival_gap, generate_request_columns,
                                   think_gap)
from repro.workloads.micro import ZipfSampler
from repro.service.arrivals import pattern_by_name

from . import legacy
from .legacy import Request
from .test_planner_oracle import legacy_signature, plan_signature


# ---------------------------------------------------------------------------
# Verbatim pre-streaming generators (the scalar reference).

def _legacy_open_loop(params, rng):
    sampler = ZipfSampler(params.n_clients, params.zipf, rng)
    pattern = pattern_by_name(params.pattern)
    clock = 0.0
    requests = []
    for rid in range(params.n_requests):
        clock += arrival_gap(params, rng, clock)
        client = pattern.remap_client(params, clock, sampler.sample(),
                                      params.n_clients)
        requests.append(Request(
            rid=rid, client=client, arrival=clock,
            is_write=rng.random() >= params.read_fraction))
    return requests


def _legacy_closed_loop(params, rng):
    service = nominal_request_cycles(params)
    pending = [(think_gap(params, rng, 0.0), client)
               for client in range(params.n_clients)]
    heapq.heapify(pending)
    server_free = 0.0
    requests = []
    for rid in range(params.n_requests):
        arrival, client = heapq.heappop(pending)
        requests.append(Request(
            rid=rid, client=client, arrival=arrival,
            is_write=rng.random() >= params.read_fraction))
        completion = max(server_free, arrival) + service
        server_free = completion
        heapq.heappush(
            pending,
            (completion + think_gap(params, rng, completion), client))
    requests.sort(key=lambda request: (request.arrival, request.rid))
    return requests


LEGACY = {"open": _legacy_open_loop, "closed": _legacy_closed_loop}

PATTERNS = ["poisson", "burst", "diurnal", "churn", "waves"]


def _assert_stream_equal(cols, legacy):
    assert len(cols) == len(legacy)
    assert cols.rids.tolist() == [r.rid for r in legacy]
    assert cols.clients.tolist() == [r.client for r in legacy]
    # Bit-identical floats, not approximately equal.
    assert cols.arrivals.tolist() == [r.arrival for r in legacy]
    assert cols.is_write.tolist() == [r.is_write for r in legacy]


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("arrival", ["open", "closed"])
def test_columns_equal_legacy_stream(arrival, pattern, seed):
    params = ServiceParams(n_clients=12, n_requests=300, arrival=arrival,
                           pattern=pattern, seed=seed)
    cols = generate_request_columns(params)
    legacy = LEGACY[arrival](params, random.Random(params.seed))
    _assert_stream_equal(cols, legacy)


@pytest.mark.parametrize("kwargs", [
    dict(zipf=0.0),
    dict(read_fraction=0.0),
    dict(read_fraction=1.0),
    dict(n_clients=1),
    dict(n_requests=1),
    dict(n_requests=0),
])
def test_columns_equal_legacy_stream_edges(kwargs):
    for arrival in ("open", "closed"):
        merged = {"n_clients": 6, "n_requests": 80, "arrival": arrival,
                  **kwargs}
        params = ServiceParams(**merged)
        cols = generate_request_columns(params)
        legacy = LEGACY[arrival](params, random.Random(params.seed))
        _assert_stream_equal(cols, legacy)


def test_generate_requests_object_view_matches():
    params = ServiceParams(n_clients=8, n_requests=120)
    assert legacy.generate_requests(params) == \
        _legacy_open_loop(params, random.Random(params.seed))


@pytest.mark.parametrize("pattern", PATTERNS)
def test_closed_loop_emission_already_sorted(pattern):
    """The deleted post-hoc sort was a no-op: every next-issue time
    pushed back exceeds the arrival just popped, so pop times never
    decrease, and rids increase in pop order — the emitted stream is
    already sorted by ``(arrival, rid)``."""
    params = ServiceParams(n_clients=16, n_requests=500, arrival="closed",
                           pattern=pattern)
    cols = generate_request_columns(params)
    arrivals = cols.arrivals
    assert np.all(arrivals[1:] >= arrivals[:-1])
    assert cols.rids.tolist() == sorted(
        range(len(cols)),
        key=lambda i: (arrivals[i], cols.rids[i]))


def test_request_columns_round_trip():
    params = ServiceParams(n_clients=8, n_requests=64)
    cols = generate_request_columns(params)
    objects = legacy.to_requests(cols)
    back = legacy.from_requests(objects)
    _assert_stream_equal(back, objects)
    assert legacy.to_requests(cols, rows=[3, 1]) == [objects[3], objects[1]]


# ---------------------------------------------------------------------------
# Planner and streamed server vs. the retired object paths.

SERVE_CASES = {
    "default": dict(n_clients=8, n_requests=150),
    "workers": dict(n_clients=12, n_requests=200, workers=3),
    "quantum1": dict(n_clients=12, n_requests=200, workers=4, quantum=1),
    "storms": dict(n_clients=8, n_requests=150, revoke_every_batches=4,
                   revoke_fraction=0.5),
    "shared": dict(n_clients=8, n_requests=150, shared_domains=2,
                   shared_words=4),
    "closed": dict(n_clients=6, n_requests=100, arrival="closed"),
    "no-batching": dict(n_clients=8, n_requests=150, batching="none"),
    "multipage": dict(n_clients=4, n_requests=40, read_words=700,
                      write_words=10, secret_size=8192, pool_size=1 << 16),
}


@pytest.mark.parametrize("name", sorted(SERVE_CASES))
def test_plan_columns_equal_object_plan(name):
    """The columnar planner packs exactly the batches (members, clients,
    worker slots, rejections, iteration count) the verbatim object
    planner packs."""
    params = ServiceParams(**SERVE_CASES[name])
    assert plan_signature(build_plan(params)) == \
        legacy_signature(legacy.build_plan(params))


@pytest.mark.parametrize("name", sorted(SERVE_CASES))
def test_streamed_serve_equals_recorder_serve(name):
    """The chunked columnar emitter produces event-for-event the same
    trace (columns, layout, instruction count) as the per-event
    recorder serve."""
    params = ServiceParams(**SERVE_CASES[name])
    plan = build_plan(params)

    streamed_ws = ServiceWorkload(params)
    streamed_ws.serve(plan)
    streamed = streamed_ws.finish()

    object_ws = ServiceWorkload(params)
    legacy.serve_objects(object_ws, plan)
    recorded = object_ws.finish()

    a, b = streamed.columns, recorded.columns
    assert a.kinds.tolist() == b.kinds.tolist()
    assert a.tids.tolist() == b.tids.tolist()
    assert a.icounts.tolist() == b.icounts.tolist()
    assert a.operand_a.tolist() == b.operand_a.tolist()
    assert a.operand_b.tolist() == b.operand_b.tolist()
    assert streamed.total_instructions == recorded.total_instructions
    assert streamed.layout.ptes == recorded.layout.ptes
    assert streamed.layout.n_threads == recorded.layout.n_threads
