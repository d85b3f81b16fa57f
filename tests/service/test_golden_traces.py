"""Golden content-hash pins for service trace generation.

The hashes below were produced by the pre-streaming (PR 8) per-object
pipeline — ``Request`` dataclass loops in ``traffic.py``, the
``ServicePlan`` object walk in ``batching.py``, and per-event
``TraceRecorder`` appends in ``server.py``.  The streamed columnar
pipeline must reproduce every one of them byte for byte: same seeds →
same arrivals/clients/flags → same event columns → same layout → same
hash.  Because the engine's content-addressed trace cache keys traces by
params (``WorkloadSpec.content_hash``) and validates entries against the
stored columns, these pins are what guarantees pre-PR cache entries (and
any downstream golden numbers) survive the refactor.

The case matrix deliberately crosses every generation feature: both
arrival disciplines, all rate patterns, multi-worker round-robin
interleaving (including the quantum=1 edge where a thread's last turn
re-queues it just to die), revocation storms, shared read-only domains,
degenerate Zipf/write mixes, non-default seeds, multi-page requests that
page-fault at serve time, the slo_adaptive scheduling policy (object
plan path), an unbounded admission queue, and the keyed closed-loop
variant.
"""

import hashlib

import numpy as np
import pytest

from repro.service import ServiceParams, generate_service_trace
from repro.service.closed import generate_service_trace_keyed


def content_hash(trace):
    """Digest of everything replay consumes: columns, layout, icount."""
    cols = trace.columns
    h = hashlib.sha256()
    for arr, dt in ((cols.kinds, np.uint8), (cols.tids, np.uint32),
                    (cols.icounts, np.uint32),
                    (cols.operand_a, np.uint64),
                    (cols.operand_b, np.uint64)):
        h.update(np.ascontiguousarray(arr, dtype=dt).tobytes())
    h.update(repr(trace.layout.ptes).encode())
    h.update(str(trace.layout.n_threads).encode())
    h.update(str(trace.total_instructions).encode())
    return h.hexdigest()[:32]


# (params kwargs, pre-streaming hash, event count)
GOLDEN = {
    "open-poisson": (dict(n_clients=8, n_requests=150),
                     "54282a2cbd40e65c5017c5a340cd1c20", 1694),
    "open-burst": (dict(n_clients=8, n_requests=150, pattern="burst"),
                   "00de886da77232970f17421468095af1", 946),
    "open-diurnal": (dict(n_clients=8, n_requests=150, pattern="diurnal"),
                     "f3af092220b5d80b59420a7c49b5e269", 1682),
    "open-churn": (dict(n_clients=16, n_requests=200, pattern="churn"),
                   "611e0f29477408f37099c75914088de8", 2226),
    "open-waves": (dict(n_clients=16, n_requests=200, pattern="waves"),
                   "6981de5dcb4e7d36f83c6a2432049841", 1550),
    "closed-nominal": (dict(n_clients=6, n_requests=120, arrival="closed"),
                       "7074a63f922229db7991bebecf1cbe99", 1506),
    "closed-burst": (dict(n_clients=6, n_requests=120, arrival="closed",
                          pattern="burst"),
                     "7b09d7fc289db091e661db4337b3bde8", 1506),
    "workers4": (dict(n_clients=16, n_requests=200, workers=4),
                 "c37ae93f337c3fe15853892921dbb41c", 2601),
    "workers4-quantum1": (dict(n_clients=16, n_requests=200, workers=4,
                               quantum=1),
                          "52cfb7553c5507fb7f87c8bcef22cd93", 2752),
    "storms": (dict(n_clients=8, n_requests=150, revoke_every_batches=5,
                    revoke_fraction=0.5),
               "6f4755e7aa9f56356238d03f6d78e62b", 1742),
    "shared": (dict(n_clients=8, n_requests=150, shared_domains=3,
                    shared_words=4),
               "19d6f5da7b235367ac8e39395b24348c", 2300),
    "combined": (dict(n_clients=16, n_requests=200, workers=4,
                      revoke_every_batches=7, revoke_fraction=0.25,
                      shared_domains=2, shared_words=4, pattern="churn"),
                 "1b24ffc8189bc57592263ca2354f7dbf", 3523),
    "batching-none": (dict(n_clients=8, n_requests=150, batching="none"),
                      "1c829ba1cd1580fe52bdce39759fb9cf", 1874),
    "zipf0-writes": (dict(n_clients=8, n_requests=150, zipf=0.0,
                          read_fraction=0.0),
                     "af6ffbddf50e0c2e793c6b696b39f72c", 1944),
    "seed123": (dict(n_clients=8, n_requests=150, seed=123),
                "f03fd8c792eba3a98ac4fa3e7afc45dd", 1760),
    "multipage": (dict(n_clients=4, n_requests=60, read_words=700,
                       write_words=10, secret_size=8192,
                       pool_size=1 << 16),
                  "935452a589bcd7be293c71617496d68d", 42252),
    "slo-adaptive": (dict(n_clients=16, n_requests=300, workers=2,
                          pattern="churn", sched_policy="slo_adaptive",
                          slo_p99_cycles=20000.0, sched_epoch_batches=8),
                     "d297ea43682f90c50b451215e6cf6758", 3800),
    "unbounded": (dict(n_clients=8, n_requests=150, max_queue=0),
                  "54282a2cbd40e65c5017c5a340cd1c20", 1694),
    # Recorded while the object planner still ran every non-static
    # policy: weighted_fair's reordered heads on two workers.
    "weighted-fair": (dict(n_clients=16, n_requests=300, workers=2,
                           pattern="churn", sched_policy="weighted_fair"),
                      "c7de023be8cd7126f59401b1093f46f4", 3800),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_hash_pinned(name):
    kwargs, want_hash, want_events = GOLDEN[name]
    trace, _ws = generate_service_trace(ServiceParams(**kwargs))
    assert len(trace) == want_events
    assert content_hash(trace) == want_hash


def test_keyed_closed_loop_hash_pinned():
    trace, _ws = generate_service_trace_keyed(
        ServiceParams(n_clients=6, n_requests=80, arrival="closed",
                      dispatch="replay"),
        "domain_virt")
    assert len(trace) == 1000
    assert content_hash(trace) == "de050bb853ebecada9324628dd23f758"


def test_keyed_closed_loop_slo_adaptive_hash_pinned():
    """The closed feedback loop under slo_adaptive: queue-full rejects,
    SLO sheds (deferred retries) and epoch re-pins all shape the
    schedule.  Recorded while that loop still issued per-object
    requests."""
    trace, _ws = generate_service_trace_keyed(
        ServiceParams(n_clients=16, n_requests=150, workers=2,
                      arrival="closed", dispatch="replay", pattern="churn",
                      think_cycles=1000.0, max_queue=4,
                      sched_policy="slo_adaptive", slo_p99_cycles=500.0,
                      sched_epoch_batches=8),
        "mpk_virt")
    assert len(trace) == 805
    assert content_hash(trace) == "0481e75831d621969c15b73c0d00ebc3"


def test_unbounded_queue_matches_default_admission():
    """max_queue=0 only disables rejection; with none occurring the
    stream is identical (same hash as open-poisson above)."""
    assert GOLDEN["unbounded"][1] == GOLDEN["open-poisson"][1]
