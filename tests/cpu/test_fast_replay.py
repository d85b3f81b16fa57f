"""Differential suite: the replay engine vs the reference interpreter.

The array-backed engine (``repro.cpu.fast_timing``) is an optimization,
not a model change — for every scheme and every trace it must produce
**bit-identical** ``RunStats`` (cycles, buckets, counters, marks,
metrics) to the reference interpreter (``tests/oracle.py``).  These
tests replay real generated traces (micro multi-pool, a datastructure
bench, the multi-tenant service) under both engines and diff the full
result, including the exact float bit patterns of the cycle totals —
and, with event tracing on, every record the two engines emit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.schemes import scheme_by_name
from repro.cpu.fast_timing import (FastReplayEngine, kernel_for,
                                   run_tails, supports_fast_replay)
from repro.engine.context import ReplayContext, replay_one
from repro.errors import PkeyError, ProtectionFault, SimulationError
from repro.permissions import Perm
from repro.sim.config import DEFAULT_CONFIG, apply_override
from repro.sim.stats import RunStats
from repro.workloads.base import UnprotectedPolicy, Workspace
from repro.workloads.micro import MicroParams, generate_micro_trace

from ..oracle import ReferenceEngine

SCHEMES = ("baseline", "lowerbound", "mpk", "mpk_virt", "libmpk",
           "domain_virt", "erim", "pks_seal", "dpti", "poe2")
#: The schemes whose permission checks can fail.
ENFORCING = tuple(s for s in SCHEMES if s not in ("baseline", "lowerbound"))

#: Hard-limited schemes that cannot attach one key per tenant at the
#: service trace's scale — the wall is the paper's point, so they are
#: exercised on the micro/datastructure traces instead.
KEY_LIMITED = ("mpk",)


@pytest.fixture(scope="module")
def micro_trace():
    # Multi-pool red-black tree: the paper's headline configuration
    # (8 pools keeps default MPK inside its 15-key budget).
    trace, _ = generate_micro_trace(MicroParams(
        benchmark="rbt", n_pools=8, initial_nodes=24, operations=80))
    return trace


@pytest.fixture(scope="module")
def datastructure_trace():
    trace, _ = generate_micro_trace(MicroParams(
        benchmark="avl", n_pools=4, initial_nodes=24, operations=60))
    return trace


@pytest.fixture(scope="module")
def wide_avl_trace():
    # 64 pools: past every key space, so mpk_virt and libmpk evict, mpk
    # and erim run out of keys, and domain_virt's PTLB misses.
    trace, _ = generate_micro_trace(MicroParams(
        benchmark="avl", n_pools=64, operations=300, seed=7))
    return trace


@pytest.fixture(scope="module")
def ll_trace():
    # 11,834 events over a 16-pool linked list.
    trace, _ = generate_micro_trace(MicroParams(
        benchmark="ll", n_pools=16, operations=200, seed=7))
    return trace


@pytest.fixture(scope="module")
def service_trace():
    from repro.service.params import ServiceParams
    from repro.service.server import generate_service_trace
    trace, _ = generate_service_trace(ServiceParams(
        n_clients=10, n_requests=120))
    return trace


@pytest.fixture(scope="module")
def closed_service_trace():
    # A scheme-keyed closed-loop schedule under bursty arrivals — the
    # dispatch-simulation refactor's new trace shape (and the traces
    # keyed service runs replay).
    from repro.service.closed import generate_service_trace_keyed
    from repro.service.params import ServiceParams
    trace, _ = generate_service_trace_keyed(
        ServiceParams(n_clients=6, n_requests=100, arrival="closed",
                      dispatch="replay", pattern="burst"),
        "domain_virt")
    return trace


@pytest.fixture(scope="module")
def storm_trace():
    # Two workers (context switches) and revocation storms.
    from repro.service.params import ServiceParams
    from repro.service.server import generate_service_trace
    trace, _ = generate_service_trace(ServiceParams(
        n_clients=12, n_requests=120, workers=2, revoke_every_batches=3))
    return trace


def violating_trace():
    # An uninstrumented write: every enforcing scheme must fault.
    ws = Workspace(seed=5)
    handle = ws.create_and_attach("p0", 8 << 20)
    oid = handle.pool.pmalloc(64)
    ws.mem.write_u64(oid, 0, 1)
    return ws.finish()


def one_page_trace(accesses, window, *, intent=Perm.RW, mapped=True):
    """``accesses`` — ``(kind, offset)`` pairs — on one page of a PMO
    attached with page permission ``intent``, after a SETPERM that
    opens the domain to ``window`` (none when ``window`` is None).
    Unless ``mapped`` is False, the recording maps the page."""
    ws = Workspace(UnprotectedPolicy(), seed=6)
    pool = ws.create_and_attach("page", 1 << 20, intent=intent)
    with ws.untraced():
        oid = pool.pool.pmalloc(4096, align=4096)
        if mapped:
            # Map the page while recording, as a generated trace's
            # pages are.
            ws.mem.write_bytes(oid, 0, bytes(8))
    base = pool.va_of(oid)
    recorder = ws.recorder
    if window is not None:
        recorder.perm(ws.tid, pool.domain, window)
    for kind, offset in accesses:
        getattr(recorder, kind)(ws.tid, base + offset)
    return ws.finish()


def _engine(engine_class, trace, scheme, config=DEFAULT_CONFIG):
    """An engine of ``engine_class`` over a fresh context of ``trace``."""
    context = ReplayContext.from_trace(trace)
    return engine_class(config, context.kernel, context.process,
                        scheme_by_name(scheme),
                        attach_info=context.attach_info)


def _replay_both(trace, scheme, *, marks=None, config=DEFAULT_CONFIG):
    """The reference interpreter's result and the engine's, through
    ``replay_one``."""
    ref = _engine(ReferenceEngine, trace, scheme, config).run(
        trace, marks=marks)
    fast = replay_one(trace, scheme, config, marks=marks)
    return ref, fast


def _outcome(engine_class, trace, scheme, config, marks):
    """One replay's RunStats (floats as repr), the error it raised with
    a fault's fields, and its TLB/cache level counters — the aborted
    prefix's, when the replay faulted."""
    engine = _engine(engine_class, trace, scheme, config)
    error = None
    try:
        engine.run(trace, marks=marks)
    except (PkeyError, ProtectionFault) as exc:
        error = (type(exc), str(exc),
                 *(getattr(exc, attr, None)
                   for attr in ("vaddr", "domain", "thread", "is_write")))
    stats = engine.stats
    return (repr(stats.cycles),
            {k: repr(v) for k, v in stats.buckets.items()},
            [repr(c) for c in stats.mark_cycles or ()],
            dataclasses.asdict(stats), error,
            TestProtectionFaultParity._level_counters(engine))


def _enforcing(enforce):
    """The default config with protection enforced or not."""
    return DEFAULT_CONFIG.with_overrides(enforce_protection=enforce)


def _assert_same_outcome(trace, scheme, *, marks=None,
                         config=DEFAULT_CONFIG):
    ref = _outcome(ReferenceEngine, trace, scheme, config, marks)
    fast = _outcome(FastReplayEngine, trace, scheme, config, marks)
    assert ref == fast


def _assert_identical(ref, fast):
    # repr() equality first: catches any last-bit float drift that a
    # plain == would also catch, but with a readable diff on failure.
    assert repr(ref.cycles) == repr(fast.cycles)
    assert {k: repr(v) for k, v in ref.buckets.items()} == \
        {k: repr(v) for k, v in fast.buckets.items()}
    assert dataclasses.asdict(ref) == dataclasses.asdict(fast)


class TestRefusal:
    """A scheme without a CostDescriptor has no kernel family: building
    its engine fails at once, naming the scheme."""

    def _undeclared_scheme(self):
        from repro.core.schemes import ProtectionScheme

        class BespokeScheme(ProtectionScheme):
            name = "bespoke_test_scheme"
            cost = None  # no descriptor -> no kernel family

        return BespokeScheme

    def test_every_registered_scheme_has_a_kernel(self):
        for scheme in SCHEMES:
            if scheme == "baseline":
                continue
            assert supports_fast_replay(DEFAULT_CONFIG,
                                        scheme_by_name(scheme)), scheme

    def test_engine_refuses_a_descriptorless_scheme(self):
        ws = Workspace(seed=3)
        with pytest.raises(ValueError, match="bespoke_test_scheme"):
            FastReplayEngine(DEFAULT_CONFIG, ws.kernel, ws.process,
                             self._undeclared_scheme())

    def test_replay_one_refuses_a_descriptorless_scheme(self, monkeypatch,
                                                        micro_trace):
        from repro.core.schemes import SCHEMES as REGISTRY
        cls = self._undeclared_scheme()
        monkeypatch.setitem(REGISTRY._plugins, cls.name, cls)
        with pytest.raises(ValueError, match="bespoke_test_scheme"):
            replay_one(micro_trace, cls.name)


class TestBitIdenticalReplay:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_micro(self, micro_trace, scheme):
        ref, fast = _replay_both(micro_trace, scheme)
        _assert_identical(ref, fast)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_datastructure(self, datastructure_trace, scheme):
        ref, fast = _replay_both(datastructure_trace, scheme)
        _assert_identical(ref, fast)

    @pytest.mark.parametrize("scheme",
                             [s for s in SCHEMES if s not in KEY_LIMITED])
    def test_service(self, service_trace, scheme):
        # Default MPK cannot attach one key per tenant at this scale —
        # that wall is the paper's point, so mpk is exercised on the
        # micro/datastructure traces instead.  erim's 16-key budget
        # still covers the fixture's 10 tenants, so it stays in.
        ref, fast = _replay_both(service_trace, scheme)
        _assert_identical(ref, fast)

    @pytest.mark.parametrize("override", (
        ("domain_virt.ptlb_miss_cycles", 30.1),
        ("domain_virt.ptlb_entry_change_cycles", 1.3),
        ("mpk.wrpkru_cycles", 27.7),
        ("domain_virt.ptlb_access_cycles", 1.5)))
    def test_fractional_dv_charges(self, wide_avl_trace, override):
        # Batching PTLB hits as one n*c after the charges made meanwhile
        # rounds differently once any charge is fractional, so the dv
        # walker then books every hit on its own, in the reference order.
        config = apply_override(DEFAULT_CONFIG, *override)
        assert kernel_for(config, scheme_by_name("domain_virt")) == "dv"
        ref, fast = _replay_both(wide_avl_trace, "domain_virt",
                                 config=config)
        _assert_identical(ref, fast)

    @pytest.mark.parametrize("scheme", ("baseline", "domain_virt",
                                        "mpk_virt", "libmpk"))
    def test_cache_latency_overrides(self, micro_trace, scheme):
        # The engine charges config.cache's latencies, the reference
        # interpreter its dict levels': both follow the replayed config.
        config = apply_override(DEFAULT_CONFIG, "cache.l1_latency", 3)
        config = apply_override(config, "cache.l2_latency", 13)
        ref, fast = _replay_both(micro_trace, scheme, config=config)
        _assert_identical(ref, fast)
        assert fast.cycles != replay_one(micro_trace, scheme).cycles

    def test_dv_declares_every_charge(self, wide_avl_trace, monkeypatch):
        # The dv walker's per-hit rule checks only the charges the scheme
        # declares; one booked outside charge_cycles would escape that
        # check.  With a distinct value per field, every booked charge
        # names its field.
        config = DEFAULT_CONFIG
        for override in (("mpk.wrpkru_cycles", 27.25),
                         ("domain_virt.ptlb_access_cycles", 1.5),
                         ("domain_virt.ptlb_miss_cycles", 30.75),
                         ("domain_virt.ptlb_entry_change_cycles", 1.125)):
            config = apply_override(config, *override)
        booked = set()
        charge = RunStats.charge

        def record(stats, bucket, cycles):
            booked.add(cycles)
            charge(stats, bucket, cycles)

        monkeypatch.setattr(RunStats, "charge", record)
        _engine(ReferenceEngine, wide_avl_trace, "domain_virt",
                config).run(wide_avl_trace)
        declared = scheme_by_name("domain_virt").charge_cycles(config)
        assert booked == set(declared)


class TestMarks:
    @pytest.mark.parametrize("scheme", ("baseline", "domain_virt",
                                        "mpk_virt", "libmpk", "erim",
                                        "pks_seal", "dpti", "poe2"))
    def test_mark_cycles_identical(self, micro_trace, scheme):
        n = len(micro_trace)
        marks = [0, 1, n // 3, n // 2, n - 1]
        ref, fast = _replay_both(micro_trace, scheme, marks=marks)
        assert ref.mark_cycles is not None
        assert [repr(c) for c in ref.mark_cycles] == \
            [repr(c) for c in fast.mark_cycles]
        _assert_identical(ref, fast)


    @pytest.mark.parametrize("scheme", ("baseline", "domain_virt",
                                        "mpk_virt", "libmpk", "pks_seal",
                                        "dpti", "poe2"))
    def test_marked_closed_loop_service(self, closed_service_trace, scheme):
        # The marks the service accounting consumes: every batch's
        # window-close boundary, on the keyed closed-loop trace.
        from repro.service.server import batch_boundaries
        marks = batch_boundaries(closed_service_trace)
        assert marks
        ref, fast = _replay_both(closed_service_trace, scheme, marks=marks)
        assert [repr(c) for c in ref.mark_cycles] == \
            [repr(c) for c in fast.mark_cycles]
        _assert_identical(ref, fast)

    @pytest.mark.parametrize("engine_class", (ReferenceEngine,
                                              FastReplayEngine))
    @pytest.mark.parametrize("scheme", ("mpk_virt", "domain_virt"))
    @pytest.mark.parametrize("marks, message", (
        ([5917, 2958], "mark 1 is 2958, below 5917"),
        ([-1, 5917], "mark 0 is -1, below 0")))
    def test_refuses_descending_and_negative_marks(self, ll_trace,
                                                   engine_class, scheme,
                                                   marks, message):
        # Taken, the descending pair would have the reference replay
        # events 2,958-5,916 twice, and the negative mark would index
        # the engine's fold from its end.
        with pytest.raises(SimulationError, match=message):
            _engine(engine_class, ll_trace, scheme).run(ll_trace,
                                                        marks=marks)

    @pytest.mark.parametrize("scheme", ("baseline", "domain_virt",
                                        "mpk_virt", "libmpk"))
    def test_equal_marks_and_marks_past_the_end(self, ll_trace, scheme):
        n = len(ll_trace)
        marks = [0, 2958, 2958, 5917, n, n + 5, n + 5]
        ref, fast = _replay_both(ll_trace, scheme, marks=marks)
        assert [repr(c) for c in ref.mark_cycles] == \
            [repr(c) for c in fast.mark_cycles]
        assert fast.mark_cycles[1] == fast.mark_cycles[2]
        assert fast.mark_cycles[-3:] == [fast.cycles] * 3
        _assert_identical(ref, fast)


class TestOneWalk:
    """A replay enters its walker once, whatever its marks."""

    @pytest.mark.parametrize("cut", ("none", "one", "batches"))
    @pytest.mark.parametrize("scheme", ("baseline", "domain_virt",
                                        "mpk_virt", "libmpk"))
    def test_one_walker_entry_per_replay(self, monkeypatch, storm_trace,
                                         scheme, cut):
        from repro.service.server import batch_boundaries
        entries = []
        for name in ("_walk_live", "_walk_stream"):
            def counted(engine, walk=getattr(FastReplayEngine, name)):
                entries.append(walk)
                return walk(engine)
            monkeypatch.setattr(FastReplayEngine, name, counted)
        marks = {"none": None, "one": [len(storm_trace) // 2],
                 "batches": batch_boundaries(storm_trace)}[cut]
        replay_one(storm_trace, scheme, marks=marks)
        assert len(entries) == 1

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), scheme=st.sampled_from(SCHEMES))
    def test_marks_ascend_to_the_total(self, storm_trace, data, scheme):
        n = len(storm_trace)
        stats = replay_one(storm_trace, scheme, _charged(data, True),
                           marks=_marks(data, storm_trace) + [n])
        snapshots = stats.mark_cycles
        assert snapshots[-1] == stats.cycles
        assert all(a <= b for a, b in zip(snapshots, snapshots[1:]))


class TestMetricsParity:
    @pytest.mark.parametrize("scheme", ("domain_virt", "mpk_virt",
                                        "libmpk", "pks_seal", "poe2"))
    def test_harvested_metrics_match(self, monkeypatch, micro_trace,
                                     scheme):
        from repro import obs
        monkeypatch.setenv("REPRO_METRICS", "1")
        obs.reset()
        try:
            ref, fast = _replay_both(micro_trace, scheme)
        finally:
            monkeypatch.delenv("REPRO_METRICS")
            obs.reset()
        assert ref.metrics is not None
        assert fast.metrics is not None
        assert ref.metrics == fast.metrics
        assert repr(ref.cycles) == repr(fast.cycles)


class TestProtectionFaultParity:
    @pytest.mark.parametrize("scheme", ("domain_virt", "mpk_virt",
                                        "libmpk", "mpk", "erim",
                                        "pks_seal", "dpti", "poe2"))
    def test_same_fault(self, scheme):
        trace = violating_trace()
        with pytest.raises(ProtectionFault) as ref:
            _engine(ReferenceEngine, trace, scheme).run(trace)
        with pytest.raises(ProtectionFault) as fast:
            replay_one(trace, scheme)
        assert str(ref.value) == str(fast.value)
        for attr in ("vaddr", "domain", "thread", "is_write"):
            assert getattr(ref.value, attr) == getattr(fast.value, attr)
        # The aborted replay's counters cover exactly the faulting
        # prefix under both engines: RunStats and every TLB/cache level.
        ref_engine = self._faulted_engine(trace, scheme, ReferenceEngine)
        fast_engine = self._faulted_engine(trace, scheme, FastReplayEngine)
        assert isinstance(fast_engine, FastReplayEngine)
        assert not isinstance(ref_engine, FastReplayEngine)
        assert dataclasses.asdict(ref_engine.stats) == \
            dataclasses.asdict(fast_engine.stats)
        assert self._level_counters(ref_engine) == \
            self._level_counters(fast_engine)

    @staticmethod
    def _faulted_engine(trace, scheme, engine_class):
        engine = _engine(engine_class, trace, scheme)
        with pytest.raises(ProtectionFault):
            engine.run(trace)
        return engine

    @staticmethod
    def _level_counters(engine):
        levels = {"tlb.l1": engine.tlb.l1, "tlb.l2": engine.tlb.l2,
                  "cache.l1": engine.caches.l1, "cache.l2": engine.caches.l2}
        counters = {name: (level.hits, level.misses)
                    for name, level in levels.items()}
        counters["mem_accesses"] = engine.caches.mem_accesses
        return counters

    @pytest.mark.parametrize("scheme", ("domain_virt", "mpk_virt",
                                        "libmpk", "erim", "dpti"))
    def test_unenforced_run_identical(self, scheme):
        # With enforcement off the run completes, counting the faults —
        # and completed runs are bit-identical under both engines.
        trace = violating_trace()
        config = DEFAULT_CONFIG.with_overrides(enforce_protection=False)
        ref, fast = _replay_both(trace, scheme, config=config)
        assert ref.protection_faults > 0
        _assert_identical(ref, fast)


class TestRepeatedUse:
    def test_cached_analysis_is_stable(self, micro_trace):
        # The radiograph and penalty streams are cached on the trace's
        # column store; repeated replays must keep returning identical
        # results (no cross-replay state leak).
        first = replay_one(micro_trace, "domain_virt")
        second = replay_one(micro_trace, "domain_virt")
        _assert_identical(first, second)

    def test_context_reuse_matches_fresh_context(self, micro_trace):
        fresh = replay_one(micro_trace, "libmpk")
        context = ReplayContext.from_trace(micro_trace)
        rebuilt = context.replay(micro_trace, "libmpk")
        _assert_identical(fresh, rebuilt)


@pytest.fixture()
def ring(monkeypatch):
    """Event tracing into an in-memory ring large enough to keep every
    record of one replay."""
    monkeypatch.setenv("REPRO_EVENTS", "ring")
    monkeypatch.setenv("REPRO_EVENTS_BUFFER", str(1 << 20))
    obs.reset()
    yield
    obs.reset()


def _traced(engine_class, trace, scheme, marks=None, config=DEFAULT_CONFIG):
    """One replay in a fresh event trace: its records (without the
    wall-clock ``ts`` and ``pid``), its RunStats and the error it
    raised, if any."""
    obs.reset()
    engine = _engine(engine_class, trace, scheme, config)
    error = None
    try:
        engine.run(trace, marks=marks)
    except (PkeyError, ProtectionFault) as exc:
        error = (type(exc), str(exc))
    records = [{k: v for k, v in record.items() if k not in ("ts", "pid")}
               for record in obs.active_events().records()]
    return records, dataclasses.asdict(engine.stats), error


class TestEventParity:
    """Traced replays: the fast engine emits the reference's records,
    cycle stamps included, and keeps its RunStats."""

    @staticmethod
    def _assert_same_stream(trace, scheme, marks=None,
                            config=DEFAULT_CONFIG):
        ref = _traced(ReferenceEngine, trace, scheme, marks, config)
        fast = _traced(FastReplayEngine, trace, scheme, marks, config)
        assert ref[0] and ref[0][0]["kind"] == "replay.start"
        assert ref[0] == fast[0]
        assert ref[1:] == fast[1:]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_micro(self, ring, wide_avl_trace, scheme):
        self._assert_same_stream(wide_avl_trace, scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_marked_service(self, ring, storm_trace, scheme):
        from repro.service.server import batch_boundaries
        self._assert_same_stream(storm_trace, scheme,
                                 batch_boundaries(storm_trace))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_faulting(self, ring, scheme):
        self._assert_same_stream(violating_trace(), scheme)

    def test_fractional_dv_charges(self, ring, storm_trace):
        # Hits booked one by one keep every stamp's scheme charges.
        from repro.service.server import batch_boundaries
        config = apply_override(DEFAULT_CONFIG,
                                "domain_virt.ptlb_access_cycles", 1.5)
        config = apply_override(config, "domain_virt.ptlb_miss_cycles", 30.1)
        self._assert_same_stream(storm_trace, "domain_virt",
                                 batch_boundaries(storm_trace), config)

    def test_dv_pt_walk_stamps_are_distinct(self, ring, wide_avl_trace):
        # Each PTLB refill happens at its own simulated instant; a stamp
        # left over from an earlier TLB miss or cold event would repeat.
        stats = replay_one(wide_avl_trace, "domain_virt")
        stamps = [record["cycle"]
                  for record in obs.active_events().records()
                  if record["kind"] == "pt_walk"]
        assert len(stamps) == stats.ptlb_misses_count > 0
        assert len(set(stamps)) == len(stamps)


#: fetch->load, load->fetch, fetch->fetch and store->fetch on one line.
FETCH_MIX = (("fetch", 0), ("load", 8), ("load", 16), ("fetch", 24),
             ("fetch", 32), ("store", 40), ("fetch", 48), ("store", 56),
             ("load", 56))

#: One page run on a read-only page: loads on one line and the next,
#: then stores, a load, and a store on a third line.
READ_ONLY_RUN = (("load", 0), ("load", 8), ("load", 64), ("load", 72),
                 ("store", 80), ("store", 16), ("load", 24),
                 ("store", 128))


class TestFetchRuns:
    """A FETCH does not probe, so it heads a run of its own and the
    access after it heads the next one."""

    def test_every_fetch_is_a_head(self):
        trace = one_page_trace(FETCH_MIX, Perm.RW)
        page, line = run_tails(trace.columns)
        # ATTACH, PERM, then FETCH_MIX: only load 16 (after load 8) and
        # load 56 (after store 56) repeat an access's page and line.
        assert np.flatnonzero(page).tolist() == [4, 10]
        assert np.flatnonzero(line).tolist() == [4, 10]

    @pytest.mark.parametrize("enforce", (True, False))
    @pytest.mark.parametrize("window", (Perm.NONE, Perm.R, Perm.RW))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fetch_mix_matches_reference(self, scheme, window, enforce):
        _assert_same_outcome(one_page_trace(FETCH_MIX, window), scheme,
                             config=_enforcing(enforce))


#: Mark sets over an ``n``-event trace: none, one or two marks that cut
#: the run of ``one_page_trace(READ_ONLY_RUN, ...)``, and every index.
CUTS = {"none": lambda n: None, "one": lambda n: [5],
        "two": lambda n: [4, 7], "every": lambda n: list(range(n + 1))}


class TestTailFaults:
    """Faults on run tails: a read-only page sees loads, then stores,
    inside one run, with the domain opened read-write, read-only or
    not at all.  Marks cut the run once, twice or at every event."""

    @pytest.mark.parametrize("cut", CUTS)
    @pytest.mark.parametrize("enforce", (True, False))
    @pytest.mark.parametrize("window", (Perm.RW, Perm.R, Perm.NONE))
    @pytest.mark.parametrize("scheme", ENFORCING)
    def test_matches_reference(self, scheme, window, enforce, cut):
        trace = one_page_trace(READ_ONLY_RUN, window, intent=Perm.R)
        assert run_tails(trace.columns)[0][3:].all()  # one run
        _assert_same_outcome(trace, scheme, marks=CUTS[cut](len(trace)),
                             config=_enforcing(enforce))

    @pytest.mark.parametrize("cut", CUTS)
    @pytest.mark.parametrize("enforce", (True, False))
    def test_domainless_dv_run(self, enforce, cut):
        # Touched before its ATTACH, the page carries no domain in
        # domain_virt's TLB view: the run checks the page permission
        # alone, and gets a check record because its stores break it.
        trace = one_page_trace(READ_ONLY_RUN, None, intent=Perm.R)
        n = len(trace)
        trace = trace.subset(np.r_[1:n, 0])
        _assert_same_outcome(trace, "domain_virt", marks=CUTS[cut](n),
                             config=_enforcing(enforce))


def _marks(data, trace):
    """Ascending marks over ``trace``, about half of them on run tails."""
    n = len(trace)
    tails = np.flatnonzero(run_tails(trace.columns)[0]).tolist()
    index = st.one_of(st.integers(0, n), st.sampled_from(tails))
    return sorted(data.draw(st.lists(index, max_size=24)))


#: A cycle charge: an integer, or a fraction that keeps the dv walker
#: off its batched path.
CHARGE = st.one_of(st.integers(0, 40),
                   st.sampled_from((0.5, 1.5, 2.25, 27.7, 30.1)))


def _charged(data, enforce):
    """The default config, enforced or not, with domain_virt's PTLB
    access charge and the WRPKRU charge drawn."""
    config = apply_override(_enforcing(enforce),
                            "domain_virt.ptlb_access_cycles",
                            data.draw(CHARGE))
    return apply_override(config, "mpk.wrpkru_cycles", data.draw(CHARGE))


class TestRandomMarks:
    """Marks anywhere, inside runs included, on a served trace, on a
    64-pool micro trace and on random runs over a read-only page, with
    protection enforced and not; on the first two, charges are integers
    or fractions."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), scheme=st.sampled_from(SCHEMES),
           enforce=st.booleans())
    def test_served_trace(self, storm_trace, data, scheme, enforce):
        _assert_same_outcome(storm_trace, scheme,
                             marks=_marks(data, storm_trace),
                             config=_charged(data, enforce))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), scheme=st.sampled_from(SCHEMES),
           enforce=st.booleans())
    def test_wide_avl_trace(self, wide_avl_trace, data, scheme, enforce):
        _assert_same_outcome(wide_avl_trace, scheme,
                             marks=_marks(data, wide_avl_trace),
                             config=_charged(data, enforce))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), scheme=st.sampled_from(ENFORCING),
           window=st.sampled_from((Perm.RW, Perm.R, Perm.NONE)),
           enforce=st.booleans())
    def test_read_only_runs(self, data, scheme, window, enforce):
        # Loads, stores and fetches over four lines of one read-only
        # page: runs of every length, cut anywhere, with violating tails.
        access = st.tuples(st.sampled_from(("load", "store", "fetch")),
                           st.integers(0, 31).map(lambda w: 8 * w))
        accesses = data.draw(st.lists(access, min_size=1, max_size=16))
        trace = one_page_trace(accesses, window, intent=Perm.R)
        marks = sorted(data.draw(st.lists(st.integers(0, len(trace)),
                                          max_size=6)))
        _assert_same_outcome(trace, scheme, marks=marks,
                             config=_enforcing(enforce))


class TestDemandPaging:
    """A page the recording never mapped faults in at its first access,
    in trace order, under both engines: a SETPERM before that access
    must not see its PTE (libmpk's ``pkey_mprotect`` counts the mapped
    ones).  The first replay of a trace builds its radiograph, the
    second reuses it; both must match the reference."""

    @pytest.mark.parametrize("enforce", (True, False))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_first_and_second_replay_match_reference(self, scheme,
                                                      enforce):
        trace = one_page_trace((("load", 0), ("load", 8)), Perm.NONE,
                               mapped=False)
        page = int(trace.columns.operand_a[-1]) >> 12
        assert page not in {vpn for vpn, *_ in trace.layout.ptes}
        config = _enforcing(enforce)
        ref = _outcome(ReferenceEngine, trace, scheme, config, None)
        first = _outcome(FastReplayEngine, trace, scheme, config, None)
        second = _outcome(FastReplayEngine, trace, scheme, config, None)
        assert first == ref
        assert second == ref
