"""Multi-core sharded replay: the differential anchors of MULTICORE.md.

Four contracts, asserted differentially:

* **workers=1 bit-identity** — the sharded path degenerates to the
  classic single-core replay: same shard object, same marks, and
  bit-identical ``RunStats`` (cycles, counters, mark_cycles) and
  ``ServiceSummary`` for every registered scheme;
* **shard-merge cycle conservation** — per-shard busy cycles sum to the
  merged totals, and every slot's busy time equals its shard's final
  mark clock;
* **the paper's headline contrast** — at ``workers > 1`` MPKV/libmpk
  report nonzero cross-core shootdown cycles (key remaps interrupt
  every core) while domain virtualization reports exactly zero;
* **keyed dispatch on several workers** — ``summaries_for_spec``'s
  per-scheme schedules, sharded, equal the hand-wired chain.
"""

import numpy as np
import pytest

from repro.cpu.trace import CTXSW, INIT_PERM
from repro.engine import Engine, TraceCache, WorkloadSpec, replay_one
from repro.errors import SimulationError
from repro.experiments.runner import ExperimentRunner
from repro.experiments.service import summaries_for_spec
from repro.service import (ServiceParams, account, account_sharded,
                           batch_boundaries, build_plan, build_plan_keyed,
                           generate_service_trace,
                           generate_service_trace_keyed, shard_by_worker,
                           worker_slots)
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.stats import merge_run_stats

from repro.core.schemes import resolve_scheme, scheme_descriptor

ALL_SCHEMES = ("baseline", "lowerbound", "mpk", "mpk_virt", "libmpk",
               "domain_virt", "erim", "pks_seal", "dpti", "poe2")
#: Schemes whose key remaps broadcast shootdowns across cores —
#: *derived* from the cost descriptors, so a new scheme declaring
#: broadcast_shootdown joins these assertions automatically.
BROADCASTING = tuple(
    name for name in ALL_SCHEMES
    if name != "baseline" and scheme_descriptor(name).broadcast_shootdown)
#: Schemes with TLB churn but no cross-core broadcasts (dpti drops its
#: own translations; dv never invalidates at all).
NON_BROADCASTING = ("domain_virt", "dpti")
FREQ = DEFAULT_CONFIG.processor.frequency_hz

#: Small enough to replay every scheme, large enough that 24 client
#: domains overflow the 16 hardware keys and force remaps under Zipf
#: churn (plain mpk is excluded — it faults past 16 domains).
PARAMS_1W = ServiceParams(n_clients=8, n_requests=150)
PARAMS_4W = ServiceParams(n_clients=24, n_requests=200, workers=4)


@pytest.fixture(scope="module")
def single():
    trace, _ws = generate_service_trace(PARAMS_1W)
    return build_plan(PARAMS_1W), trace


@pytest.fixture(scope="module")
def sharded():
    trace, _ws = generate_service_trace(PARAMS_4W)
    return build_plan(PARAMS_4W), trace, shard_by_worker(trace)


class TestShardSplit:
    def test_single_worker_split_is_the_trace_itself(self, single):
        _plan, trace = single
        shards = shard_by_worker(trace)
        assert len(shards) == 1
        assert shards[0].trace is trace
        assert shards[0].marks == batch_boundaries(trace)

    def test_one_shard_per_slot_in_slot_order(self, sharded):
        _plan, trace, shards = sharded
        assert [shard.slot for shard in shards] == [0, 1, 2, 3]

    def test_shards_partition_the_measured_events(self, sharded):
        plan, trace, shards = sharded
        # Every planned batch's marks land on exactly one shard.
        assert sum(len(shard.marks) for shard in shards) == \
            plan.columns.n_batches
        # Measured events partition; setup events replicate.
        kinds = trace.columns.kinds
        n_ctxsw = int(np.count_nonzero(kinds == CTXSW))
        n_setup = int(np.count_nonzero((kinds == INIT_PERM) |
                                       (kinds >= 5) & (kinds != 7)))
        total = sum(len(shard.trace) for shard in shards)
        assert total == len(trace) - n_ctxsw + (len(shards) - 1) * n_setup

    def test_no_context_switches_in_any_shard(self, sharded):
        _plan, _trace, shards = sharded
        for shard in shards:
            assert not np.any(shard.trace.columns.kinds == CTXSW)

    def test_every_shard_keeps_the_full_roster(self, sharded):
        _plan, trace, shards = sharded
        for shard in shards:
            assert worker_slots(shard.trace) == worker_slots(trace)

    def test_marks_reindex_to_the_shards_own_close_events(self, sharded):
        _plan, _trace, shards = sharded
        for shard in shards:
            boundaries = batch_boundaries(shard.trace)
            assert shard.marks == boundaries

    def test_split_is_memoized(self, sharded):
        _plan, trace, shards = sharded
        assert shard_by_worker(trace) is shards


class TestWorkersOneBitIdentity:
    """The differential anchor: sharded == classic at one worker."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_runstats_bit_identical(self, single, scheme):
        _plan, trace = single
        marks = batch_boundaries(trace)
        classic = replay_one(trace, scheme, marks=marks)
        shard = shard_by_worker(trace)[0]
        via_shards = replay_one(shard.trace, scheme, marks=shard.marks,
                                n_cores=1)
        assert via_shards.to_dict() == classic.to_dict()
        assert via_shards.mark_cycles == classic.mark_cycles
        assert via_shards.cross_core_shootdowns == 0

    @pytest.mark.parametrize("scheme", ("mpk_virt", "domain_virt"))
    def test_summary_bit_identical(self, single, scheme):
        plan, trace = single
        marks = batch_boundaries(trace)
        stats = replay_one(trace, scheme, marks=marks)
        classic = account(plan, trace, stats, frequency_hz=FREQ)
        shards = shard_by_worker(trace)
        sharded = account_sharded(
            plan, shards,
            [replay_one(shards[0].trace, scheme, marks=shards[0].marks)],
            frequency_hz=FREQ)
        assert sharded.to_dict() == classic.to_dict()

    def test_engine_replay_shards_matches_replay_marked(self, single):
        _plan, trace = single
        engine = Engine(cache=TraceCache("0"))
        spec = WorkloadSpec(suite="service", params=PARAMS_1W)
        [cell] = engine.replay_served([(spec, ["mpk_virt", "domain_virt"])])
        engine.release(spec)
        for scheme in ("mpk_virt", "domain_virt"):
            classic = replay_one(trace, scheme,
                                 marks=batch_boundaries(trace))
            [stats] = cell[scheme]
            assert stats.mark_cycles == classic.mark_cycles
            assert stats.cycles == classic.cycles
            # baseline_cycles wired from the same shard's baseline run.
            assert stats.baseline_cycles == cell["baseline"][0].cycles


class TestCycleConservation:
    """Sum of per-shard busy cycles equals the merged totals."""

    @pytest.fixture(scope="class")
    def replayed(self, sharded):
        plan, _trace, shards = sharded
        stats = [replay_one(shard.trace, "mpk_virt", marks=shard.marks,
                            n_cores=len(shards)) for shard in shards]
        summary = account_sharded(plan, shards, stats, frequency_hz=FREQ)
        return plan, shards, stats, summary

    def test_per_slot_busy_equals_shard_mark_clock(self, replayed):
        _plan, shards, stats, summary = replayed
        for shard, shard_stats in zip(shards, stats):
            assert summary.worker_busy[shard.slot] == pytest.approx(
                shard_stats.mark_cycles[-1], rel=1e-12)

    def test_busy_cycles_sum_to_merged_busy(self, replayed):
        _plan, _shards, stats, summary = replayed
        total_marked = sum(s.mark_cycles[-1] for s in stats)
        assert sum(summary.worker_busy.values()) == pytest.approx(
            total_marked, rel=1e-12)

    def test_merged_stats_sum_the_shards(self, replayed):
        _plan, _shards, stats, summary = replayed
        merged = summary.stats
        assert merged.cycles == pytest.approx(
            sum(s.cycles for s in stats), rel=1e-12)
        for field in ("perm_switches", "tlb_misses", "evictions",
                      "pmo_accesses", "cross_core_shootdowns"):
            assert getattr(merged, field) == \
                sum(getattr(s, field) for s in stats), field
        for bucket in merged.buckets:
            assert merged.buckets[bucket] == pytest.approx(
                sum(s.buckets[bucket] for s in stats), rel=1e-12)
        assert merged.mark_cycles is None

    def test_every_request_is_accounted(self, replayed):
        plan, _shards, _stats, summary = replayed
        assert summary.latency.count == plan.n_served
        assert summary.n_batches == plan.columns.n_batches
        assert set(summary.worker_busy) == \
            set(plan.columns.batch_workers.tolist())


class TestCrossCoreShootdowns:
    """The headline contrast: broadcasts bill MPKV/libmpk, never DV."""

    @pytest.fixture(scope="class")
    def summaries(self, sharded):
        plan, _trace, shards = sharded
        out = {}
        for scheme in BROADCASTING + NON_BROADCASTING:
            stats = [replay_one(shard.trace, scheme, marks=shard.marks,
                                n_cores=len(shards)) for shard in shards]
            out[scheme] = account_sharded(plan, shards, stats,
                                          frequency_hz=FREQ)
        return out

    def test_descriptors_pin_the_broadcast_roster(self):
        assert set(BROADCASTING) == {"mpk_virt", "libmpk", "pks_seal",
                                     "poe2"}

    @pytest.mark.parametrize(
        "scheme", [s for s in BROADCASTING if s != "poe2"])
    def test_broadcasting_schemes_pay_cross_core(self, summaries, scheme):
        # poe2's 64-overlay space does not churn at 24 clients — its
        # broadcast behavior gets a beyond-64-domain run below.
        summary = summaries[scheme]
        assert summary.cross_core_shootdowns > 0
        assert summary.cross_core_shootdown_cycles > 0

    def test_poe2_broadcasts_only_past_its_overlay_space(self, summaries):
        # Below 64 domains poe2 never remaps, so no broadcasts at all...
        assert summaries["poe2"].cross_core_shootdowns == 0
        # ...but once the overlay space overflows it pays like MPKV,
        # at its cheaper DVM rate.
        params = ServiceParams(n_clients=80, n_requests=600)
        trace, _ws = generate_service_trace(params)
        stats = replay_one(trace, "poe2", marks=batch_boundaries(trace),
                           n_cores=4)
        assert stats.cross_core_shootdowns > 0
        assert stats.cross_core_shootdown_cycles == pytest.approx(
            stats.cross_core_shootdowns *
            DEFAULT_CONFIG.poe2.tlb_invalidation_cycles * 3)

    @pytest.mark.parametrize("scheme", NON_BROADCASTING)
    def test_non_broadcasters_pay_zero(self, summaries, scheme):
        assert summaries[scheme].cross_core_shootdowns == 0
        assert summaries[scheme].cross_core_shootdown_cycles == 0.0

    @pytest.mark.parametrize("scheme", BROADCASTING)
    def test_formula_invalidation_cycles_times_remote_cores(
            self, summaries, scheme):
        # Every broadcast bills tlb_invalidation_cycles per *remote*
        # core; with 4 cores the remote share is 3 of 4.
        summary = summaries[scheme]
        section = getattr(DEFAULT_CONFIG, scheme)
        assert summary.cross_core_shootdown_cycles == pytest.approx(
            summary.cross_core_shootdowns *
            section.tlb_invalidation_cycles * 3)
        # Attribution, never an extra charge: the cross-core slice is
        # inside the tlb_invalidations bucket.
        assert summary.cross_core_shootdown_cycles <= \
            summary.stats.buckets["tlb_invalidations"]

    def test_single_core_replay_never_attributes(self, single):
        _plan, trace = single
        stats = replay_one(trace, "mpk_virt",
                           marks=batch_boundaries(trace))
        assert stats.cross_core_shootdowns == 0
        assert stats.cross_core_shootdown_cycles == 0.0


class TestKeyedSeveralWorkers:
    """Keyed dispatch on two simulated cores, through
    ``summaries_for_spec``: each scheme's own schedule, split into
    per-worker shards."""

    PARAMS = ServiceParams(n_clients=24, n_requests=160, arrival="closed",
                           dispatch="replay", workers=2)

    @pytest.fixture(scope="class")
    def row(self):
        spec = WorkloadSpec(suite="service", params=self.PARAMS)
        runner = ExperimentRunner(engine=Engine(cache=TraceCache("0")))
        return summaries_for_spec(runner, spec, ("mpk", "mpkv", "dv"))

    def test_hard_limited_scheme_reports_none(self, row):
        assert row["mpk"] is None

    @pytest.mark.parametrize("name", ("mpkv", "dv"))
    def test_matches_the_hand_wired_chain(self, row, name):
        scheme = resolve_scheme(name)
        plan = build_plan_keyed(self.PARAMS, scheme)
        trace, _ws = generate_service_trace_keyed(self.PARAMS, scheme)
        shards = shard_by_worker(trace)
        assert len(shards) == 2
        stats = [replay_one(shard.trace, scheme, marks=shard.marks,
                            n_cores=2) for shard in shards]
        expected = account_sharded(plan, shards, stats, frequency_hz=FREQ)
        assert row[name].to_dict() == expected.to_dict()

    def test_only_mpkv_pays_cross_core(self, row):
        assert row["mpkv"].cross_core_shootdowns > 0
        assert row["mpkv"].cross_core_shootdown_cycles == 11726.0
        assert row["dv"].cross_core_shootdowns == 0
        assert row["dv"].cross_core_shootdown_cycles == 0.0


class TestMergeRunStats:
    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            merge_run_stats([])

    def test_mixed_schemes_rejected(self, sharded):
        _plan, _trace, shards = sharded
        a = replay_one(shards[0].trace, "mpk_virt", marks=shards[0].marks)
        b = replay_one(shards[1].trace, "domain_virt",
                       marks=shards[1].marks)
        with pytest.raises(ValueError):
            merge_run_stats([a, b])


class TestErrors:
    def test_shard_count_mismatch_rejected(self, sharded):
        plan, _trace, shards = sharded
        stats = [replay_one(shards[0].trace, "domain_virt",
                            marks=shards[0].marks)]
        with pytest.raises(SimulationError):
            account_sharded(plan, shards, stats, frequency_hz=FREQ)

    def test_unmarked_shard_stats_rejected(self, sharded):
        plan, _trace, shards = sharded
        stats = [replay_one(shard.trace, "domain_virt")
                 for shard in shards]
        with pytest.raises(SimulationError):
            account_sharded(plan, shards, stats, frequency_hz=FREQ)


class TestCLIRefusal:
    """--workers beyond REPRO_JOBS refuses instead of serializing."""

    def test_refuses_when_pool_is_smaller(self, monkeypatch):
        from repro.experiments.service import refuse_serialized_shards
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.delenv("REPRO_SERIAL_SHARDS", raising=False)
        message = refuse_serialized_shards(4)
        assert message is not None
        assert "REPRO_JOBS" in message
        assert "REPRO_SERIAL_SHARDS" in message

    def test_accepts_when_pool_is_big_enough(self, monkeypatch):
        from repro.experiments.service import refuse_serialized_shards
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert refuse_serialized_shards(4) is None
        assert refuse_serialized_shards(1) is None

    def test_opt_in_accepts_serialized_shards(self, monkeypatch):
        from repro.experiments.service import refuse_serialized_shards
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_SERIAL_SHARDS", "1")
        assert refuse_serialized_shards(8) is None

    def test_cli_exits_nonzero(self, monkeypatch, capsys):
        from repro.experiments import service as cli
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.delenv("REPRO_SERIAL_SHARDS", raising=False)
        code = cli.main(["--workers", "4", "--clients", "6",
                        "--requests", "40"])
        assert code == 2
        assert "REPRO_JOBS" in capsys.readouterr().err
