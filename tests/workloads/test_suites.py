"""Tests for the WHISPER and multi-PMO benchmark generators."""

import pytest

from repro.permissions import Perm
from repro.cpu import trace as tr
from repro.workloads.micro import (MICRO_BENCHMARKS, MicroParams,
                                   ZipfSampler, generate_micro_trace)
from repro.workloads.whisper import (WHISPER_BENCHMARKS, WhisperParams,
                                     generate_whisper_trace)

TINY_MICRO = dict(n_pools=8, initial_nodes=16, operations=30)
TINY_WHISPER = dict(transactions=30, records=64)


class TestMicroGeneration:
    @pytest.mark.parametrize("bench", MICRO_BENCHMARKS)
    def test_generates_nonempty_trace(self, bench):
        trace, ws = generate_micro_trace(
            MicroParams(benchmark=bench, **TINY_MICRO))
        counts = trace.counts()
        assert counts["attach"] == 8
        assert counts["load"] > 0
        assert counts["perm"] > 0

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            generate_micro_trace(MicroParams(benchmark="nope"))

    def test_deterministic_for_same_seed(self):
        params = MicroParams(benchmark="avl", **TINY_MICRO)
        t1, _ = generate_micro_trace(params)
        t2, _ = generate_micro_trace(params)
        assert t1.events == t2.events

    def test_different_seeds_differ(self):
        base = MicroParams(benchmark="avl", **TINY_MICRO)
        other = MicroParams(benchmark="avl", seed=99, **TINY_MICRO)
        t1, _ = generate_micro_trace(base)
        t2, _ = generate_micro_trace(other)
        assert t1.events != t2.events

    def test_switch_events_paired(self):
        """Every +W grant inside an op is matched by a revocation to R."""
        trace, _ = generate_micro_trace(
            MicroParams(benchmark="rbt", **TINY_MICRO))
        open_grants = set()
        for event in trace.events:
            if event[0] != tr.PERM:
                continue
            domain, level = event[3], event[4]
            if level == int(Perm.RW):
                open_grants.add(domain)
            else:
                assert level == int(Perm.R)
                open_grants.discard(domain)
        assert not open_grants

    def test_scaled_reduces_operations(self):
        params = MicroParams(benchmark="ss", **TINY_MICRO)
        assert params.scaled(0.1).operations == 3

    def test_ops_touch_multiple_domains(self):
        trace, _ = generate_micro_trace(
            MicroParams(benchmark="avl", **TINY_MICRO))
        domains = {e[3] for e in trace.events if e[0] == tr.PERM}
        assert len(domains) > 1

    @pytest.mark.parametrize("bench", ["avl", "rbt", "ll"])
    def test_deletes_free_nodes_behind_short_pads(self, bench):
        """At ``node_align=16`` a bump leaves 8-byte pads in front of
        nodes; deleting such a node must free it."""
        trace, _ = generate_micro_trace(MicroParams(
            benchmark=bench, n_pools=4, node_align=16, operations=400))
        assert len(trace) > 0


class TestZipfSampler:
    def test_exponent_zero_is_roughly_uniform(self):
        import random
        sampler = ZipfSampler(4, 0.0, random.Random(1))
        counts = [0] * 4
        for _ in range(4000):
            counts[sampler.sample()] += 1
        assert min(counts) > 800

    def test_skew_concentrates_mass(self):
        import random
        sampler = ZipfSampler(100, 1.2, random.Random(1))
        counts = {}
        for _ in range(2000):
            index = sampler.sample()
            counts[index] = counts.get(index, 0) + 1
        top = sorted(counts.values(), reverse=True)
        assert sum(top[:10]) > 1000  # top-10 items dominate

    def test_samples_in_range(self):
        import random
        sampler = ZipfSampler(7, 0.8, random.Random(2))
        assert all(0 <= sampler.sample() < 7 for _ in range(200))

    @pytest.mark.parametrize("n,s,seed", [
        (1, 1.1, 0), (13, 0.0, 1), (64, 0.99, 2), (100, 1.2, 3),
    ])
    def test_sample_n_matches_scalar_loop(self, n, s, seed):
        """Batch draws are element-for-element the scalar loop from the
        same RNG state — searchsorted over the cumulative weights is
        exactly bisect_left on the same uniforms."""
        import random
        scalar = ZipfSampler(n, s, random.Random(seed))
        batch = ZipfSampler(n, s, random.Random(seed))
        want = [scalar.sample() for _ in range(503)]
        assert batch.sample_n(503).tolist() == want

    def test_sample_n_advances_rng_like_scalar(self):
        """After a batch draw the shared RNG sits exactly where the
        scalar loop would leave it: subsequent scalar draws agree."""
        import random
        scalar = ZipfSampler(16, 1.0, random.Random(7))
        batch = ZipfSampler(16, 1.0, random.Random(7))
        for _ in range(100):
            scalar.sample()
        batch.sample_n(100)
        assert [batch.sample() for _ in range(50)] == \
            [scalar.sample() for _ in range(50)]

    def test_sample_n_empty(self):
        import random
        sampler = ZipfSampler(4, 1.0, random.Random(1))
        before = sampler._rng.getstate()
        assert sampler.sample_n(0).tolist() == []
        assert sampler._rng.getstate() == before


class TestWhisperGeneration:
    @pytest.mark.parametrize("bench", WHISPER_BENCHMARKS)
    def test_generates_single_pmo_trace(self, bench):
        trace, ws = generate_whisper_trace(
            WhisperParams(benchmark=bench, **TINY_WHISPER))
        counts = trace.counts()
        assert counts["attach"] == 1
        assert counts["perm"] >= 2 * counts.get("store", 0)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            generate_whisper_trace(WhisperParams(benchmark="nope"))

    def test_every_pmo_access_is_bracketed(self):
        trace, _ = generate_whisper_trace(
            WhisperParams(benchmark="hashmap", **TINY_WHISPER))
        window_open = False
        for event in trace.events:
            if event[0] == tr.PERM:
                window_open = event[4] == int(Perm.RW)
            elif event[0] in (tr.LOAD, tr.STORE):
                vma = _vma_holding(trace, event[3])
                if vma is not None:  # PMO access must be inside a window
                    assert window_open

    def test_deterministic(self):
        params = WhisperParams(benchmark="redis", **TINY_WHISPER)
        t1, _ = generate_whisper_trace(params)
        t2, _ = generate_whisper_trace(params)
        assert t1.events == t2.events

    def test_tpcc_denser_than_echo(self):
        """TPCC has more PMO accesses per transaction than Echo."""
        def pmo_accesses(bench):
            trace, _ = generate_whisper_trace(
                WhisperParams(benchmark=bench, **TINY_WHISPER))
            return trace.counts().get("perm", 0)
        assert pmo_accesses("tpcc") > pmo_accesses("echo")


def _vma_holding(trace, vaddr):
    for _domain, (vma, _intent) in trace.attach_info.items():
        if vma.contains(vaddr):
            return vma
    return None
