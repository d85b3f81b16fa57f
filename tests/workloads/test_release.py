"""Dropped workspaces and finished replays leave no cyclic garbage.

Timed rounds run with the cycle collector off (PERFORMANCE.md), so
whatever a generation or replay pass leaves in a reference cycle stays
resident until the process exits.  Each case runs its call once to
absorb one-time import garbage, runs it again with the collector off,
drops the result, and demands that a collection then finds nothing;
on failure it names the leaked types.  The live ``OID`` count must also
return to its value from before the first call: decoded pointers are
interned per workspace and freed with it.

CI runs this module at ``REPRO_JOBS=2`` as well, so engine grids whose
results come back through the fork pool are checked in the parent.
"""

import gc
from collections import Counter

import pytest

from repro.core.schemes import available_schemes
from repro.engine.cache import TraceCache
from repro.engine.context import replay_one
from repro.engine.core import Engine
from repro.engine.job import WorkloadSpec
from repro.errors import PkeyError
from repro.pmo.oid import OID
from repro.service.params import ServiceParams
from repro.service.server import _generate_keyed, generate_service_trace
from repro.workloads.micro import (MICRO_BENCHMARKS, MicroParams,
                                   generate_micro_trace)
from repro.workloads.whisper import (WHISPER_BENCHMARKS, WhisperParams,
                                     generate_whisper_trace)

#: Past the 15 allocatable keys, so mpk and erim refuse the replay.
REPLAY_POOLS = 32


def _live_oids() -> int:
    gc.collect()  # earlier tests' garbage is not this call's
    return sum(1 for obj in gc.get_objects() if type(obj) is OID)


def _cyclic_garbage(call) -> Counter:
    """Types of what ``call`` leaves for the cycle collector to free."""
    gc.collect()
    gc.disable()
    try:
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        gc.enable()


def assert_released(call) -> None:
    oids = _live_oids()
    call()  # warm-up: first-call imports may leave garbage of their own
    leaked = _cyclic_garbage(call)
    if leaked:
        pytest.fail(f"{sum(leaked.values())} objects need the cycle "
                    f"collector: {leaked.most_common(8)}")
    assert _live_oids() == oids


def _micro(benchmark: str, **overrides) -> MicroParams:
    return MicroParams(benchmark=benchmark, n_pools=8, initial_nodes=8,
                       operations=40, **overrides)


def _service(**overrides) -> ServiceParams:
    return ServiceParams(n_clients=8, n_requests=40, **overrides)


class TestGeneration:
    @pytest.mark.parametrize("name", MICRO_BENCHMARKS)
    def test_micro(self, name):
        assert_released(lambda: generate_micro_trace(_micro(name)))

    def test_micro_threads(self):
        assert_released(
            lambda: generate_micro_trace(_micro("avl", threads=3)))

    @pytest.mark.parametrize("name", WHISPER_BENCHMARKS)
    def test_whisper(self, name):
        params = WhisperParams(benchmark=name, transactions=20)
        assert_released(lambda: generate_whisper_trace(params))

    def test_service(self):
        assert_released(lambda: generate_service_trace(_service()))

    def test_service_keyed(self):
        params = _service(arrival="closed", dispatch="replay")
        assert_released(lambda: _generate_keyed(params, "mpk_virt"))


@pytest.fixture(scope="module")
def replay_trace():
    trace, _ = generate_micro_trace(MicroParams(
        benchmark="avl", n_pools=REPLAY_POOLS, initial_nodes=8,
        operations=60))
    return trace


def _replay_caught(trace, scheme: str) -> None:
    try:
        replay_one(trace, scheme)
    except PkeyError:
        pass


class TestReplay:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_replay_one(self, replay_trace, scheme):
        assert_released(lambda: _replay_caught(replay_trace, scheme))

    def test_the_refused_replay_is_exercised(self, replay_trace):
        with pytest.raises(PkeyError):
            replay_one(replay_trace, "mpk")


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    return Engine(cache=TraceCache(tmp_path_factory.mktemp("traces")))


class TestEngine:
    def test_replay(self, engine):
        spec = WorkloadSpec.micro("avl", 8, initial_nodes=8, operations=60)
        assert_released(
            lambda: engine.replay(spec, ["mpk_virt", "domain_virt"]))

    def test_replay_served(self, engine):
        spec = WorkloadSpec.service(n_clients=8, n_requests=60, workers=2)
        assert_released(lambda: engine.replay_served(
            [(spec, ["mpk_virt", "domain_virt"])]))
