"""The cyclic-collector contract of the simulator's entry points.

``ClusterBuilder.build()``, ``build_cluster()``, ``deploy_federation()``
and ``Environment.run()`` pause Python's cyclic collector while they
work (``repro.sim.engine.gc_paused``). Whatever happens inside, the
caller gets its own collector state back, a caller that turned the
collector off sees no collection at all, and a caller with it on is
handed no deferred young-generation collection.
"""

import gc

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.sim.engine import Environment, SimulationError, gc_paused
from repro.sim.units import MILLISECOND as MS


@pytest.fixture
def collections():
    """Generations of every collection, recorded through gc.callbacks;
    the caller's collector state is restored afterwards."""
    seen = []

    def record(phase, info):
        if phase == "stop":
            seen.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.callbacks.append(record)
    try:
        yield seen
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was_enabled else gc.disable)()


def small_builder():
    return (ClusterBuilder(SimConfig(num_backends=4, master_seed=5))
            .scheme("rdma-sync", interval=MS)
            .with_federation(leaf_interval=MS, root_interval=MS))


def small_cluster():
    return small_builder().build()


def failing_env():
    env = Environment()

    def boom():
        yield env.timeout(10)
        raise ValueError("inside a process")

    env.process(boom())
    return env


@pytest.mark.parametrize("enabled", [True, False])
def test_build_and_run_restore_the_callers_state(enabled, collections):
    (gc.enable if enabled else gc.disable)()
    cluster = small_cluster()
    assert gc.isenabled() is enabled
    cluster.run(5 * MS)
    assert gc.isenabled() is enabled
    build_cluster(SimConfig(num_backends=1))
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_state_is_restored_when_run_raises(enabled, collections):
    (gc.enable if enabled else gc.disable)()
    env = Environment()
    env.run(until=100)
    with pytest.raises(SimulationError, match="in the past"):
        env.run(until=50)
    assert gc.isenabled() is enabled
    with pytest.raises(ValueError, match="inside a process"):
        failing_env().run(until=100)
    assert gc.isenabled() is enabled


def test_collector_is_off_inside_run(collections):
    gc.enable()
    env = Environment()
    inside = []

    def probe():
        yield env.timeout(1)
        inside.append(gc.isenabled())

    env.process(probe())
    env.run()
    assert inside == [False] and gc.isenabled()


def test_enabled_caller_is_owed_no_young_collection(collections):
    gc.enable()
    cluster = small_cluster()
    assert gc.get_count()[0] < gc.get_threshold()[0]
    cluster.run(5 * MS)
    assert gc.get_count()[0] < gc.get_threshold()[0]


def test_build_clears_two_generations_and_run_one(collections):
    gc.enable()
    builder = small_builder()
    del collections[:]
    cluster = builder.build()
    # build() is the outermost call; build_cluster() and
    # deploy_federation(), nested in it, collect nothing of their own.
    assert collections == [1]
    del collections[:]
    cluster.run(5 * MS)
    assert collections == [0]


def test_disabled_caller_sees_no_collection(collections):
    gc.disable()
    cluster = small_cluster()
    cluster.run(5 * MS)
    with pytest.raises(ValueError):
        failing_env().run(until=100)
    assert collections == []
    assert not gc.isenabled()


def test_nested_use_does_nothing(collections):
    gc.enable()

    @gc_paused(0)
    def inner():
        return gc.isenabled()

    @gc_paused(1)
    def outer():
        return gc.isenabled(), inner(), gc.isenabled()

    assert outer() == (False, False, False)
    assert collections == [1] and gc.isenabled()
