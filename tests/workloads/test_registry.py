"""Tests for the unified workload registry.

Node-valued parameters accept a :class:`~repro.hw.node.Node` or a
back-end index; the acceptance bar is that both spellings are
**fingerprint-identical** (same RNG streams, same event counts), and
that the registry audits names, keywords and indices with clear errors.
"""

import pytest

from repro.config import SimConfig
from repro.hw.cluster import build_cluster
from repro.sim.units import ms, seconds
from repro.workloads import (
    WORKLOADS,
    create_workload,
    get_workload_spec,
    workload_names,
)


def _fingerprint(sim):
    return (sim.env.processed_events,
            tuple(int(x) for x in
                  sim.rng.stream("probe:fingerprint").integers(0, 1 << 30, 4)))


def _run_arm(seed, spawn):
    sim = build_cluster(SimConfig(num_backends=3, master_seed=seed))
    spawn(sim)
    sim.run(seconds(1))
    return _fingerprint(sim)


# ----------------------------------------------------------------------
# Node objects == back-end indices, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", (1234, 77))
def test_background_node_and_index_are_fingerprint_identical(seed):
    by_node = _run_arm(seed, lambda sim: create_workload(
        "background", sim, node=sim.backends[0], threads=4, burst=2))
    by_index = _run_arm(seed, lambda sim: create_workload(
        "background", sim, node=0, threads=4, burst=2))
    assert by_node == by_index


@pytest.mark.parametrize("seed", (1234,))
def test_incast_node_and_index_are_fingerprint_identical(seed):
    by_node = _run_arm(seed, lambda sim: create_workload(
        "incast", sim, target=sim.backends[0], sources=sim.backends[1:],
        flows_per_source=2))
    by_index = _run_arm(seed, lambda sim: create_workload(
        "incast", sim, target=0, sources=[1, 2], flows_per_source=2))
    assert by_node == by_index


@pytest.mark.parametrize("seed", (1234,))
def test_attack_node_and_index_are_fingerprint_identical(seed):
    def _cfg(s):
        cfg = SimConfig(num_backends=2, master_seed=s)
        cfg.tenancy.enabled = True
        return cfg

    runs = []
    for target in (lambda sim: sim.backends[0], lambda sim: 0):
        sim = build_cluster(_cfg(seed))
        create_workload("qp-churn", sim, src=sim.clients, target=target(sim))
        sim.run(seconds(1) // 2)
        runs.append(_fingerprint(sim))
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# auditing
# ----------------------------------------------------------------------
def test_registry_covers_the_legacy_spawners():
    names = workload_names()
    for expected in ("background", "incast", "qp-churn", "read-blaster",
                     "cache-thrash", "rubis", "openloop", "zipf", "replay",
                     "float"):
        assert expected in names
    for spec in WORKLOADS.values():
        assert spec.params, spec.name
        assert set(spec.required) <= set(spec.params), spec.name


def test_unknown_workload_name_suggests():
    with pytest.raises(KeyError, match="rubis"):
        get_workload_spec("rubiss")
    with pytest.raises(KeyError, match="registered"):
        get_workload_spec("nonsense")


def test_unknown_keyword_suggests():
    sim = build_cluster(SimConfig(num_backends=2))
    with pytest.raises(TypeError, match="threads"):
        create_workload("background", sim, node=0, thread=4)
    with pytest.raises(TypeError, match="missing required"):
        create_workload("background", sim, node=0)
    with pytest.raises(TypeError, match="dispatcher"):
        create_workload("rubis", sim)


def test_node_valued_params_accept_indices():
    sim = build_cluster(SimConfig(num_backends=2))
    tasks = create_workload("background", sim, node=1, threads=2)
    assert tasks and all(t.node is sim.backends[1] for t in tasks)
    tasks = create_workload("incast", sim, target=0, sources=[1])
    assert tasks and all(t.node is sim.backends[1] for t in tasks)
    task = create_workload("qp-churn", sim, src=sim.clients, target=1)
    assert task.node is sim.clients


@pytest.mark.parametrize("param,value", [
    ("node", 5), ("node", -1),
    ("target", 2), ("target", -1),
    ("sources", [1, 7]), ("sources", [-1]),
])
def test_node_valued_params_reject_out_of_range(param, value):
    sim = build_cluster(SimConfig(num_backends=2))
    kwargs = {"node": dict(threads=2),
              "target": dict(sources=[1]),
              "sources": dict(target=0)}[param]
    name = "background" if param == "node" else "incast"
    bad = value[-1] if param == "sources" else value
    with pytest.raises(ValueError,
                       match=rf"{param}={bad} .*valid range 0\.\.1"):
        create_workload(name, sim, **{param: value}, **kwargs)


def test_builder_workload_chain_validates_eagerly():
    from repro.api import ClusterBuilder

    builder = ClusterBuilder(SimConfig(num_backends=2))
    with pytest.raises(TypeError, match="num_clients"):
        builder.workload("rubis", num_client=4)
    with pytest.raises(KeyError):
        builder.workload("rubiss")
    cluster = (builder
               .scheme("rdma-sync")
               .workload("rubis", num_clients=4, think_time=ms(10))
               .workload("background", node=0, threads=2)
               .build())
    cluster.run(until=seconds(1) // 2)
    assert len(cluster.workloads) == 2
    assert cluster.dispatcher.stats.count() > 0


def test_builder_workload_matches_manual_start():
    """Chaining .workload('rubis') == building then starting by hand."""
    from repro.api import ClusterBuilder
    from repro.workloads import RubisWorkload

    seed = 4242
    chained = (ClusterBuilder(SimConfig(num_backends=2, master_seed=seed))
               .scheme("rdma-sync")
               .workload("rubis", num_clients=6, think_time=ms(8))
               .build())
    chained.run(until=seconds(1))

    manual = (ClusterBuilder(SimConfig(num_backends=2, master_seed=seed))
              .scheme("rdma-sync")
              .build())
    RubisWorkload(manual.sim, manual.dispatcher, num_clients=6,
                  think_time=ms(8)).start()
    manual.run(until=seconds(1))

    assert (chained.dispatcher.stats.count()
            == manual.dispatcher.stats.count() > 0)
    assert (chained.sim.env.processed_events
            == manual.sim.env.processed_events)
