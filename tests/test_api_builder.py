"""ClusterBuilder facade: equivalent spellings, and misuse."""

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import ms, seconds
from repro.workloads.rubis import RubisWorkload


def _fingerprint(app, seconds_to_run=1):
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5))
    wl.start()
    app.run(seconds(seconds_to_run))
    s = app.dispatcher.stats
    return (s.count(), repr(s.mean_response()), s.max_response(),
            tuple(sorted(s.per_backend_counts().items())),
            app.sim.env.processed_events,
            tuple(r.latency for r in app.scheme.records[:50]))


def test_builder_federation_matches_cfg_flag():
    cfg = SimConfig(num_backends=8, master_seed=33)
    cfg.federation.enabled = True
    by_flag = ClusterBuilder(cfg).scheme("rdma-sync", interval=ms(50)).build()
    built = (ClusterBuilder(SimConfig(num_backends=8, master_seed=33))
             .scheme("rdma-sync", interval=ms(50))
             .with_federation()
             .build())
    assert built.federation is not None and by_flag.federation is not None
    assert _fingerprint(built) == _fingerprint(by_flag)


def test_builder_default_scheme_is_rdma_sync():
    app = ClusterBuilder(SimConfig(num_backends=2)).build()
    assert app.scheme.name == "rdma-sync"


def test_build_is_single_shot():
    builder = ClusterBuilder(SimConfig(num_backends=2))
    builder.build()
    with pytest.raises(RuntimeError, match="only be called once"):
        builder.build()


def test_with_faults_rejects_junk():
    with pytest.raises(TypeError, match="FaultSchedule or schedule text"):
        ClusterBuilder().with_faults(42)


def test_scheme_kwargs_forwarded_and_validated():
    app = (ClusterBuilder(SimConfig(num_backends=2))
           .scheme("rdma-sync", with_irq_detail=True)
           .build())
    assert app.scheme.read_irq_stat is True
    with pytest.raises(TypeError, match="rdma-sync"):
        (ClusterBuilder(SimConfig(num_backends=2))
         .scheme("rdma-sync", with_irqs=True)
         .build())


def test_builder_exported_from_package_root():
    import repro

    assert repro.ClusterBuilder is ClusterBuilder


# -- did-you-mean kwarg audit across every chain method ----------------
@pytest.mark.parametrize("method,typo,suggestion", [
    ("with_admission", {"max_scor": 0.9}, "max_score"),
    ("with_telemetry", {"rule": None}, "rules"),
    ("with_tracing", {"sampel": 0.5}, "sample"),
    ("with_heartbeat", {"intervall": 1000}, "interval"),
    ("with_heartbeat", {"hung_aftr": 3}, "hung_after"),
    ("with_federation", {"num_shard": 2}, "num_shards"),
])
def test_chain_method_typos_get_suggestions(method, typo, suggestion):
    builder = ClusterBuilder(SimConfig(num_backends=2))
    with pytest.raises(TypeError) as err:
        getattr(builder, method)(**typo)
    message = str(err.value)
    assert method in message
    assert f"did you mean {suggestion!r}" in message


@pytest.mark.parametrize("method,typo,suggestion", [
    ("congestion", {"ecn_kmn": 1024}, "ecn_kmin"),
    ("tenancy", {"icm_entrees": 16}, "icm_entries"),
    ("tenancy", {"qp_table_sze": 64}, "qp_table_size"),
    ("tenancy", {"defence": True}, "defense"),
    ("observability", {"namespce": "x"}, "namespace"),
    ("observability", {"http_prt": 9090}, "http_port"),
    ("observability", {"snapshot_dr": "/tmp"}, "snapshot_dir"),
])
def test_config_backed_methods_typos_get_suggestions(method, typo, suggestion):
    """congestion()/observability() knobs audit via the config schema."""
    builder = ClusterBuilder(SimConfig(num_backends=2))
    with pytest.raises((TypeError, AttributeError)) as err:
        getattr(builder, method)(**typo)
    assert f"did you mean {suggestion!r}" in str(err.value)


def test_chain_method_unknown_kwarg_without_match_lists_valid():
    builder = ClusterBuilder(SimConfig(num_backends=2))
    with pytest.raises(TypeError, match="valid keywords"):
        builder.with_tracing(zzz=1)


def test_observability_builds_surface():
    app = (ClusterBuilder(SimConfig(num_backends=2))
           .observability()
           .build())
    assert app.obs is not None
    assert app.telemetry is not None  # implied source
    assert app.obs.server is None     # http off by default
    assert app.obs.exposition().endswith("# EOF\n")


def test_observability_off_leaves_no_surface():
    app = ClusterBuilder(SimConfig(num_backends=2)).build()
    assert app.obs is None
