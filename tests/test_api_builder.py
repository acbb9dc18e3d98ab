"""ClusterBuilder facade: equivalent spellings, and misuse."""

import pytest

from repro.api import ClusterBuilder
from repro.config import (
    AdmissionConfig,
    FaultsConfig,
    HeartbeatConfig,
    SimConfig,
    TelemetryConfig,
)
from repro.faults import FaultSchedule, parse_schedule
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
    ("congestion", {"ecn_kmn": 1024}, "ecn_kmin"),
    ("tenancy", {"icm_entrees": 16}, "icm_entries"),
    ("tenancy", {"qp_table_sze": 64}, "qp_table_size"),
    ("tenancy", {"defence": True}, "defense"),
    ("observability", {"namespce": "x"}, "namespace"),
    ("observability", {"http_prt": 9090}, "http_port"),
    ("observability", {"snapshot_dr": "/tmp"}, "snapshot_dir"),
    ("with_elastic_scaler", {"high_watr": 0.9}, "high_water"),
])
def test_chain_method_typos_get_suggestions(method, typo, suggestion):
    cfg = SimConfig(num_backends=2)
    builder = ClusterBuilder(cfg)
    with pytest.raises(TypeError) as err:
        getattr(builder, method)(**typo)
    message = str(err.value)
    assert f"ClusterBuilder.{method}()" in message
    assert f"did you mean {suggestion!r}" in message
    assert cfg == SimConfig(num_backends=2)  # nothing was switched on


def test_plane_methods_write_their_cfg_sections():
    """Every plane switch lives in the config: the chain methods only
    set sections, and the builder keeps no plane state of its own."""
    cfg = SimConfig(num_backends=2)
    (ClusterBuilder(cfg)
     .workers(3)
     .with_admission(max_score=0.9)
     .with_alert_shedding()
     .with_heartbeat(interval=ms(20), timeout=ms(2))
     .with_faults("at 300ms hang backend0\n"))
    assert cfg.server.workers_per_server == 3
    assert cfg.admission == AdmissionConfig(enabled=True, max_score=0.9)
    assert cfg.telemetry == TelemetryConfig(enabled=True, shed_on_alert=True)
    assert cfg.heartbeat == HeartbeatConfig(enabled=True, interval=ms(20),
                                            timeout=ms(2))
    assert cfg.faults.schedule == parse_schedule("at 300ms hang backend0\n")
    assert cfg.tracing.enabled is False


def test_plane_is_on_exactly_when_its_section_says_so():
    off = ClusterBuilder(SimConfig(num_backends=2)).build()
    on = ClusterBuilder(SimConfig(
        num_backends=2,
        telemetry=TelemetryConfig(enabled=True),
        admission=AdmissionConfig(enabled=True),
        heartbeat=HeartbeatConfig(enabled=True),
        faults=FaultsConfig(schedule=FaultSchedule()),
    )).build()
    for handle in ("telemetry", "admission", "heartbeat", "faults"):
        assert getattr(off, handle) is None
        assert getattr(on, handle) is not None, handle


def test_fault_schedule_text_in_cfg_is_rejected_with_a_hint():
    cfg = SimConfig(num_backends=2, faults=FaultsConfig(schedule="at 1s hang backend0"))
    with pytest.raises(ValueError, match="parse_schedule"):
        ClusterBuilder(cfg).build()


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
