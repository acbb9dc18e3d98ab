"""Golden-fingerprint determinism proof for the hot-path overhaul.

The fingerprints below were captured from the PRE-overhaul core (tuple
heap, un-slotted events, scalar RNG draws, uncached probe paths) at
commit 7d81002, covering five representative stacks: closed-loop RUBiS
on socket-sync and rdma-sync, open-loop with admission control, a
traced + telemetered rdma-async run at 25 % sampling, and a federated
16-node cluster. Each tuple pins response statistics, per-backend
routing counts, the total processed-event count, raw probe latencies,
span boundaries and workload drop counts — any reordering of the event
queue, any perturbation of an RNG stream, or any change to simulated
costs shifts at least one component.

Two more goldens pin plane-on behaviour: an all-planes cluster (the
benchmark's ``rubis8-planes`` recipe, 300 ms) and a three-level
federation over 256 back-ends. Both were captured at commit d1575b2,
on the timing-wheel scheduler core, before that core was deleted in
favour of the heap it had to match.

``GOLDEN_SHEDDING`` pins alert shedding combined with admission
control, a ``hang`` fault and the heartbeat. It was captured at commit
6501a24, before the keyword-flag cluster helper was deleted, as the
builder form of the last scenario that helper was checked against.

Two goldens pin what the planes *emit*, not only the simulated events:
``GOLDEN_ALL_PLANES_EXPOSITION`` is the SHA-256 of the all-planes
run's OpenMetrics exposition (676 lines), and
``GOLDEN_SHEDDING_ALERTS`` is the shedding run's alert log. A rewiring
that reorders observer hooks or drops a collector leaves the event
counts alone but moves one of these. Both were captured at commit
4de3bad, before the plane switches moved into ``SimConfig``.

The overhauled core must reproduce every value bit-for-bit. If a test
here fails, the change under review broke same-seed reproducibility —
do NOT re-capture the goldens to make it pass unless the change is an
intentional, documented break of the determinism contract.

Regenerating after an intentional break::

    PYTHONPATH=src python -m pytest tests/test_golden_fingerprints.py \
        --regen-goldens

rewrites, in place, each ``GOLDEN_*`` constant below whose freshly
captured fingerprint differs (its test reports ``skipped`` to mark that
it recaptured rather than asserted); a constant that still matches keeps
its source line byte-identical and its test passes. A plain re-run must
then pass. The flag lives in ``tests/conftest.py``; commit the rewritten
goldens together with the change that moved them and a rationale in the
message. Never use it to silence an unexplained mismatch.
"""

import hashlib
import pathlib
import re

import pytest

from repro.api import ClusterBuilder
from repro.config import (
    AdmissionConfig,
    CongestionConfig,
    FaultsConfig,
    FederationConfig,
    HeartbeatConfig,
    MonitorConfig,
    ObsConfig,
    ScalerConfig,
    ServerConfig,
    SimConfig,
    TenancyConfig,
    TracingConfig,
)
from repro.faults import parse_schedule
from repro.sim.units import ms, seconds
from repro.workloads.openloop import OpenLoopWorkload
from repro.workloads.rubis import RubisWorkload


def fp_rubis(scheme, seed=1234):
    cfg = SimConfig(num_backends=2, master_seed=seed)
    app = ClusterBuilder(cfg).scheme(scheme, interval=ms(50)).build()
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5))
    wl.start()
    app.run(seconds(2))
    s = app.dispatcher.stats
    return (s.count(), repr(s.mean_response()), s.max_response(),
            tuple(sorted(s.per_backend_counts().items())),
            app.sim.env.processed_events,
            tuple(r.latency for r in app.scheme.records[:50]))


def fp_openloop(seed=77):
    cfg = SimConfig(num_backends=2, master_seed=seed)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync", interval=ms(50))
           .with_admission()
           .build())
    wl = OpenLoopWorkload(app.sim, app.dispatcher, rate_rps=400.0)
    wl.start()
    app.run(seconds(2))
    s = app.dispatcher.stats
    return (wl.issued, wl.dropped_inflight, s.count(), repr(s.mean_response()),
            tuple(sorted(s.per_backend_counts().items())),
            app.sim.env.processed_events)


def fp_traced(seed=42):
    cfg = SimConfig(num_backends=2, master_seed=seed)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-async", interval=ms(50))
           .with_telemetry()
           .with_tracing(sample=0.25)
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=4, think_time=ms(10))
    wl.start()
    app.run(seconds(1))
    sp = app.sim.spans
    return (app.dispatcher.stats.count(), app.sim.env.processed_events,
            len(sp.spans), sp.traces_started, sp.unsampled,
            tuple((s.name, s.start, s.end) for s in sp.spans[:40]))


def fp_federation(seed=9):
    cfg = SimConfig(num_backends=16, master_seed=seed)
    cfg.federation.enabled = True
    app = ClusterBuilder(cfg).scheme("rdma-sync", interval=ms(50)).build()
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(10))
    wl.start()
    app.run(seconds(1))
    return (app.dispatcher.stats.count(), app.sim.env.processed_events,
            tuple(sorted(app.dispatcher.stats.per_backend_counts().items())))


def run_all_planes(seed=5):
    """Every optional plane on at once: 8 back-ends, e-rdma-sync under
    two-level federation, tracing, obs, admission, heartbeat, the
    elastic scaler, congestion with monitor priority, the tenancy
    defense against a read-blaster, and a crash/recover plus
    degraded-link fault schedule. Returns the cluster after 300 ms."""
    cfg = SimConfig(num_backends=8, master_seed=seed)
    cfg.monitor.probe_timeout = ms(2)
    interval = ms(10)
    app = (ClusterBuilder(cfg)
           .scheme("e-rdma-sync", interval=interval)
           .with_federation(levels=2, leaf_interval=interval,
                            root_interval=interval)
           .workers(32)
           .workload("rubis", **ALL_PLANES_RUBIS)
           .with_tracing(sample=1.0)
           .observability(http=False)
           .with_admission()
           .with_heartbeat()
           .with_elastic_scaler(initial_active=6)
           .congestion(monitor_priority=True)
           .tenancy(defense=True)
           .with_faults(ALL_PLANES_FAULTS)
           .workload("read-blaster", **ALL_PLANES_BLASTER)
           .build())
    app.run(ms(300))
    return app


ALL_PLANES_RUBIS = dict(num_clients=192, think_time=ms(3), demand_cv=0.4,
                        burst_length=10, idle_factor=8)
ALL_PLANES_BLASTER = dict(src=6, target=7, start_after=ms(200),
                          stop_after=ms(800))
ALL_PLANES_FAULTS = ("at 300ms crash backend3\n"
                     "at 600ms recover backend3\n"
                     "from 400ms to 700ms degrade-link frontend backend1 "
                     "latency=20 bw=0.5\n")


def run_all_planes_from_cfg(seed=5):
    """The all-planes scenario with every plane switched on by its
    ``SimConfig`` section alone: no plane builder method is called."""
    interval = ms(10)
    cfg = SimConfig(
        num_backends=8, master_seed=seed,
        server=ServerConfig(workers_per_server=32),
        monitor=MonitorConfig(probe_timeout=ms(2)),
        federation=FederationConfig(enabled=True, leaf_interval=interval,
                                    root_interval=interval),
        tracing=TracingConfig(enabled=True),
        obs=ObsConfig(enabled=True),
        admission=AdmissionConfig(enabled=True),
        heartbeat=HeartbeatConfig(enabled=True),
        scaler=ScalerConfig(enabled=True, initial_active=6),
        congestion=CongestionConfig(enabled=True, monitor_priority=True),
        tenancy=TenancyConfig(enabled=True, defense=True),
        faults=FaultsConfig(schedule=parse_schedule(ALL_PLANES_FAULTS)),
    )
    app = (ClusterBuilder(cfg)
           .scheme("e-rdma-sync", interval=interval)
           .workload("rubis", **ALL_PLANES_RUBIS)
           .workload("read-blaster", **ALL_PLANES_BLASTER)
           .build())
    app.run(ms(300))
    return app


def fp_all_planes(app):
    sim, s = app.sim, app.dispatcher.stats
    ports = sim.congestion.switch.ports().values()
    return (s.count(), repr(s.mean_response()), s.rejected_count,
            s.timeout_count, tuple(sorted(s.per_backend_counts().items())),
            sim.env.processed_events, sim.env.cancelled_events,
            app.faults.applied, app.heartbeat.probes,
            len(sim.tenancy.actions),
            sum(p.enqueued for p in ports), sum(p.ecn_marks for p in ports),
            len(sim.spans.spans) + sim.spans.dropped,
            tuple((e.time, e.direction, e.backend) for e in app.scaler.events),
            app.federation.root.polls, app.federation.root.epoch)


def fp_exposition(app):
    """SHA-256 of the OpenMetrics exposition: pins what obs and
    telemetry emit, not only the simulated events."""
    return hashlib.sha256(app.obs.exposition().encode()).hexdigest()


def fp_three_level(seed=1):
    """Three-level federation over 256 back-ends at a 1 ms period, no
    client load."""
    cfg = SimConfig(num_backends=256, master_seed=seed)
    interval = ms(1)
    app = (ClusterBuilder(cfg)
           .scheme("rdma-sync", interval=interval)
           .with_federation(levels=3, leaf_interval=interval,
                            root_interval=interval, region_interval=interval)
           .build())
    app.run(ms(10))
    fed = app.federation
    tiers = (*fed.leaves, *fed.regions, fed.root)
    return (app.sim.env.processed_events, app.sim.env.cancelled_events,
            len(fed.root.latest), fed.root.polls, fed.root.epoch,
            sum(len(t.rounds) for t in tiers),
            sum(sum(t.rounds) for t in tiers),
            max(max(t.rounds) for t in tiers))


def run_shedding(seed=32):
    """Alert shedding combined with admission, a ``hang`` fault and the
    heartbeat: the full stack the legacy keyword helper was last checked
    against. Returns the cluster after 1 s."""
    cfg = SimConfig(num_backends=2, master_seed=seed)
    app = (ClusterBuilder(cfg)
           .scheme("e-rdma-sync", interval=ms(20))
           .with_admission(max_score=0.9)
           .with_telemetry()
           .with_alert_shedding()
           .with_tracing(sample=0.5)
           .with_faults("at 300ms hang backend0\nat 600ms recover backend0\n")
           .with_heartbeat(interval=ms(20), timeout=ms(2))
           .build())
    wl = RubisWorkload(app.sim, app.dispatcher, num_clients=8, think_time=ms(5))
    wl.start()
    app.run(seconds(1))
    return app


def fp_shedding(app):
    s, adm, sp = app.dispatcher.stats, app.admission, app.sim.spans
    return (s.count(), repr(s.mean_response()), s.max_response(),
            tuple(sorted(s.per_backend_counts().items())),
            app.sim.env.processed_events,
            adm.admitted, adm.rejected, adm.shed_by_alert,
            len(app.telemetry.engine.log),
            tuple((t.time, t.backend, t.state.name)
                  for t in app.heartbeat.transitions),
            app.heartbeat.probes, app.faults.applied,
            len(sp.spans), sp.unsampled)


def fp_alerts(app):
    """Every raised and cleared alert, in log order."""
    return tuple((a.time, a.rule, a.backend, a.severity.name, a.cleared)
                 for a in app.telemetry.engine.log)


GOLDEN_SOCKET_SYNC = (1521, '2765277.1499013808', 26937012, ((0, 748), (1, 773)), 55365, (410128, 423628, 410128, 423628, 410128, 884311, 410128, 423628, 410128, 423628, 410128, 423628, 423628, 437128, 410128, 423628, 419969, 849142, 410128, 423628, 410128, 423628, 410128, 423628, 410128, 423628, 410128, 423628, 410128, 423628, 410128, 423628, 782347, 786365, 410128, 423628, 410128, 429128, 410128, 1431400, 423628, 437128, 410128, 437128, 410128, 423628, 410128, 423628, 410128, 423628))

GOLDEN_RDMA_SYNC = (1428, '3080267.3928571427', 30860358, ((0, 714), (1, 714)), 51442, (20007, 25007) * 25)

GOLDEN_OPENLOOP = (839, 104, 734, '2241292.220708447', ((0, 397), (1, 337)), 33268)

GOLDEN_TRACED = (175, 8793, 342, 45, 170, (('lb.pick', 36629343, 36629343), ('dispatch', 36623193, 36642493), ('queue', 36629343, 36660157), ('web', 36666157, 38071132), ('db', 38071132, 40883583), ('respond', 40883583, 40897783), ('service', 36660157, 40897783), ('request', 36589379, 40941127), ('lb.pick', 70050012, 70050012), ('dispatch', 70043862, 70063162), ('queue', 70050012, 70080826), ('web', 70086826, 70658591), ('db', 70658591, 71135062), ('respond', 71135062, 71149262), ('service', 70080826, 71149262), ('request', 70010048, 71192606), ('lb.pick', 80690650, 80690650), ('dispatch', 80684500, 80703800), ('queue', 80690650, 80721464), ('web', 80727464, 81442074), ('db', 81442074, 82871295), ('respond', 82871295, 82885495), ('service', 80721464, 82885495), ('request', 80650686, 82928839), ('lb.pick', 89560416, 89560416), ('dispatch', 89554266, 89573566), ('queue', 89560416, 89591230), ('web', 89597230, 90179538), ('db', 90179538, 90662712), ('respond', 90662712, 90676912), ('service', 89591230, 90676912), ('request', 89520452, 90720256), ('rdma.read.post', 100040426, 100042926), ('rdma.read.at_target', 100042926, 100043686), ('rdma.read.post', 100041126, 100045426), ('rdma.read.at_target', 100045426, 100046186), ('rdma.read.dma', 100043686, 100046701), ('rdma.read.completion', 100046701, 100048089), ('rdma.read', 100040426, 100048089), ('rdma.read.dma', 100046186, 100049201)))

GOLDEN_ALL_PLANES = (1858, '22543894.51506997', 0, 0, ((0, 252), (1, 235), (2, 222), (3, 234), (4, 261), (5, 258), (6, 217), (7, 179)), 99030, 0, 1, 48, 2, 7375, 0, 20325, ((50003700, 'up', 6), (100003700, 'up', 7)), 30, 30)

GOLDEN_THREE_LEVEL = (27623, 0, 256, 10, 10, 510, 27159028, 83985)

GOLDEN_FEDERATION = (427, 26996, ((0, 34), (1, 32), (2, 26), (3, 24), (4, 28), (5, 28), (6, 27), (7, 21), (8, 24), (9, 29), (10, 23), (11, 33), (12, 28), (13, 17), (14, 25), (15, 28)))

GOLDEN_ALL_PLANES_EXPOSITION = '2eb8a83828d0b637228cce2c598cae64e70c8e59020424e8d5ffcb1b09654f42'

GOLDEN_SHEDDING_ALERTS = ((300000000, 'fault-injected', 0, 'WARNING', False), (340666635, 'heartbeat-miss', 0, 'CRITICAL', False), (600000000, 'fault-injected', 0, 'WARNING', True), (621194435, 'heartbeat-miss', 0, 'CRITICAL', True), (821598935, 'overload', 1, 'CRITICAL', False), (821598935, 'runq-anomaly', 1, 'WARNING', False), (841636635, 'overload', 1, 'CRITICAL', True), (981900535, 'runq-anomaly', 1, 'WARNING', True))

GOLDEN_SHEDDING = (439, '8318072.845102506', 320123159, ((0, 221), (1, 218)), 19705, 444, 15, 15, 8, ((340666635, 0, 'HUNG'), (621194435, 0, 'ALIVE')), 100, 2, 2534, 282)


def rewrite_golden(path, name, value, current):
    """Rewrite the ``name = ...`` line of ``path`` as ``name = value!r``.

    Only when ``value != current``: an unchanged golden keeps its source
    line byte-identical, so compact literals such as
    ``(20007, 25007) * 25`` survive a recapture of another constant.
    Returns True when the file was rewritten.
    """
    if value == current:
        return False
    src = path.read_text()
    pattern = re.compile(rf"^{name} = .*$", re.MULTILINE)
    assert pattern.search(src), f"constant {name} not found for rewrite"
    path.write_text(pattern.sub(lambda m: f"{name} = {value!r}", src, count=1))
    return True


def _check(name, value, regen):
    """Assert ``value`` against the module constant ``name`` — or, under
    ``--regen-goldens``, rewrite that constant in place (if it moved)
    and skip."""
    current = globals()[name]
    if regen and rewrite_golden(pathlib.Path(__file__), name, value, current):
        pytest.skip(f"recaptured {name} in place (--regen-goldens)")
    assert value == current


def test_rewrite_golden_touches_only_a_changed_constant(tmp_path):
    path = tmp_path / "goldens.py"
    original = ("GOLDEN_A = (20007, 25007) * 25\n"
                "GOLDEN_AB = (1, 2)\n"
                "GOLDEN_B = (1, 2)\n")
    path.write_text(original)
    before = path.read_bytes()
    assert not rewrite_golden(path, "GOLDEN_A", (20007, 25007) * 25,
                              (20007, 25007) * 25)
    assert path.read_bytes() == before
    assert rewrite_golden(path, "GOLDEN_B", (1, 3), (1, 2))
    old_lines = original.splitlines()
    new_lines = path.read_text().splitlines()
    assert len(new_lines) == len(old_lines)
    changed = [i for i, (o, n) in enumerate(zip(old_lines, new_lines)) if o != n]
    assert changed == [2]
    assert new_lines[2] == "GOLDEN_B = (1, 3)"


def test_golden_socket_sync(regen_goldens):
    _check("GOLDEN_SOCKET_SYNC", fp_rubis("socket-sync"), regen_goldens)


def test_golden_rdma_sync(regen_goldens):
    _check("GOLDEN_RDMA_SYNC", fp_rubis("rdma-sync", seed=5678), regen_goldens)


def test_golden_openloop_admission(regen_goldens):
    _check("GOLDEN_OPENLOOP", fp_openloop(), regen_goldens)


def test_golden_traced_telemetry(regen_goldens):
    _check("GOLDEN_TRACED", fp_traced(), regen_goldens)


def test_golden_federation(regen_goldens):
    _check("GOLDEN_FEDERATION", fp_federation(), regen_goldens)


@pytest.fixture(scope="module")
def all_planes_app():
    return run_all_planes()


@pytest.fixture(scope="module")
def shedding_app():
    return run_shedding()


def test_golden_all_planes(all_planes_app, regen_goldens):
    _check("GOLDEN_ALL_PLANES", fp_all_planes(all_planes_app), regen_goldens)


def test_golden_all_planes_exposition(all_planes_app, regen_goldens):
    _check("GOLDEN_ALL_PLANES_EXPOSITION", fp_exposition(all_planes_app),
           regen_goldens)


def test_cfg_only_build_reproduces_all_planes(all_planes_app):
    """One config describes the run: the cfg-only build writes the same
    SimConfig the chain methods do and reproduces both goldens."""
    app = run_all_planes_from_cfg()
    assert app.sim.cfg == all_planes_app.sim.cfg
    assert fp_all_planes(app) == GOLDEN_ALL_PLANES
    assert fp_exposition(app) == GOLDEN_ALL_PLANES_EXPOSITION


def test_golden_three_level_federation(regen_goldens):
    _check("GOLDEN_THREE_LEVEL", fp_three_level(), regen_goldens)


def test_golden_alert_shedding_full_stack(shedding_app, regen_goldens):
    _check("GOLDEN_SHEDDING", fp_shedding(shedding_app), regen_goldens)


def test_golden_shedding_alert_log(shedding_app, regen_goldens):
    _check("GOLDEN_SHEDDING_ALERTS", fp_alerts(shedding_app), regen_goldens)
