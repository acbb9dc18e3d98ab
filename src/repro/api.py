"""The front-door API: a fluent builder for a fully-wired cluster.

:class:`ClusterBuilder` is the one way to assemble the application
stack — booted cluster, back-end web servers, a monitoring scheme with
its front-end poller, the load balancer (extended scoring iff the
scheme is e-RDMA-Sync), and the dispatcher — plus any of the optional
planes (admission control, telemetry, alert shedding, span tracing,
fault injection, heartbeat failover, hierarchical federation,
congestion-realistic fabric)::

    from repro.api import ClusterBuilder

    cluster = (
        ClusterBuilder(cfg)
        .scheme("rdma-sync", interval=20 * MS)
        .with_telemetry()
        .with_faults("at 2s crash backend3")
        .build()
    )
    cluster.run(until=10 * S)

Each plane method returns the builder, so a deployment reads as a
single expression naming exactly the planes it enables; everything not
named stays off and the run is byte-identical to the minimal stack
(property-tested). A plane method only writes its section of ``cfg``,
and ``build()`` reads every plane switch from ``cfg``, so setting the
sections by hand deploys the same cluster. ``build()`` may be called
once; it returns a :class:`RubisCluster` handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import inspect
from difflib import get_close_matches
from typing import List, Optional

from repro.config import SimConfig
from repro.faults import FaultPlane, FaultSchedule, parse_schedule
from repro.federation import Federation, deploy_federation
from repro.hw.cluster import ClusterSim, build_cluster
from repro.monitoring import FrontendMonitor, MonitoringScheme, create_scheme
from repro.monitoring.heartbeat import HeartbeatMonitor
from repro.server.admission import AdmissionController
from repro.server.dispatcher import Dispatcher
from repro.server.loadbalancer import LeastLoadedBalancer, TwoLevelBalancer
from repro.server.webserver import BackendServer
from repro.sim.engine import gc_paused
from repro.telemetry.pipeline import TelemetryPipeline

__all__ = ["ClusterBuilder", "RubisCluster"]


@dataclass
class RubisCluster:
    """Handles for a deployed application cluster."""

    sim: ClusterSim
    servers: List[BackendServer]
    scheme: MonitoringScheme
    monitor: FrontendMonitor
    #: set by ``build()``; ``None`` only while the build is wiring planes
    balancer: Optional[LeastLoadedBalancer] = None
    dispatcher: Optional[Dispatcher] = None
    admission: Optional[AdmissionController] = None
    telemetry: Optional[TelemetryPipeline] = None
    faults: Optional[FaultPlane] = None
    heartbeat: Optional[HeartbeatMonitor] = None
    federation: Optional[Federation] = None
    #: :class:`~repro.server.reconfig.ElasticScaler` when autoscaling is on
    scaler: Optional[object] = None
    #: workloads queued via ``ClusterBuilder.workload``, in chain order
    workloads: List[object] = field(default_factory=list)
    #: :class:`~repro.obs.surface.Observability` when the surface is on
    obs: Optional[object] = None

    @property
    def view(self):
        """The monitoring view routing reads: the federated root when
        federation is on, the flat front-end poller otherwise."""
        return self.federation.root if self.federation is not None else self.monitor

    def run(self, until: int) -> None:
        self.sim.run(until)


def _keyword_params(method) -> List[str]:
    """The keyword-only parameters a chain method takes itself."""
    return [p.name for p in inspect.signature(method).parameters.values()
            if p.kind is p.KEYWORD_ONLY]


class ClusterBuilder:
    """Fluent assembly of a monitored cluster (see module docstring).

    Every plane method switches its plane on in the builder's
    :class:`~repro.config.SimConfig` and sets the given knobs there, so
    ``build()`` reads every switch from the config alone. The builder
    itself keeps only the scheme choice, the workload queue and the
    telemetry rules (rules are code, not configuration).
    """

    def __init__(self, cfg: Optional[SimConfig] = None) -> None:
        self._cfg = cfg if cfg is not None else SimConfig()
        self._scheme_name = "rdma-sync"
        self._interval: Optional[int] = None
        self._scheme_kwargs: dict = {}
        self._telemetry_rules = None
        self._workloads: list = []
        self._built = False

    def _enable(self, method, section, knobs: dict) -> "ClusterBuilder":
        """Switch ``section``'s plane on, then set ``knobs`` on it.

        ``method`` is the calling chain method. A keyword that is
        neither a field of the section nor one of the method's own
        keyword parameters raises a TypeError that names the method,
        with a did-you-mean hint, before anything is set.
        """
        fields = section.__dataclass_fields__
        for name in knobs:
            if name not in fields or name == "enabled":
                valid = sorted({*fields, *_keyword_params(method)} - {"enabled"})
                matches = get_close_matches(name, valid, n=1, cutoff=0.6)
                hint = f" — did you mean {matches[0]!r}?" if matches else ""
                raise TypeError(
                    f"ClusterBuilder.{method.__name__}() got unknown keyword "
                    f"argument {name!r}{hint} (valid keywords: {', '.join(valid)})")
        if "enabled" in fields:
            section.enabled = True
        for name, value in knobs.items():
            setattr(section, name, value)
        return self

    # -- knobs ----------------------------------------------------------
    def scheme(self, name: str, *, interval: Optional[int] = None,
               **kwargs) -> "ClusterBuilder":
        """Choose the monitoring scheme (default ``rdma-sync``).

        ``interval`` overrides ``cfg.monitor.interval`` for the scheme's
        probe loop; extra keywords are forwarded to the scheme
        constructor via :func:`~repro.monitoring.registry.create_scheme`
        (which rejects unknown ones by name).
        """
        self._scheme_name = name
        self._interval = interval
        self._scheme_kwargs = kwargs
        return self

    def workers(self, n: int) -> "ClusterBuilder":
        """Web-server worker processes per back-end
        (``cfg.server.workers_per_server``)."""
        self._cfg.server.workers_per_server = n
        return self

    def workload(self, name: str, **kwargs) -> "ClusterBuilder":
        """Queue a registered workload to start as part of ``build()``.

        ``name`` is a :mod:`repro.workloads` registry entry
        (``"rubis"``, ``"openloop"``, ``"replay"``, ``"background"``,
        ``"incast"``, ...); keywords are that workload's parameters —
        both are validated *here*, at chain time, with did-you-mean
        hints, so a typo fails where it was written rather than deep in
        ``build()``. Node-valued parameters accept back-end indices.
        The instantiated workloads land in the built cluster's
        ``workloads`` list, in chain order.
        """
        from repro.workloads import _audit_workload_kwargs, get_workload_spec

        spec = get_workload_spec(name)
        _audit_workload_kwargs(spec, kwargs)
        self._workloads.append((spec, kwargs))
        return self

    # -- planes: each sets its cfg section (see _enable) ------------------
    def with_admission(self, **knobs) -> "ClusterBuilder":
        """Reject requests while the cluster scores above ``max_score``
        (``cfg.admission``)."""
        return self._enable(self.with_admission, self._cfg.admission, knobs)

    def with_telemetry(self, *, rules=None, **knobs) -> "ClusterBuilder":
        """Attach the bounded telemetry pipeline to the front-end monitor
        (``cfg.telemetry``); ``rules`` replaces the stock alert rules."""
        self._enable(self.with_telemetry, self._cfg.telemetry, knobs)
        self._telemetry_rules = rules
        return self

    def with_alert_shedding(self) -> "ClusterBuilder":
        """Route around critically-alerted back-ends (implies telemetry)."""
        return self._enable(self.with_alert_shedding, self._cfg.telemetry,
                            {"shed_on_alert": True})

    def with_tracing(self, *, sample: Optional[float] = None,
                     **knobs) -> "ClusterBuilder":
        """Enable the causal span plane (``cfg.tracing``); ``sample`` is
        the head-sampling rate, ``cfg.tracing.sample_rate``."""
        if sample is not None:
            knobs["sample_rate"] = sample
        return self._enable(self.with_tracing, self._cfg.tracing, knobs)

    def with_faults(self, schedule) -> "ClusterBuilder":
        """Install the deterministic fault plane (``cfg.faults``).

        ``schedule`` is a :class:`~repro.faults.FaultSchedule` or
        schedule text for :func:`~repro.faults.parse_schedule`.
        """
        if isinstance(schedule, str):
            schedule = parse_schedule(schedule)
        elif not isinstance(schedule, FaultSchedule):
            raise TypeError("with_faults() takes a FaultSchedule or schedule text")
        return self._enable(self.with_faults, self._cfg.faults,
                            {"schedule": schedule})

    def with_heartbeat(self, **knobs) -> "ClusterBuilder":
        """Run the RDMA heartbeat monitor and health-aware failover
        (``cfg.heartbeat``: ``interval``, ``timeout``, ``hung_after``)."""
        return self._enable(self.with_heartbeat, self._cfg.heartbeat, knobs)

    def congestion(self, **knobs) -> "ClusterBuilder":
        """Enable the congestion-realistic fabric, ECN/DCQCN/PFC
        (``cfg.congestion``: ``dcqcn=False``, ``ecn_kmin=...``, ...)."""
        return self._enable(self.congestion, self._cfg.congestion, knobs)

    def tenancy(self, **knobs) -> "ClusterBuilder":
        """Enable the multi-tenant NIC resource model (``cfg.tenancy``).

        Every NIC gets a bounded QP table and a shared ICM context
        cache, and tenant verbs are policed at post time. The built
        cluster's ``sim.tenancy`` handle carries the registry and the
        defense loop.
        """
        return self._enable(self.tenancy, self._cfg.tenancy, knobs)

    def observability(self, **knobs) -> "ClusterBuilder":
        """Enable the OpenMetrics observability surface (``cfg.obs``).

        The build also attaches the telemetry pipeline, the registry's
        richest source. The built cluster's ``obs`` handle carries the
        registry, the ``/metrics`` server (when ``http=True``) and
        :meth:`~repro.obs.surface.Observability.job_report`.
        """
        return self._enable(self.observability, self._cfg.obs, knobs)

    def with_elastic_scaler(self, **knobs) -> "ClusterBuilder":
        """Enable monitoring-driven elastic autoscaling (``cfg.scaler``).

        The :class:`~repro.server.reconfig.ElasticScaler` is driven by
        the cluster's monitoring ``view``; its ``scaler`` handle carries
        the scale-event log and load samples.
        """
        return self._enable(self.with_elastic_scaler, self._cfg.scaler, knobs)

    def with_federation(self, **knobs) -> "ClusterBuilder":
        """Deploy the sharded monitoring fabric (``cfg.federation``).

        Leaves poll their shard with the chosen scheme, the root merges
        leaf snapshots, the dispatcher routes through the
        shard-then-node balancer, and the flat front-end poller stays
        idle. ``levels=3`` inserts region aggregators between leaves and
        root (see docs/FEDERATION.md).
        """
        return self._enable(self.with_federation, self._cfg.federation, knobs)

    # -- assembly -------------------------------------------------------
    @gc_paused(1)
    def build(self):
        """Wire everything up and return the :class:`RubisCluster` handle.

        Every plane is on exactly when its ``cfg`` section says so. The
        order is fixed by who needs whom: faults and heartbeat before
        federation, federation before the scaler, the scaler before the
        dispatcher. The cyclic collector is paused meanwhile (see
        :func:`repro.sim.engine.gc_paused`)."""
        if self._built:
            raise RuntimeError("ClusterBuilder.build() may only be called once")
        self._built = True
        cfg = self._cfg
        scheme_name = self._scheme_name
        sim = build_cluster(cfg)

        servers = [BackendServer(be, sim.rng.stream(f"db:{be.name}"))
                   for be in sim.backends]
        for server in servers:
            server.start()

        scheme = create_scheme(scheme_name, sim, interval=self._interval,
                               **self._scheme_kwargs)
        c = RubisCluster(sim, servers, scheme, FrontendMonitor(scheme))
        if not cfg.federation.enabled:
            # With federation on, the flat front-end poller stays idle
            # (its O(N) fan-out is exactly what the two-level fabric
            # replaces); the deployed scheme remains available for
            # direct queries.
            c.monitor.start()

        tm = cfg.telemetry
        # obs implies the pipeline, the exposition's richest source;
        # attaching it is free in simulated time.
        if tm.enabled or tm.shed_on_alert or cfg.obs.enabled:
            c.telemetry = TelemetryPipeline(rules=self._telemetry_rules)
            c.telemetry.attach(c.monitor)
            if sim.congestion is not None:
                c.telemetry.attach_congestion(sim.congestion)
            if sim.tenancy is not None:
                c.telemetry.attach_tenancy(sim.tenancy)
        telemetry = c.telemetry

        if cfg.faults.schedule is not None:
            c.faults = FaultPlane(sim, cfg.faults.schedule).install()
            if telemetry is not None:
                telemetry.attach_faults(c.faults)

        hb = cfg.heartbeat
        if hb.enabled:
            c.heartbeat = HeartbeatMonitor(sim, interval=hb.interval,
                                           timeout=hb.timeout,
                                           hung_after=hb.hung_after)
            if telemetry is not None:
                telemetry.attach_heartbeat(c.heartbeat)

        if cfg.federation.enabled:
            c.federation = deploy_federation(sim, scheme_name=scheme_name,
                                             heartbeat=c.heartbeat)
            if telemetry is not None:
                telemetry.attach_federation(c.federation)
            if sim.tenancy is not None:
                # Quarantining a tenant re-splits shard assignments so
                # routing routes around the noisy neighborhood.
                sim.tenancy.federation = c.federation

        if cfg.scaler.enabled:
            from repro.server.reconfig import ElasticScaler  # deferred: opt-in
            sc = cfg.scaler
            c.scaler = ElasticScaler(
                sim,
                view=c.view,
                interval=(sc.interval or cfg.monitor.interval),
                high_water=sc.high_water,
                low_water=sc.low_water,
                initial_active=sc.initial_active,
                min_active=sc.min_active,
                max_active=sc.max_active,
                up_after=sc.up_after,
                down_after=sc.down_after,
                cooldown=sc.cooldown,
                federation=c.federation,
                health=c.heartbeat,
            )
            if telemetry is not None:
                telemetry.attach_scaler(c.scaler)

        irq = scheme_name == "e-rdma-sync"
        rng = sim.rng.stream("loadbalancer")
        if c.federation is not None:
            balancer = TwoLevelBalancer(c.federation.topology,
                                        use_irq_pressure=irq, rng=rng)
        else:
            balancer = LeastLoadedBalancer(num_backends=len(servers),
                                           use_irq_pressure=irq, rng=rng)
        balancer.tracer = sim.spans
        balancer.trace_node = sim.frontend.name
        c.balancer = balancer
        shedding = telemetry if tm.shed_on_alert else None
        if cfg.admission.enabled:
            c.admission = AdmissionController(
                num_backends=len(servers),
                max_score=cfg.admission.max_score,
                balancer=balancer,
                alert_engine=(shedding.engine if shedding is not None else None),
            )
            c.admission.tracer = sim.spans
            c.admission.trace_node = sim.frontend.name
        c.dispatcher = Dispatcher(
            sim.frontend, servers, balancer,
            monitor=c.view,
            admission=c.admission,
            health=(c.scaler if c.scaler is not None else c.heartbeat),
            telemetry=shedding,
        )
        c.dispatcher.start()
        if self._workloads:
            from repro.workloads import create_workload

            for spec, kwargs in self._workloads:
                obj = create_workload(
                    spec.name, sim,
                    dispatcher=(c.dispatcher if spec.needs_dispatcher else None),
                    **kwargs)
                if spec.needs_start:
                    obj.start()
                c.workloads.append(obj)
        if cfg.obs.enabled:
            from repro.obs import Observability  # deferred: heavy-ish, opt-in
            c.obs = Observability.deploy(c, cfg.obs)
        return c
