"""The deployed observability surface for one cluster.

:class:`Observability` is what ``ClusterBuilder.observability(...)``
hangs off the cluster handle: the registry wired to every present
plane, plus the optional consumers the ``cfg.obs`` knobs enabled — a
per-epoch snapshot writer and/or a live ``/metrics`` HTTP endpoint.
Everything is observer-side; simulated time is untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.httpd import MetricsServer
from repro.obs.jobreport import JobReport, build_job_report
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshots import SnapshotWriter

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import ObsConfig


class Observability:
    """Registry + optional snapshot writer + optional scrape endpoint."""

    def __init__(self, registry: MetricsRegistry, cfg: "ObsConfig",
                 cluster=None) -> None:
        self.registry = registry
        self.cfg = cfg
        self.cluster = cluster
        self.writer: Optional[SnapshotWriter] = None
        self.server: Optional[MetricsServer] = None

    # ------------------------------------------------------------------
    @classmethod
    def deploy(cls, cluster, cfg: "ObsConfig") -> "Observability":
        """Wire the surface onto a built cluster per the config knobs."""
        registry = MetricsRegistry.from_cluster(
            cluster, namespace=cfg.namespace, quantiles=cfg.quantiles)
        obs = cls(registry, cfg, cluster=cluster)
        if cfg.snapshot_dir:
            obs.writer = SnapshotWriter(
                registry, cfg.snapshot_dir, every=cfg.snapshot_every)
            obs.writer.attach(cluster.view)
        if cfg.http:
            obs.server = MetricsServer(
                registry, host=cfg.http_host, port=cfg.http_port,
                report_provider=obs.job_report)
            obs.server.start()
        return obs

    # ------------------------------------------------------------------
    def exposition(self) -> str:
        """The OpenMetrics text of the current simulator state."""
        return self.registry.render()

    def snapshot(self):
        """Write one exposition snapshot now (needs ``snapshot_dir``)."""
        if self.writer is None:
            raise RuntimeError(
                "no snapshot writer: set cfg.obs.snapshot_dir (or pass "
                "snapshot_dir=... to ClusterBuilder.observability)")
        return self.writer.write()

    def job_report(self, job: str = "rubis", stats=None) -> JobReport:
        """Build the per-session job report for this cluster."""
        if self.cluster is None:
            raise RuntimeError("observability surface has no cluster handle")
        return build_job_report(self.cluster, job=job, stats=stats)

    def stop(self) -> None:
        """Shut down the scrape endpoint (if one was started)."""
        if self.server is not None:
            self.server.stop()
