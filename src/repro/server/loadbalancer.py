"""Load-balancing policies.

The paper evaluates its schemes through "a popular algorithm used by IBM
WebSphere": per-server load indices (CPU, memory, network, connections)
are combined with configured weights into a single score, and requests
go to the least-loaded server (§5.2.1). The extended variant adds the
pending-interrupt pressure that only e-RDMA-Sync reports.

The balancer consults the :class:`~repro.monitoring.frontend.FrontendMonitor`
cache — so its quality is exactly the quality (freshness, accuracy) of
the monitoring scheme feeding it, which is the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.monitoring.loadinfo import LoadInfo


@dataclass
class LoadWeights:
    """WebSphere-style index weights."""

    cpu: float = 0.35
    runq: float = 0.25
    connections: float = 0.25
    memory: float = 0.05
    #: network-rate index (MB/s normalised against NETWORK_FULL_MBPS)
    network: float = 0.10
    #: weight of interrupt pressure (only meaningful with e-RDMA-Sync)
    irq: float = 0.25
    #: dispatcher-local in-flight term. Default 0: any positive weight
    #: moves the dispatcher toward join-shortest-queue, which needs no
    #: monitoring at all and erases the paper's comparison (see the
    #: lb-weights ablation). Near-equal scores are instead broken by
    #: round-robin rotation, as the WebSphere advisor does.
    inflight: float = 0.0


class LeastLoadedBalancer:
    """Weighted least-loaded selection over monitored load info.

    Requests are spread in proportion to each server's *capacity
    headroom* ``1 − score`` (IBM's dispatcher computes per-server weights
    from the load indices and distributes weighted-round-robin — "the
    least loaded servers are chosen", plural). Winner-take-all argmin
    would send every request of a polling window to one server; the
    proportional spread is what makes the *accuracy* of the monitored
    scores, not just their ordering, matter.
    """

    #: headroom floor so no server is ever completely starved of probes
    MIN_WEIGHT = 0.02

    def __init__(
        self,
        num_backends: int,
        weights: Optional[LoadWeights] = None,
        use_irq_pressure: bool = False,
        rng=None,
    ) -> None:
        if num_backends < 1:
            raise ValueError("need at least one back-end")
        self.num_backends = num_backends
        self.weights = weights if weights is not None else LoadWeights()
        self.use_irq_pressure = use_irq_pressure
        import numpy as np

        self.rng = rng if rng is not None else np.random.Generator(np.random.PCG64(0x10AD))
        self._rr = 0
        #: per-backend in-flight counter maintained by the dispatcher as a
        #: fallback signal before the first monitoring report arrives
        self.assigned: List[int] = [0] * num_backends
        #: span tracer + node label, wired by ClusterBuilder.build; the
        #: dispatcher hands us the request via set_request so the pick
        #: decision can be recorded under the request's trace
        self.tracer = None
        self.trace_node = ""
        self._trace_request = None

    # ------------------------------------------------------------------
    def set_request(self, request) -> None:
        """Dispatcher hook: the request the next ``choose`` decides for."""
        self._trace_request = request

    def _trace_pick(self, choice: int) -> None:
        request, self._trace_request = self._trace_request, None
        tracer = self.tracer
        if (tracer is None or not tracer.enabled or request is None
                or request.trace is None):
            return
        # The decision is instantaneous in sim time: a point span.
        now = tracer.now
        tracer.record("lb.pick", request.trace, now, now,
                      node=self.trace_node, component="balancer",
                      attrs={"choice": choice})

    # ------------------------------------------------------------------
    #: network rate (MB/s) treated as a fully-loaded link for scoring
    NETWORK_FULL_MBPS = 300.0

    def score(self, info: LoadInfo) -> float:
        """The WebSphere average-load score (lower = less loaded).

        The four indices the paper names — CPU, memory, network and
        connection load — plus the run-queue EMA as the fine-grained CPU
        pressure signal; e-RDMA-Sync adds interrupt pressure.
        """
        w = self.weights
        score = (
            w.cpu * info.cpu_util
            + w.runq * min(1.0, info.runq_load / 16.0)
            + w.connections * min(1.0, info.gauges.get("connections", 0.0) / 32.0)
            + w.memory * info.mem_util
            + w.network * min(1.0, info.net_rate_mbps / self.NETWORK_FULL_MBPS)
        )
        if self.use_irq_pressure:
            score += w.irq * min(1.0, info.irq_pressure / 8.0)
        return score

    def server_weights(self, loads: Dict[int, LoadInfo]) -> List[float]:
        """Per-server headroom weights derived from the monitor cache."""
        weights = []
        for i in range(self.num_backends):
            info = loads.get(i)
            score = 0.0 if info is None else self.score(info)
            score += self.weights.inflight * min(1.0, self.assigned[i] / 16.0)
            weights.append(max(self.MIN_WEIGHT, 1.0 - score))
        return weights

    def choose(self, loads: Dict[int, LoadInfo],
               exclude: Optional[Sequence[int]] = None) -> int:
        """Pick a back-end, weighted by monitored capacity headroom.

        With no (or uniformly stale) data every weight ties and the
        spread is uniform; with *wrong* data the proportions are wrong —
        the load the paper's fine-grained monitoring removes.

        ``exclude`` quarantines back-ends (health failover): their weight
        is zeroed so no request lands there. Excluding *everything* falls
        back to the full set — a wrong pick beats no pick. The default
        (no exclusion) draws from the RNG exactly as before, so healthy
        runs stay bit-identical.
        """
        excluded = set(exclude) if exclude else set()
        if len(excluded) >= self.num_backends:
            excluded = set()
        if not loads:
            self._rr = (self._rr + 1) % self.num_backends
            while self._rr in excluded:
                self._rr = (self._rr + 1) % self.num_backends
            self._trace_pick(self._rr)
            return self._rr
        weights = self.server_weights(loads)
        for i in excluded:
            if 0 <= i < self.num_backends:
                weights[i] = 0.0
        total = sum(weights)
        pick = self.rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if w > 0.0 and pick <= acc:
                self._trace_pick(i)
                return i
        # fp guard: last non-excluded backend
        for i in range(self.num_backends - 1, -1, -1):  # pragma: no cover
            if i not in excluded:
                return i
        return self.num_backends - 1  # pragma: no cover

    def note_assigned(self, backend: int) -> None:
        self.assigned[backend] += 1

    def note_completed(self, backend: int) -> None:
        if 0 <= backend < self.num_backends:
            self.assigned[backend] = max(0, self.assigned[backend] - 1)


class TwoLevelBalancer(LeastLoadedBalancer):
    """Shard-then-node selection over a federated monitoring view.

    Stage 1 picks a shard in proportion to its *aggregate* headroom
    (the sum of its members' headroom weights); stage 2 picks a node
    within the shard in proportion to individual headroom. The product
    of the two proportional draws preserves the flat balancer's
    marginal distribution over nodes, while the decision consults the
    current :class:`~repro.federation.topology.ShardTopology` — so
    quarantine-driven rebalances immediately reshape routing.
    """

    def __init__(
        self,
        topology,
        weights: Optional[LoadWeights] = None,
        use_irq_pressure: bool = False,
        rng=None,
    ) -> None:
        super().__init__(topology.num_backends, weights=weights,
                         use_irq_pressure=use_irq_pressure, rng=rng)
        self.topology = topology
        #: stage-1 pick counts per shard (diagnostics)
        self.shard_picks: List[int] = [0] * topology.num_shards

    def choose(self, loads: Dict[int, LoadInfo],
               exclude: Optional[Sequence[int]] = None) -> int:
        excluded = set(exclude) if exclude else set()
        if len(excluded) >= self.num_backends:
            excluded = set()
        if not loads:
            return super().choose(loads, exclude)
        weights = self.server_weights(loads)
        for i in excluded:
            if 0 <= i < self.num_backends:
                weights[i] = 0.0
        shard_members = [
            [g for g in self.topology.members(j) if weights[g] > 0.0]
            for j in range(self.topology.num_shards)
        ]
        shard_weights = [
            sum(weights[g] for g in members) for members in shard_members
        ]
        total = sum(shard_weights)
        if total <= 0.0:
            # every routable member excluded/empty: flat fallback
            return super().choose(loads, exclude)
        pick = self.rng.random() * total
        shard = self.topology.num_shards - 1
        acc = 0.0
        for j, w in enumerate(shard_weights):
            acc += w
            if w > 0.0 and pick <= acc:
                shard = j
                break
        self.shard_picks[shard] += 1
        members = shard_members[shard]
        subtotal = sum(weights[g] for g in members)
        pick = self.rng.random() * subtotal
        acc = 0.0
        for g in members:
            acc += weights[g]
            if pick <= acc:
                self._trace_pick(g)
                return g
        choice = members[-1]  # pragma: no cover - fp guard
        self._trace_pick(choice)
        return choice


class RoundRobinBalancer:
    """Monitoring-free baseline: strict rotation."""

    def __init__(self, num_backends: int) -> None:
        if num_backends < 1:
            raise ValueError("need at least one back-end")
        self.num_backends = num_backends
        self._next = 0

    def score(self, info: LoadInfo) -> float:  # pragma: no cover - interface parity
        return 0.0

    def choose(self, loads: Dict[int, LoadInfo],
               exclude: Optional[Sequence[int]] = None) -> int:
        chosen = self._next
        if exclude:
            excluded = set(exclude)
            if len(excluded) < self.num_backends:
                while chosen in excluded:
                    chosen = (chosen + 1) % self.num_backends
        self._next = (chosen + 1) % self.num_backends
        return chosen

    def note_assigned(self, backend: int) -> None:
        pass

    def note_completed(self, backend: int) -> None:
        pass
