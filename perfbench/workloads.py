"""The benchmark's three workloads: how each is built, read out and checked.

Every workload goes through the public front door only:
``ClusterBuilder(cfg)...build()``, then ``cluster.run(...)``, then
public attributes of the returned handle. ``PARAMS`` is the single
description of each workload; it is copied into every result so a
number can always be traced back to the configuration that made it.
Why each workload exists is recorded in ``README.md`` beside this file.
"""

from __future__ import annotations

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import MILLISECOND as MS

#: RUBiS load point of the paper's Table 1 experiment
#: (``repro.experiments.table1_rubis.DEFAULTS``), doubled with the
#: back-end count: 4 -> 8 back-ends, 96 -> 192 closed-loop clients.
RUBIS_LOAD = dict(num_clients=192, think_time=3 * MS, demand_cv=0.4,
                  burst_length=10, idle_factor=8)

#: Fault schedule of ``rubis8-planes``: one crash/recover and one
#: degraded front-end link, inside the 1 s slice.
PLANES_FAULTS = (
    "at 300ms crash backend3\n"
    "at 600ms recover backend3\n"
    "from 400ms to 700ms degrade-link frontend backend1 latency=20 bw=0.5\n"
)

PARAMS = {
    "fed4096": dict(
        backends=4096, scheme="rdma-sync", poll_interval_ns=1 * MS,
        federation_levels=3, slice_ns=5 * MS),
    "rubis8-socket": dict(
        backends=8, scheme="socket-sync", poll_interval_ns=10 * MS,
        workers=32, rubis=RUBIS_LOAD, slice_ns=2000 * MS),
    "rubis8-planes": dict(
        backends=8, scheme="e-rdma-sync", poll_interval_ns=10 * MS,
        workers=32, rubis=RUBIS_LOAD, federation_levels=2,
        probe_timeout_ns=2 * MS, tracing_sample=1.0, obs_http=False,
        scaler_initial_active=6, congestion_monitor_priority=True,
        tenancy_defense=True,
        read_blaster=dict(src=6, target=7, start_after=200 * MS,
                          stop_after=800 * MS),
        faults=PLANES_FAULTS, slice_ns=1000 * MS),
}


def build(name: str, seed: int):
    """Build workload ``name`` at ``seed``; returns the cluster handle.

    Admission control and the heartbeat monitor, which take no
    parameters here, are on exactly when ``tenancy_defense`` is given,
    that is on ``rubis8-planes``.
    """
    p = PARAMS[name]
    cfg = SimConfig(num_backends=p["backends"], master_seed=seed)
    interval = p["poll_interval_ns"]
    b = ClusterBuilder(cfg).scheme(p["scheme"], interval=interval)
    if "federation_levels" in p:
        levels = p["federation_levels"]
        b.with_federation(levels=levels, leaf_interval=interval,
                          root_interval=interval,
                          region_interval=interval if levels == 3 else 0)
    if "rubis" in p:
        b.workers(p["workers"]).workload("rubis", **p["rubis"])
    if "tenancy_defense" in p:
        cfg.monitor.probe_timeout = p["probe_timeout_ns"]
        (b.with_tracing(sample=p["tracing_sample"])
         .observability(http=p["obs_http"])
         .with_admission()
         .with_heartbeat()
         .with_elastic_scaler(initial_active=p["scaler_initial_active"])
         .congestion(monitor_priority=p["congestion_monitor_priority"])
         .tenancy(defense=p["tenancy_defense"])
         .with_faults(p["faults"])
         .workload("read-blaster", **p["read_blaster"]))
    return b.build()


# ----------------------------------------------------------------------
# simulated-time outcomes (exact at a fixed seed)
# ----------------------------------------------------------------------
def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    idx = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values) + 0.5) - 1))
    return float(sorted_values[idx])


def _monitor_schemes(cluster):
    fed = cluster.federation
    return [leaf.scheme for leaf in fed.leaves] if fed is not None else [cluster.scheme]


def sim_metrics(cluster) -> dict:
    """End-of-run simulated outcomes; a metric a workload lacks is absent."""
    out = {}
    lats = sorted(r.latency for s in _monitor_schemes(cluster) for r in s.records)
    out["sim.monitor_samples"] = len(lats)
    out["sim.monitor_lat_p50_us"] = _quantile(lats, 0.50) / 1e3
    out["sim.monitor_lat_p99_us"] = _quantile(lats, 0.99) / 1e3
    if cluster.workloads:
        stats = cluster.dispatcher.stats
        resp = sorted(stats.response_times())
        issued = sum(getattr(w, "issued", 0) for w in cluster.workloads)
        out["sim.requests_issued"] = issued
        out["sim.resp_samples"] = len(resp)
        out["sim.goodput_rps"] = len(resp) / (cluster.sim.env.now / 1e9)
        out["sim.resp_p50_ms"] = _quantile(resp, 0.50) / 1e6
        out["sim.resp_p999_ms"] = _quantile(resp, 0.999) / 1e6
        failed = stats.rejected_count + stats.timeout_count
        out["sim.failed_frac"] = failed / issued
    fed = cluster.federation
    if fed is not None:
        rounds = [max(t.rounds) for t in (*fed.leaves, *fed.regions, fed.root)
                  if t.rounds]
        out["sim.worst_tier_round_us"] = max(rounds) / 1e3
    return out


# ----------------------------------------------------------------------
# exact per-layer counts, read from public attributes after the run
# ----------------------------------------------------------------------
def _all_nodes(cluster):
    fed = cluster.federation
    extra = [*fed.leaf_nodes, *fed.region_nodes] if fed is not None else []
    return [*cluster.sim.nodes, *extra]


def layer_counts(cluster, objects) -> dict:
    """Exact counts per layer. ``objects`` is every live object
    (``gc.get_objects()``), the only way to reach every queue pair and
    socket endpoint, which no registry holds."""
    from repro.transport.sockets import SocketEndpoint
    from repro.transport.verbs import QueuePair

    sim = cluster.sim
    nodes = _all_nodes(cluster)
    cpus = [cpu for n in nodes for cpu in n.sched.cpus]
    qps = [o for o in objects if type(o) is QueuePair]
    socks = [o for o in objects if type(o) is SocketEndpoint]
    schemes = _monitor_schemes(cluster)
    records = [r for s in schemes for r in s.records]
    c = {
        "sim.events": sim.env.processed_events,
        "sim.cancelled_events": sim.env.cancelled_events,
        "kernel.ctx_switches": sum(cpu.ctx_switches for cpu in cpus),
        "kernel.wakeups": sum(n.sched.total_wakeups for n in nodes),
        "kernel.softirq_runs": sum(s.bh_executed for n in nodes
                                   for s in n.irq.percpu),
        "kernel.busy_ms": sum(cpu.user_ns + cpu.sys_ns + cpu.irq_ns
                              for cpu in cpus) / 1e6,
        "transport.rdma_reads": sum(qp.reads for qp in qps),
        "transport.sock_msgs": sum(s.tx_messages for s in socks),
        "hw.rdma_ops": sum(n.nic.rdma_ops_serviced for n in nodes),
        "monitoring.queries": len(records),
        "monitoring.fail_ratio": (sum(1 for r in records if not r.ok)
                                  / len(records)) if records else 0.0,
    }
    icm_hits = icm_misses = 0
    if sim.tenancy is not None:
        for state in sim.tenancy.stats()["nics"].values():
            icm_hits += state["icm_hits"]
            icm_misses += state["icm_misses"]
    lookups = icm_hits + icm_misses
    c["hw.icm_miss_ratio"] = icm_misses / lookups if lookups else 0.0
    fed = cluster.federation
    if fed is not None:
        tiers = [fed.root, *fed.regions]
        c["federation.polls"] = (fed.root.polls + sum(len(r.rounds) for r in fed.regions)
                                 + sum(len(leaf.rounds) for leaf in fed.leaves))
        c["federation.read_failures"] = sum(t.read_failures for t in tiers)
        c["federation.rebalances"] = fed.topology.rebalances
    else:
        c["federation.polls"] = c["federation.read_failures"] = 0
        c["federation.rebalances"] = 0
    c["telemetry.observations"] = (cluster.telemetry.store.total_samples
                                   if cluster.telemetry is not None else 0)
    spans = sim.spans
    c["tracing.spans"] = (len(spans.spans) + spans.dropped
                          if spans is not None and spans.enabled else 0)
    d = cluster.dispatcher
    c["server.forwarded"] = d.forwarded
    c["server.rerouted"] = d.rerouted_by_health + d.rerouted_by_alert
    queue = sorted(r.queue_time for r in d.stats.completed)
    c["server.queue_p99_ms"] = _quantile(queue, 0.99) / 1e6 if queue else 0.0
    ports = (sim.congestion.switch.ports().values()
             if sim.congestion is not None else ())
    c["congestion.enqueued"] = sum(p.enqueued for p in ports)
    c["congestion.ecn_marks"] = sum(p.ecn_marks for p in ports)
    c["tenancy.actions"] = len(sim.tenancy.actions) if sim.tenancy is not None else 0
    c["faults.fired"] = cluster.faults.applied if cluster.faults is not None else 0
    return c


# ----------------------------------------------------------------------
# output checks; each returns a list of failure messages
# ----------------------------------------------------------------------
def check(name: str, cluster, outputs: dict) -> list:
    errors = []
    p = PARAMS[name]
    if cluster.workloads:
        stats = cluster.dispatcher.stats
        issued = sum(getattr(w, "issued", 0) for w in cluster.workloads)
        recorded = stats.count() + stats.rejected_count + stats.timeout_count
        in_flight = issued - recorded
        # Closed loop: each client has at most one request outstanding.
        if not 0 <= in_flight <= p["rubis"]["num_clients"]:
            errors.append(f"request accounting: issued={issued} recorded={recorded}")
        if not stats.count():
            errors.append("no request completed")
    fed = cluster.federation
    if name == "fed4096":
        covered = len(fed.root.latest)
        if covered != p["backends"]:
            errors.append(f"root covers {covered} of {p['backends']} back-ends")
        tiers = (*fed.leaves, *fed.regions, fed.root)
        if not all(t.rounds for t in tiers):
            errors.append("a federation tier completed no round")
        elif max(max(t.rounds) for t in tiers) > p["poll_interval_ns"]:
            errors.append("a federation tier round exceeds the poll period")
    if name == "rubis8-planes":
        limit = cluster.sim.cfg.tenancy.qp_table_size
        for nic, state in cluster.sim.tenancy.stats()["nics"].items():
            if state["qp_count"] > limit:
                errors.append(f"{nic} holds {state['qp_count']} QPs > {limit}")
        from repro.obs.openmetrics import validate_exposition

        errors += [f"exposition: {e}" for e in validate_exposition(outputs["exposition"])]
    return errors
