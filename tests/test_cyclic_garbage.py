"""A cap on the cyclic garbage a simulation leaves for the collector.

The simulator's entry points pause Python's cyclic collector, which is
only sound while building, running and reading out a cluster produce
almost no reference cycles: whatever cycles they do make wait for the
caller's next collection. These tests build, run and read out two small
clusters with the collector off and count what ``gc.collect()`` then
frees, per 1,000 simulated events. A cycle added on a per-event,
per-request or per-span path multiplies that count and fails here
instead of leaking silently.
"""

import gc

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import MILLISECOND as MS

#: cyclic objects allowed per 1,000 simulated events over build, run
#: and read-out. Measured: 0 on the federated cluster; about 2 on the
#: all-planes one (one-off type creation by the first build in a
#: process, plus queue pairs torn down during the run).
MAX_GARBAGE_PER_KEVENT = 5

FAULTS = ("at 100ms crash backend3\n"
          "at 200ms recover backend3\n"
          "from 150ms to 250ms degrade-link frontend backend1 latency=20 bw=0.5\n")


def federated():
    cfg = SimConfig(num_backends=27, master_seed=3)
    builder = (ClusterBuilder(cfg).scheme("rdma-sync", interval=MS)
               .with_federation(levels=3, leaf_interval=MS, root_interval=MS,
                                region_interval=MS))
    return builder, 20 * MS


def all_planes():
    cfg = SimConfig(num_backends=8, master_seed=3)
    cfg.monitor.probe_timeout = 2 * MS
    builder = (ClusterBuilder(cfg).scheme("e-rdma-sync", interval=10 * MS)
               .with_federation(levels=2, leaf_interval=10 * MS,
                                root_interval=10 * MS)
               .workers(8).workload("rubis", num_clients=48, think_time=3 * MS)
               .with_tracing(sample=1.0)
               .observability(http=False)
               .with_admission()
               .with_heartbeat()
               .with_elastic_scaler(initial_active=6)
               .congestion(monitor_priority=True)
               .tenancy(defense=True)
               .with_faults(FAULTS)
               .workload("read-blaster", src=6, target=7,
                         start_after=50 * MS, stop_after=250 * MS))
    return builder, 300 * MS


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("make", [federated, all_planes])
def test_cyclic_garbage_per_kevent_is_capped(make, collector_off):
    builder, until = make()
    cluster = builder.build()
    garbage = {"build": gc.collect()}
    cluster.run(until)
    garbage["run"] = gc.collect()
    if cluster.federation is not None:
        assert cluster.federation.root.latest
    if cluster.obs is not None:
        assert cluster.obs.exposition()
        garbage["exposition"] = gc.collect()
        assert cluster.obs.job_report()
        garbage["job_report"] = gc.collect()
    kevents = cluster.sim.env.processed_events / 1000
    assert kevents > 5
    assert sum(garbage.values()) <= MAX_GARBAGE_PER_KEVENT * kevents, garbage
