"""Federation build memory grows with N, not with N times the shard count.

A three-level rdma-sync federation gives every leaf the whole cluster
as its universe, so quarantine rebalancing can move members between
shards. If each leaf sized its bookkeeping by that universe (a copied
back-end list, a global-to-local table, dense per-back-end wiring
arrays), build memory per node would rise with N, because the shard
count rises with N too. Leaves that share the cluster's back-end list
and wire only the members they poll keep it flat.

The test measures traced build bytes per node (tracemalloc, after
``build()``, before any poll) at N=256 and N=1024, with every leaf,
region and root polling each 1 ms. It asserts that the N=1024 figure is
at most ``MARGIN`` = 1.05 times the N=256 figure. Measured ratios
(N=1024 over N=256): 1.11 with per-leaf universe-sized bookkeeping,
0.88 with the shared universe and lazily wired members.
"""

import gc
import tracemalloc

from repro.api import ClusterBuilder
from repro.config import SimConfig
from repro.sim.units import ms

MARGIN = 1.05


def _build_bytes_per_node(n):
    cfg = SimConfig(num_backends=n, master_seed=1)
    interval = ms(1)
    builder = (ClusterBuilder(cfg)
               .scheme("rdma-sync", interval=interval)
               .with_federation(levels=3, leaf_interval=interval,
                                root_interval=interval,
                                region_interval=interval))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        app = builder.build()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(app.federation.leaves) > 1
    return (after - before) / n


def test_build_bytes_per_node_flat_in_n():
    small = _build_bytes_per_node(256)
    large = _build_bytes_per_node(1024)
    ratio = large / small
    assert ratio <= MARGIN, (
        f"build memory per node grew with N: {small / 1024:.1f} KB at "
        f"N=256, {large / 1024:.1f} KB at N=1024 (ratio {ratio:.3f} > "
        f"{MARGIN})")
