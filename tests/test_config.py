"""Tests for configuration validation and functional updates."""

import dataclasses

import pytest

from repro.api import ClusterBuilder
from repro.config import SimConfig


def test_default_config_validates():
    SimConfig().validate()


def test_replace_is_functional():
    cfg = SimConfig()
    cfg2 = cfg.replace(num_backends=4)
    assert cfg.num_backends == 8
    assert cfg2.num_backends == 4
    for f in dataclasses.fields(cfg):
        section = getattr(cfg, f.name)
        if dataclasses.is_dataclass(section):
            assert getattr(cfg2, f.name) is not section, f.name
            assert getattr(cfg2, f.name) == section, f.name


def test_replace_copy_does_not_leak_plane_switches():
    cfg = SimConfig()
    ClusterBuilder(cfg.replace(num_backends=4)).with_heartbeat().congestion()
    assert cfg.heartbeat.enabled is False
    assert cfg.congestion.enabled is False


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: setattr(c, "num_backends", 0),
        lambda c: setattr(c.cpu, "num_cpus", 0),
        lambda c: setattr(c.cpu, "tick", 0),
        lambda c: setattr(c.cpu, "timeslice_ticks", 0),
        lambda c: setattr(c.net, "ipoib_bw_factor", 0.0),
        lambda c: setattr(c.net, "ipoib_bw_factor", 1.5),
        lambda c: setattr(c.irq, "softirq_budget", 0),
        lambda c: setattr(c.monitor, "interval", 0),
    ],
)
def test_invalid_configs_rejected(mutate):
    cfg = SimConfig()
    mutate(cfg)
    with pytest.raises(ValueError):
        cfg.validate()


def test_timing_constants_are_plausible():
    """RDMA must be cheaper than a socket round trip end to end."""
    cfg = SimConfig()
    rdma_floor = (cfg.net.doorbell_cost + cfg.net.nic_wqe_service
                  + cfg.net.nic_dma_service + cfg.net.cqe_cost)
    socket_floor = (2 * cfg.syscall.trap + cfg.net.tcp_tx_cost
                    + cfg.irq.nic_irq_cost + cfg.irq.softirq_per_packet)
    assert rdma_floor < socket_floor


def test_ablation_knobs_default_faithful():
    cfg = SimConfig()
    assert cfg.cpu.sticky_wakeups
    assert cfg.cpu.net_wake_boost
    assert cfg.cpu.kernel_nonpreemptible
