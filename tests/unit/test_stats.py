"""Unit tests for interval statistics collection."""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import make_network
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.topology import ClosSpec
from repro.simulator.units import mb, ms
from repro.tuning.parameters import default_params
from repro.tuning.search import StaticTuner
from repro.workloads import AllToAllOnce


@pytest.fixture
def net(tiny_spec):
    return Network(NetworkConfig(spec=tiny_spec, seed=1))


def test_idle_interval_metrics(net):
    net.run_until(ms(1.0))
    stats = net.stats.end_interval()
    assert stats.throughput_util == 0.0
    assert stats.norm_rtt == 1.0        # no samples -> optimistic default
    assert stats.pfc_ok == 1.0
    assert stats.active_uplinks == 0
    assert stats.total_tx_bytes == 0
    assert stats.duration == pytest.approx(ms(1.0))


def test_zero_length_interval_rejected(net):
    with pytest.raises(ValueError):
        net.stats.end_interval()


def test_active_uplink_utilization(net):
    net.add_flow(0, 2, mb(1.0), 0.0)
    net.run_until(ms(1.0))
    stats = net.stats.end_interval()
    assert stats.active_uplinks == 1
    assert 0.0 < stats.throughput_util <= 1.0
    assert stats.total_tx_bytes > 0


def test_oracle_flow_bytes(net):
    flow = net.add_flow(0, 2, 50_000, 0.0)
    net.run_until(ms(5.0))
    stats = net.stats.end_interval()
    assert stats.flow_bytes.get(flow.flow_id) == 50_000


def test_oracle_resets_between_intervals(net):
    net.add_flow(0, 2, 50_000, 0.0)
    net.run_until(ms(5.0))
    net.stats.end_interval()
    net.run_until(ms(10.0))
    stats = net.stats.end_interval()
    assert stats.flow_bytes == {}


def test_intervals_own_distinct_flow_byte_tables(net):
    net.add_flow(0, 2, mb(4.0), 0.0)
    net.run_until(ms(1.0))
    first = net.stats.end_interval()
    first.flow_bytes[-1] = 7
    net.run_until(ms(2.0))
    second = net.stats.end_interval()
    assert second.flow_bytes and second.flow_bytes is not first.flow_bytes
    assert -1 not in second.flow_bytes
    second.flow_bytes.clear()
    assert first.flow_bytes[-1] == 7 and len(first.flow_bytes) > 1


def test_interval_close_reads_base_rtt_per_hop_class_not_per_sample(monkeypatch):
    """O_RTT's base delay is a fabric constant: probes never walk the topology."""
    calls = []
    path_hops = ClosSpec.path_hops

    def counting_path_hops(self, src, dst):
        hops = path_hops(self, src, dst)
        calls.append(hops)
        return hops

    monkeypatch.setattr(ClosSpec, "path_hops", counting_path_hops)
    network = make_network("medium", seed=1)
    AllToAllOnce(n_workers=16, flow_size=mb(2.0)).install(network)
    result = ExperimentRunner(
        network, StaticTuner(default_params(), "default")
    ).run(0.02)
    samples = sum(stats.rtt_samples for stats in result.intervals)
    assert len(result.intervals) == 20 and samples > 1000
    assert all(calls.count(hops) <= 1 for hops in set(calls)), len(calls)


def test_rtt_samples_collected_under_traffic(net):
    net.add_flow(0, 2, mb(2.0), 0.0)
    net.run_until(ms(2.0))
    stats = net.stats.end_interval()
    assert stats.rtt_samples > 0
    assert 0.0 < stats.norm_rtt <= 1.0
    assert stats.mean_rtt > 0


def test_norm_rtt_degrades_under_congestion(net):
    # Light load first.
    net.add_flow(0, 2, mb(0.2), 0.0)
    net.run_until(ms(2.0))
    light = net.stats.end_interval()
    # Then a 3-to-1 incast hammers the receiver downlink.
    for src in (0, 1, 3):
        net.add_flow(src, 2, mb(4.0), net.sim.now)
    net.run_until(net.sim.now + ms(4.0))
    heavy = net.stats.end_interval()
    assert heavy.norm_rtt < light.norm_rtt


def test_history_accumulates(net):
    for _ in range(3):
        net.run_until(net.sim.now + ms(1.0))
        net.stats.end_interval()
    assert len(net.stats.history) == 3
    starts = [s.t_start for s in net.stats.history]
    assert starts == sorted(starts)


def test_pfc_ok_reflects_pauses(net):
    # Manually pause a host egress for half an interval.
    net.run_until(ms(1.0))
    net.stats.end_interval()
    net.hosts[0].egress.set_paused(True)
    net.run_until(ms(1.5))
    net.hosts[0].egress.set_paused(False)
    net.run_until(ms(2.0))
    stats = net.stats.end_interval()
    assert stats.pause_fraction > 0.0
    assert stats.pfc_ok < 1.0
