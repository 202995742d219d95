"""Unit tests for interval statistics collection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import make_network
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.switch import SwitchConfig
from repro.simulator.topology import ClosSpec
from repro.simulator.units import kb, mb, ms
from repro.tuning.parameters import default_params
from repro.tuning.search import StaticTuner
from repro.workloads import AllToAllOnce
from tests.loop_close import CLOSE_FIELDS, LoopStatsCollector


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


# -- the close against its loop reference (tests/loop_close.py) ---------


def _pfc_fabric(seed: int) -> Network:
    """4 hosts, a 60 KB shared buffer: a 3-to-1 incast pauses ports."""
    spec = ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=2)
    return Network(
        NetworkConfig(
            spec=spec, seed=seed, switch=SwitchConfig(buffer_bytes=kb(60.0))
        )
    )


def _paused_now(net: Network) -> bool:
    egresses = [h.egress for h in net.hosts] + [e for s in net.switches for e in s.egress]
    return any(egress.pause.paused for egress in egresses)


def _assert_same_close(stats, reference: dict) -> None:
    for name in CLOSE_FIELDS:
        got, want = getattr(stats, name), reference[name]
        assert (type(got), repr(got)) == (type(want), repr(want)), name


def _close_both(net: Network, ref: LoopStatsCollector, bad_rtts=()) -> None:
    for rtt in bad_rtts:
        # rtt <= 0 never counts; a tiny rtt clips O_RTT's term at 1.
        net.hosts[0].on_rtt_sample(0, 3, rtt, 3)
    _assert_same_close(net.stats.end_interval(), ref.end_interval())


def test_close_equals_loop_reference_across_paused_boundaries():
    net = _pfc_fabric(seed=5)
    ref = LoopStatsCollector(net)
    for src in (0, 1, 3):
        net.add_flow(src, 2, mb(1.0), 0.0)
    paused_at_close = 0
    for i in range(1, 16):
        net.run_until(i * 0.2e-3)
        paused_at_close += _paused_now(net)
        _close_both(net, ref, bad_rtts=(0.0, -1e-6, 1e-12)[: i % 4])
    assert paused_at_close >= 3
    pauses = [s.pause_fraction for s in net.stats.history]
    assert max(pauses) > 0.0 and min(s.active_uplinks for s in net.stats.history) < 4


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    flows=st.lists(
        st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(1, 400), st.integers(0, 8)
        ),
        max_size=5,
    ),
    steps=st.lists(st.integers(1, 6), min_size=1, max_size=8),
    bad_rtts=st.lists(
        st.sampled_from([0.0, -0.0, -1e-6, 1e-12, 5e-6]), max_size=4
    ),
)
def test_close_equals_loop_reference_on_seeded_fabrics(seed, flows, steps, bad_rtts):
    """Random flows, interval lengths and injected samples: every field
    of every close matches the loop reference bit for bit."""
    net = _pfc_fabric(seed)
    ref = LoopStatsCollector(net)
    for src, dst, kbytes, start in flows:
        if src != dst:
            net.add_flow(src, dst, kb(kbytes), start * 0.1e-3)
    for i, step in enumerate(steps):
        net.run_until(net.sim.now + step * 0.1e-3)
        _close_both(net, ref, bad_rtts=bad_rtts if i % 2 else ())
