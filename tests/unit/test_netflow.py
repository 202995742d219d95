"""Unit tests for the NetFlow sampling baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch.netflow import NetFlowConfig, NetFlowMonitor
from tests.scalar_monitor import netflow_read_and_reset


def observe(monitor, flow_id, wire_bytes, packets=1):
    """``packets`` equal packets of one flow through the data-plane hook."""
    monitor.observe_batch(
        np.full(packets, flow_id, dtype=np.int64),
        np.full(packets, wire_bytes, dtype=np.int64),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        NetFlowConfig(sampling_rate=0)
    with pytest.raises(ValueError):
        NetFlowConfig(export_interval=0.0)


@pytest.mark.parametrize(
    "overrides, field",
    [
        # A NaN or infinite interval never exports.
        ({"export_interval": float("nan")}, "export_interval"),
        ({"export_interval": float("inf")}, "export_interval"),
        # A fractional rate would fail randrange() on the first packet.
        ({"sampling_rate": 2.5}, "sampling_rate"),
        ({"sampling_rate": float("nan")}, "sampling_rate"),
    ],
)
def test_config_rejects_non_finite_interval_and_fractional_rate(overrides, field):
    with pytest.raises(ValueError, match=field):
        NetFlowConfig(**overrides)


def test_sampling_rate_one_sees_everything():
    monitor = NetFlowMonitor(NetFlowConfig(sampling_rate=1, seed=1))
    observe(monitor, 7, 1000, packets=10)
    assert netflow_read_and_reset(monitor) == {7: 10_000}
    assert monitor.packets_sampled == 10


def test_sampling_scales_estimates():
    monitor = NetFlowMonitor(NetFlowConfig(sampling_rate=100, seed=1))
    observe(monitor, 7, 1000, packets=100_000)
    estimate = netflow_read_and_reset(monitor)[7]
    # 1:100 sampling scaled back up: unbiased around the truth.
    assert estimate == pytest.approx(100_000_000, rel=0.15)
    assert monitor.packets_sampled == pytest.approx(1000, rel=0.25)


def test_small_flows_often_missed():
    monitor = NetFlowMonitor(NetFlowConfig(sampling_rate=100, seed=2))
    # 200 mice with 3 packets each: most never get sampled.
    for flow in range(200):
        observe(monitor, flow, 1000, packets=3)
    seen = netflow_read_and_reset(monitor)
    assert len(seen) < 50


def test_batches_draw_like_single_packets():
    """A batch samples exactly the packets it would one packet at a time."""
    rng = np.random.default_rng(4)
    ids = rng.integers(0, 30, size=500)
    sizes = rng.integers(64, 1500, size=500)
    whole = NetFlowMonitor(NetFlowConfig(sampling_rate=7, seed=5))
    whole.observe_batch(ids, sizes)
    single = NetFlowMonitor(NetFlowConfig(sampling_rate=7, seed=5))
    for flow_id, nbytes in zip(ids.tolist(), sizes.tolist()):
        observe(single, flow_id, nbytes)
    assert netflow_read_and_reset(whole) == netflow_read_and_reset(single)
    assert whole.packets_sampled == single.packets_sampled
    assert whole.packets_seen == single.packets_seen == 500


def test_export_staleness():
    monitor = NetFlowMonitor(NetFlowConfig(sampling_rate=1, export_interval=1.0, seed=1))
    observe(monitor, 1, 500)
    # Before the interval elapses, exports are empty/stale.
    assert monitor.maybe_export(0.5) == {}
    # After 1 s the cache is exported...
    export = monitor.maybe_export(1.5)
    assert export == {1: 500}
    # ...and stays visible (stale) until the next interval boundary.
    observe(monitor, 2, 800)
    assert monitor.maybe_export(1.9) == {1: 500}
    assert monitor.maybe_export(3.0) == {2: 800}


def test_packets_seen_counter():
    monitor = NetFlowMonitor(NetFlowConfig(sampling_rate=10, seed=3))
    observe(monitor, 1, 100, packets=50)
    assert monitor.packets_seen == 50
    assert monitor.packets_sampled <= 50
