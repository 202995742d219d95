"""Unit tests for the Swift-style delay-based congestion control."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.engine import Simulator
from repro.simulator.swift import SwiftCc, SwiftParams
from repro.simulator.units import gbps, mbps, us

LINE = gbps(10.0)


def make_cc(sim, params=None):
    params = params or SwiftParams()
    cc = SwiftCc(sim, LINE, lambda: params)
    cc.start()
    return cc, params


def test_params_validation():
    SwiftParams().validate()
    with pytest.raises(ValueError):
        SwiftParams(base_target_delay=0.0).validate()
    with pytest.raises(ValueError):
        SwiftParams(beta=0.0).validate()
    with pytest.raises(ValueError):
        SwiftParams(max_mdf=1.0).validate()
    with pytest.raises(ValueError):
        SwiftParams(min_rate=0.0).validate()


def test_target_scales_with_hops():
    params = SwiftParams()
    assert params.target_for_hops(3) > params.target_for_hops(1)
    assert params.target_for_hops(0) == params.base_target_delay


def test_starts_at_line_rate(sim):
    cc, _ = make_cc(sim)
    assert cc.rc == LINE


def test_low_delay_increases_rate(sim):
    params = SwiftParams()
    cc, _ = make_cc(sim, params)
    cc.rc = gbps(1.0)
    sim.run_until(1e-3)
    cc.on_ack(params.base_target_delay * 0.5, hops=1)
    assert cc.rc == pytest.approx(gbps(1.0) + params.ai_rate)
    assert cc.increases == 1


def test_high_delay_cuts_rate(sim):
    params = SwiftParams()
    cc, _ = make_cc(sim, params)
    sim.run_until(1e-3)
    cc.on_ack(params.base_target_delay * 4.0, hops=1)
    assert cc.rc < LINE
    assert cc.decreases == 1


def test_cut_bounded_by_max_mdf(sim):
    params = SwiftParams(max_mdf=0.3)
    cc, _ = make_cc(sim, params)
    sim.run_until(1e-3)
    cc.on_ack(10.0, hops=1)  # absurd overshoot
    assert cc.rc >= LINE * 0.7 - 1e-6


def test_increase_paced_per_rtt(sim):
    params = SwiftParams()
    cc, _ = make_cc(sim, params)
    cc.rc = gbps(1.0)
    delay = params.base_target_delay * 0.5
    sim.run_until(1e-3)
    cc.on_ack(delay, hops=1)
    cc.on_ack(delay, hops=1)  # same instant: pacing gate blocks it
    assert cc.increases == 1
    sim.run_until(sim.now + delay * 1.5)
    cc.on_ack(delay, hops=1)
    assert cc.increases == 2


def test_rate_floor(sim):
    params = SwiftParams()
    cc, _ = make_cc(sim, params)
    for i in range(100):
        sim.run_until(sim.now + 1e-3)
        cc.on_ack(1.0, hops=1)
    assert cc.rc >= params.min_rate


def test_inactive_cc_ignores_acks(sim):
    cc, params = make_cc(sim)
    cc.stop()
    cc.on_ack(params.base_target_delay * 4.0)
    assert cc.acks_received == 0
    assert cc.rc == LINE


def test_cnp_is_noop(sim):
    cc, _ = make_cc(sim)
    cc.on_cnp()
    assert cc.rc == LINE


@settings(deadline=None, max_examples=30)
@given(
    delays=st.lists(
        st.floats(min_value=1e-6, max_value=0.01), min_size=1, max_size=80
    )
)
def test_rate_always_within_bounds(delays):
    sim = Simulator()
    params = SwiftParams()
    cc = SwiftCc(sim, LINE, lambda: params)
    cc.start()
    for delay in delays:
        sim.run_until(sim.now + 1e-4)
        cc.on_ack(delay, hops=3)
        assert params.min_rate <= cc.rc <= LINE


def test_swift_end_to_end_fair_and_lossless(small_spec):
    """Swift on the fabric: incast completes losslessly and fairly."""
    from repro.simulator.network import Network, NetworkConfig
    from repro.simulator.units import mb, ms

    net = Network(NetworkConfig(spec=small_spec, cc="swift", seed=2))
    flows = [net.add_flow(src, 4, mb(2.0), 0.0) for src in (0, 1, 2)]
    net.run_until(ms(100.0))
    assert net.total_dropped_packets() == 0
    fcts = [f.fct() for f in flows]
    assert max(fcts) / min(fcts) < 1.3  # tight fairness
    # Delay-based CC keeps queues shorter than 3x BDP-scale targets.
    assert all(f.completed for f in flows)


def test_swift_ack_path_wired(small_spec):
    from repro.simulator.network import Network, NetworkConfig
    from repro.simulator.units import kb, ms

    net = Network(NetworkConfig(spec=small_spec, cc="swift", seed=3))
    flow = net.add_flow(0, 4, kb(400.0), 0.0)
    qp_holder = {}
    # Capture the QP before the flow finishes.
    net.sim.post(1e-4, lambda: qp_holder.update(
        qp=net.hosts[0].egress.qps.get(flow.flow_id)))
    net.run_until(ms(20.0))
    assert flow.completed
    assert qp_holder["qp"].rp.acks_received > 0


def test_invalid_cc_mode_rejected(sim, params):
    from repro.simulator.host import Host

    with pytest.raises(ValueError):
        Host(sim, 0, "h0", params, cc_mode="bbr")
