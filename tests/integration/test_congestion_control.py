"""Integration: DCQCN control loop behaviour on the fabric."""

from __future__ import annotations

import pytest

from repro.simulator.network import Network, NetworkConfig
from repro.simulator.units import kb, mb, ms
from repro.tuning.parameters import default_params, expert_params


def test_ecn_marks_appear_under_congestion(small_network):
    for src in (0, 1, 2):
        small_network.add_flow(src, 4, mb(2.0), 0.0)
    small_network.run_until(ms(30.0))
    assert small_network.total_ecn_marked() > 0


def test_no_ecn_marks_for_single_uncongested_flow(small_network):
    small_network.add_flow(0, 4, kb(100.0), 0.0)
    small_network.run_until(ms(10.0))
    assert small_network.total_ecn_marked() == 0


def test_cnps_flow_back_to_senders(small_network):
    for src in (0, 1, 2):
        small_network.add_flow(src, 4, mb(2.0), 0.0)
    small_network.run_until(ms(30.0))
    assert sum(h.cnps_sent for h in small_network.hosts) > 0


def test_rates_converge_to_fair_share(small_spec):
    """Three long flows into one receiver: each should complete in a
    comparable time (rough fairness) and keep aggregate goodput within
    a sane band."""
    net = Network(NetworkConfig(spec=small_spec, seed=4))
    flows = [net.add_flow(src, 4, mb(3.0), 0.0) for src in (0, 1, 2)]
    net.run_until(ms(300.0))
    fcts = [flow.fct() for flow in flows]
    assert max(fcts) / min(fcts) < 2.5  # no starvation
    # Aggregate goodput at least 25% of the bottleneck.
    total_bits = sum(f.size for f in flows) * 8
    assert total_bits / max(fcts) > 0.25 * net.spec.host_rate_bps


def test_expert_params_speed_up_elephants(small_spec):
    def run(params):
        net = Network(NetworkConfig(spec=small_spec, params=params, seed=5))
        flows = [net.add_flow(src, 4, mb(2.0), 0.0) for src in (0, 1, 2)]
        net.run_until(ms(300.0))
        return max(f.fct() for f in flows)

    assert run(expert_params()) < run(default_params())


def test_default_params_speed_up_mice_under_load(small_spec):
    def run(params):
        net = Network(NetworkConfig(spec=small_spec, params=params, seed=6))
        # Elephant background.
        net.add_flow(0, 4, mb(20.0), 0.0)
        net.add_flow(1, 4, mb(20.0), 0.0)
        mice = [net.add_flow(2, 4, kb(32.0), ms(5.0) + i * ms(1.0))
                for i in range(10)]
        net.run_until(ms(60.0))
        done = [m.fct() for m in mice if m.completed]
        assert len(done) == 10
        return sum(done) / len(done)

    assert run(default_params()) < run(expert_params())


def test_set_all_params_takes_effect_live(small_network):
    flow = small_network.add_flow(0, 4, mb(5.0), 0.0)
    small_network.run_until(ms(2.0))
    new_params = expert_params()
    small_network.set_all_params(new_params)
    assert small_network.hosts[0].params.rpg_ai_rate == new_params.rpg_ai_rate
    assert small_network.switches[0].params.k_max == new_params.k_max
    # The in-flight QP picks the new parameters up immediately.
    qp = small_network.hosts[0].egress.qps[flow.flow_id]
    assert qp.rp.params.rpg_ai_rate == new_params.rpg_ai_rate


def test_set_all_params_hands_every_device_the_same_object(small_network):
    """Frozen knobs are shared, never copied: at build and on dispatch."""
    built = small_network.config.params
    assert all(d.params is built for d in small_network.hosts + small_network.switches)
    for src, dst in ((0, 4), (1, 5), (6, 2)):
        small_network.add_flow(src, dst, mb(5.0), 0.0)
    small_network.run_until(ms(1.0))
    new_params = expert_params()
    small_network.set_all_params(new_params)
    qps = [qp for host in small_network.hosts for qp in host.egress.qps.values()]
    assert len(qps) == 3
    assert all(qp.rp.params is new_params for qp in qps)
    assert all(h.params is new_params for h in small_network.hosts)
    assert all(s.params is new_params for s in small_network.switches)


def test_per_switch_ecn_override(small_network):
    tor = small_network.tors[0]
    small_network.set_switch_ecn(tor, kb(10.0), kb(50.0), 0.9)
    assert tor.params.k_min == kb(10.0)
    assert small_network.tors[1].params.k_min != kb(10.0)


def test_probing_measures_congestion(small_network):
    """Normalized RTT must degrade when an incast builds queues."""
    small_network.add_flow(0, 4, kb(200.0), 0.0)
    small_network.run_until(ms(3.0))
    light = small_network.stats.end_interval()
    for src in (0, 1, 2, 5, 6):
        small_network.add_flow(src, 4, mb(4.0), small_network.sim.now)
    small_network.run_until(small_network.sim.now + ms(6.0))
    heavy = small_network.stats.end_interval()
    assert heavy.norm_rtt < light.norm_rtt
    assert heavy.mean_rtt > light.mean_rtt
