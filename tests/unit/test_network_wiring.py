"""Unit tests for Network construction internals (wiring, routing)."""

from __future__ import annotations

import pytest

from repro.simulator.network import Network, NetworkConfig
from repro.simulator.topology import ClosSpec
from repro.simulator.units import kb, ms


@pytest.fixture
def net():
    return Network(
        NetworkConfig(spec=ClosSpec(n_tor=2, n_spine=2, hosts_per_tor=3), seed=1)
    )


def test_device_counts(net):
    assert len(net.hosts) == 6
    assert len(net.tors) == 2
    assert len(net.spines) == 2
    assert len(net.switches) == 4


def test_tor_port_counts(net):
    # Each ToR: 3 host ports + 2 spine uplinks.
    for tor in net.tors:
        assert len(tor.egress) == 5
    # Each spine: one port per ToR.
    for spine in net.spines:
        assert len(spine.egress) == 2


def test_every_host_has_exactly_one_uplink(net):
    for host in net.hosts:
        assert host.egress is not None
        assert host.line_rate == net.spec.host_rate_bps


def test_forwarding_tables_complete(net):
    """Every switch can route to every host."""
    for switch in net.switches:
        for host_id in range(net.spec.n_hosts):
            assert host_id in switch.routes
            assert switch.routes[host_id]


def test_tor_local_hosts_have_single_port(net):
    tor0 = net.tors[0]
    for host_id in net.spec.hosts_of_tor(0):
        assert len(tor0.routes[host_id]) == 1
    # Remote hosts: ECMP over both spines.
    for host_id in net.spec.hosts_of_tor(1):
        assert len(tor0.routes[host_id]) == 2


def test_pfc_peering_is_symmetric(net):
    """Every switch ingress port knows the peer egress to pause, and
    the peer's link really points back at this switch."""
    for switch in net.switches:
        for port in range(len(switch.egress)):
            assert switch.ingress_peer[port] is not None
            peer_egress, delay = switch.ingress_peer[port]
            assert delay == net.spec.prop_delay_s
            # The paused egress sends into this switch on this port.
            assert peer_egress.link.dst is switch
            assert peer_egress.link.dst_port == port


def test_links_bidirectional_and_consistent(net):
    """Egress port i on device A toward B pairs with B's port toward A."""
    tor0, spine0 = net.tors[0], net.spines[0]
    tor_port = net._tor_spine_port[(0, 0)]
    spine_port = net._spine_tor_port[(0, 0)]
    assert tor0.egress[tor_port].link.dst is spine0
    assert tor0.egress[tor_port].link.dst_port == spine_port
    assert spine0.egress[spine_port].link.dst is tor0
    assert spine0.egress[spine_port].link.dst_port == tor_port


def test_flow_ids_monotonic(net):
    a = net.add_flow(0, 3, 1000, 0.0)
    b = net.add_flow(1, 4, 1000, 0.0)
    assert b.flow_id == a.flow_id + 1
    assert net.flows[a.flow_id] is a


def test_active_flows_tracking(net):
    flow = net.add_flow(0, 3, kb(10.0), 0.0)
    assert flow.flow_id in net.active_flows
    net.run_until(ms(10.0))
    assert flow.flow_id not in net.active_flows
    assert flow.flow_id in net.flows  # history retained


def test_current_params_reflects_dispatch(net):
    from repro.tuning.parameters import expert_params

    net.set_all_params(expert_params())
    assert net.current_params().k_max == expert_params().k_max
    # Dispatch gives each device its own copy, not a shared object.
    net.hosts[0].params = net.hosts[0].params.copy(k_max=999_000)
    assert net.hosts[1].params.k_max == expert_params().k_max


def test_set_all_params_validates():
    from repro.simulator.dcqcn import DcqcnParams

    net = Network(NetworkConfig(spec=ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=2)))
    bad = DcqcnParams(k_min=500_000, k_max=100_000)
    with pytest.raises(ValueError):
        net.set_all_params(bad)
