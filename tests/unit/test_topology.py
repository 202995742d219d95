"""Unit tests for CLOS topology specs and helpers."""

from __future__ import annotations

import pytest

from repro.simulator.topology import (
    SPECS,
    ClosSpec,
    ClosTopology,
    paper_simulation_spec,
    paper_testbed_spec,
)
from repro.simulator.units import gbps, us


def test_spec_counts():
    spec = ClosSpec(n_tor=8, n_spine=4, hosts_per_tor=16)
    assert spec.n_hosts == 128
    assert spec.n_switches == 12


def test_paper_simulation_dimensions():
    # The NS3 fabric: 8 ToR, 4 leaf, 128 servers, 4:1 oversubscription.
    spec = paper_simulation_spec(scale=1.0)
    assert spec.n_tor == 8
    assert spec.n_spine == 4
    assert spec.n_hosts == 128
    assert spec.oversubscription == pytest.approx(4.0)
    assert spec.prop_delay_s == pytest.approx(us(5.0))


def test_paper_simulation_scaling_preserves_shape():
    spec = paper_simulation_spec(scale=0.25)
    assert spec.n_tor == 8 and spec.n_spine == 4
    assert spec.n_hosts < 128
    assert spec.oversubscription == pytest.approx(
        spec.hosts_per_tor * spec.host_rate_bps / (4 * spec.uplink_rate_bps)
    )


def test_paper_testbed_spec():
    spec = paper_testbed_spec(scale=1.0)
    assert spec.n_tor == 8 and spec.n_spine == 4
    assert spec.oversubscription == pytest.approx(1.0)


@pytest.mark.parametrize("scale", [0.0, -1.0, 1.5])
def test_invalid_scales_rejected(scale):
    with pytest.raises(ValueError):
        paper_simulation_spec(scale=scale)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        ClosSpec(n_tor=0)
    with pytest.raises(ValueError):
        ClosSpec(host_rate_bps=0.0)
    with pytest.raises(ValueError):
        ClosSpec(prop_delay_s=-1.0)


def test_tor_of_layout():
    spec = ClosSpec(n_tor=3, n_spine=1, hosts_per_tor=4)
    assert spec.tor_of(0) == 0
    assert spec.tor_of(3) == 0
    assert spec.tor_of(4) == 1
    assert spec.tor_of(11) == 2
    with pytest.raises(ValueError):
        spec.tor_of(12)


def test_hosts_of_tor():
    spec = ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=3)
    assert spec.hosts_of_tor(0) == [0, 1, 2]
    assert spec.hosts_of_tor(1) == [3, 4, 5]
    with pytest.raises(ValueError):
        spec.hosts_of_tor(2)


def test_path_hops():
    spec = ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=2)
    assert spec.path_hops(0, 0) == 0
    assert spec.path_hops(0, 1) == 1   # same ToR
    assert spec.path_hops(0, 2) == 3   # ToR -> spine -> ToR


def test_base_rtt_scales_with_hops():
    spec = ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=2)
    near = spec.base_rtt(0, 1)
    far = spec.base_rtt(0, 2)
    assert far > near > 0
    # Propagation dominates: cross-fabric path has 4 links each way.
    assert far >= 2 * 4 * spec.prop_delay_s


def _hop_class(spec, src, dst):
    if src == dst:
        return 0
    return 1 if src // spec.hosts_per_tor == dst // spec.hosts_per_tor else 3


def _formula_base_rtt(spec, src, dst, last_hop_rate=None):
    """The zero-queue RTT written out: host link, uplinks, then the
    destination's link at ``last_hop_rate`` (default: the host rate)."""
    hops = _hop_class(spec, src, dst)
    prop = 2.0 * (hops + 1) * spec.prop_delay_s
    rates = [spec.host_rate_bps]
    if hops:
        rates += [spec.uplink_rate_bps] * (hops - 1)
        rates.append(last_hop_rate or spec.host_rate_bps)
    ser = 0.0
    for rate in rates:
        ser += 64 * 8.0 / rate
    return prop + 2.0 * ser


def _uplink_last_hop_base_rtt(spec, src, dst):
    """The expression before the last-hop fix."""
    return _formula_base_rtt(spec, src, dst, spec.uplink_rate_bps)


FABRICS = {
    **{f"SPECS[{name!r}]": spec for name, spec in SPECS.items()},
    **{
        f"{factory.__name__}({scale})": factory(scale)
        for factory in (paper_simulation_spec, paper_testbed_spec)
        for scale in (1.0, 0.5, 0.25)
    },
}


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_base_rtt_constant_equals_formula_for_every_host_pair(name):
    spec = FABRICS[name]
    equal_rates = spec.host_rate_bps == spec.uplink_rate_bps
    for src in range(spec.n_hosts):
        for dst in range(spec.n_hosts):
            value = spec.base_rtt(src, dst)
            assert value == _formula_base_rtt(spec, src, dst), (src, dst)
            if equal_rates:
                # Same operands in the same order: no digest can move.
                assert value == _uplink_last_hop_base_rtt(spec, src, dst)


def test_base_rtt_serialises_the_last_hop_at_the_host_rate():
    # hosts_per_tor 2, 200 Gbps host links, 100 Gbps uplinks, 2 us wires;
    # a 64 B probe takes 2.56 ns on a host link and 5.12 ns on an uplink.
    spec = paper_testbed_spec(0.5)
    assert spec.uplink_rate_bps == spec.host_rate_bps / 2
    same_tor = 2 * 2 * 2e-6 + 2 * (2.56e-9 + 2.56e-9)
    cross_tor = 2 * 4 * 2e-6 + 2 * (2.56e-9 + 5.12e-9 + 5.12e-9 + 2.56e-9)
    assert spec.base_rtt(0, 1) == pytest.approx(same_tor, rel=1e-12)
    assert spec.base_rtt(0, 2) == pytest.approx(cross_tor, rel=1e-12)
    # The uplink-rate last hop overcharged both by 2.56 ns each way.
    assert spec.base_rtt(0, 1) == pytest.approx(
        _uplink_last_hop_base_rtt(spec, 0, 1) - 2 * 2.56e-9, rel=1e-12
    )
    assert spec.base_rtt(0, 2) == pytest.approx(
        _uplink_last_hop_base_rtt(spec, 0, 2) - 2 * 2.56e-9, rel=1e-12
    )


def test_base_rtt_rejects_out_of_range_hosts():
    spec = ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=2)
    for src, dst in ((-1, 0), (0, 4), (4, 4), (-1, -1)):
        with pytest.raises(ValueError):
            spec.base_rtt(src, dst)


def test_oversubscription_ratio():
    spec = ClosSpec(
        n_tor=4,
        n_spine=2,
        hosts_per_tor=8,
        host_rate_bps=gbps(10.0),
        uplink_rate_bps=gbps(10.0),
    )
    assert spec.oversubscription == pytest.approx(4.0)


def test_topology_naming_and_ids():
    topo = ClosTopology(ClosSpec(n_tor=2, n_spine=2, hosts_per_tor=2))
    assert topo.tor_name(0) == "tor0"
    assert topo.spine_name(1) == "spine1"
    assert topo.host_name(3) == "h3"
    assert topo.tor_switch_id(1) == 1
    assert topo.spine_switch_id(0) == 2
    assert topo.is_tor(1)
    assert not topo.is_tor(2)
