"""Fabric settings that would hang a run or quietly change its answer.

Each value below used to be accepted: a zero or NaN probe interval
re-posted the probe tick at the same instant forever, a NaN rate or
delay left NaN-timed events in the heap and no flow completed, a NaN
``pfc_alpha`` never paused and a NaN buffer never dropped.  Every one
must now stop at construction with a ``ValueError`` naming its field.
The egress ports push their events onto the heap without the engine's
past-time check, so :class:`Link` is the last line for the delays.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.host import HostConfig
from repro.simulator.link import Link
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.switch import SwitchConfig
from repro.simulator.topology import ClosSpec

NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_tor", 0),
        ("n_spine", NAN),
        ("hosts_per_tor", 2.5),
        ("host_rate_bps", NAN),
        ("host_rate_bps", 0.0),
        ("uplink_rate_bps", INF),
        ("uplink_rate_bps", -1e9),
        ("prop_delay_s", NAN),
        ("prop_delay_s", INF),
        ("prop_delay_s", -1e-6),
    ],
)
def test_clos_spec_rejects(field, value):
    with pytest.raises(ValueError, match=f"ClosSpec.{field} "):
        ClosSpec(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("buffer_bytes", NAN),
        ("buffer_bytes", INF),
        ("buffer_bytes", 0),
        ("pfc_alpha", NAN),
        ("pfc_alpha", INF),
        ("pfc_alpha", -0.125),
    ],
)
def test_switch_config_rejects(field, value):
    config = SwitchConfig(**{field: value})
    with pytest.raises(ValueError, match=f"SwitchConfig.{field} "):
        config.validate()
    # A fabric never gets as far as building its first switch.
    with pytest.raises(ValueError, match=f"SwitchConfig.{field} "):
        NetworkConfig(switch=config)


@pytest.mark.parametrize(
    "field, value",
    [
        ("probe_interval", 0.0),
        ("probe_interval", NAN),
        ("probe_interval", INF),
        ("probe_interval", -1e-4),
        ("mtu", 0),
        ("mtu", NAN),
    ],
)
def test_network_config_rejects(field, value):
    with pytest.raises(ValueError, match=f"NetworkConfig.{field} "):
        NetworkConfig(**{field: value})


def test_network_revalidates_a_reassigned_field():
    config = NetworkConfig()
    config.probe_interval = 0.0
    with pytest.raises(ValueError, match="NetworkConfig.probe_interval "):
        Network(config)


@pytest.mark.parametrize(
    "field, value",
    [
        ("rate_bps", NAN),
        ("rate_bps", INF),
        ("rate_bps", 0.0),
        ("prop_delay", NAN),
        ("prop_delay", INF),
        ("prop_delay", -1e-6),
    ],
)
def test_link_rejects(field, value):
    kwargs = {"rate_bps": 1e9, "prop_delay": 1e-6, field: value}
    with pytest.raises(ValueError, match=f"Link {field} "):
        Link(Simulator(), "bad", None, None, 0, **kwargs)


@pytest.mark.parametrize("value", [0, -1, NAN])
def test_host_config_rejects_mtu(value):
    with pytest.raises(ValueError, match="HostConfig.mtu "):
        HostConfig(mtu=value).validate()


@pytest.mark.parametrize(
    "config, field, value",
    [
        (SwitchConfig(), "buffer_bytes", 1),
        (SwitchConfig(), "pfc_alpha", 0.5),
        (SwitchConfig(), "pfc_enabled", False),
        (HostConfig(), "mtu", 9000),
    ],
)
def test_provisioning_is_frozen(config, field, value):
    """Switches read their config once and the egress copies ``mtu``
    at attach, so a later assignment would be silently ignored."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, value)


def test_frozen_switch_config_is_shared_by_every_switch():
    network = Network(NetworkConfig(spec=ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=2)))
    assert all(s.config is network.config.switch for s in network.switches)
