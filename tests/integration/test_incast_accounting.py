"""Shared-buffer accounting under random incasts.

A switch charges a packet's bytes to the shared buffer and to its
ingress port in ``receive`` and releases them in ``dequeued`` when the
packet's last bit leaves, and every charge and release runs the
dynamic-threshold PFC check.  Hypothesis draws the incast (fan-in,
flow sizes, buffer, seed) on an 8-host fabric and stops the run at
drawn instants to hold the books against what the queues really hold.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.simulator.network import Network, NetworkConfig
from repro.simulator.switch import SwitchConfig
from repro.simulator.topology import ClosSpec
from repro.simulator.units import kb, ms

# 2 ToRs x 4 hosts under one spine: senders 1-3 share the receiver's
# ToR, 4-7 come over the single spine uplink.
SPEC = ClosSpec(n_tor=2, n_spine=1, hosts_per_tor=4)
RECEIVER = 0


def _incast(buffer_bytes, pfc_enabled, sizes, seed):
    network = Network(NetworkConfig(
        spec=SPEC,
        switch=SwitchConfig(buffer_bytes=buffer_bytes, pfc_enabled=pfc_enabled),
        seed=seed,
    ))
    flows = [
        network.add_flow(src, RECEIVER, size, 0.0)
        for src, size in enumerate(sizes, start=1)
    ]
    return network, flows


def _on_the_wire(network, egress):
    """Wire bytes of the packet ``egress`` is serializing, if any: the
    one pending serialization-finish event it pushed."""
    return sum(
        args[0].wire_size
        for _, _, fn, args in network.sim.heap
        if fn == egress.transmit
    )


def _assert_books_balance(network):
    for switch in network.switches:
        held = sum(
            egress.queued_bytes + _on_the_wire(network, egress)
            for egress in switch.egress
        )
        assert switch.occupied_bytes == sum(switch.ingress_bytes) == held, switch.name


sizes_kb = st.lists(st.integers(16, 512), min_size=2, max_size=7)


@settings(max_examples=40, deadline=None)
@given(
    sizes_kb=sizes_kb,
    buffer_kb=st.integers(192, 1024),
    seed=st.integers(0, 2**16),
    pauses_us=st.lists(st.integers(1, 3000), min_size=1, max_size=6),
)
def test_pfc_incast_is_lossless_and_the_books_balance(sizes_kb, buffer_kb, seed, pauses_us):
    network, flows = _incast(kb(buffer_kb), True, [kb(s) for s in sizes_kb], seed)
    for t in sorted(set(pauses_us)):
        network.run_until(t * 1e-6)
        _assert_books_balance(network)
    network.run_until(ms(40.0))
    assert network.total_dropped_packets() == 0
    assert all(flow.completed for flow in flows)
    # Idle: nothing buffered, charged or serializing, nobody paused.
    _assert_books_balance(network)
    for switch in network.switches:
        assert switch.occupied_bytes == 0
        assert not any(switch.ingress_bytes)
        assert not any(switch._upstream_paused)
        assert not any(egress.pause.paused for egress in switch.egress)
    assert not any(host.egress.pause.paused for host in network.hosts)


@settings(max_examples=15, deadline=None)
@given(
    sizes_kb=st.lists(st.integers(64, 512), min_size=3, max_size=7),
    buffer_kb=st.integers(8, 48),
    seed=st.integers(0, 2**16),
)
def test_incast_without_pfc_drops_when_the_buffer_is_below_the_burst(
    sizes_kb, buffer_kb, seed
):
    network, _ = _incast(kb(buffer_kb), False, [kb(s) for s in sizes_kb], seed)
    network.run_until(ms(5.0))
    assert network.total_dropped_packets() > 0
    assert network.total_pfc_pauses() == 0
    _assert_books_balance(network)
