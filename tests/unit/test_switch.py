"""Unit tests for the shared-buffer switch (CP role, PFC, routing)."""

from __future__ import annotations

import pytest

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.packet import Packet, PacketKind, data_packet
from repro.simulator.switch import Switch, SwitchConfig
from repro.simulator.units import kb, mb
from tests.reference_switch import ReferencePort


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet, in_port):
        self.arrivals.append(packet)


class RecordingSketch:
    def __init__(self):
        self.seen = []

    def observe_batch(self, flow_ids, wire_bytes):
        self.seen.extend(zip(flow_ids.tolist(), wire_bytes.tolist()))


def make_switch(sim, n_ports=2, **config_kwargs):
    config = SwitchConfig(**config_kwargs)
    switch = Switch(sim, 0, "sw0", config, DcqcnParams(), seed=1)
    sinks = []
    for i in range(n_ports):
        sink = Sink(sim)
        link = Link(sim, f"sw0->sink{i}", switch, sink, 0, 8e9, 1e-6)
        switch.attach_link(link)
        sinks.append(sink)
    return switch, sinks


def _upstream_port(sim):
    """A port of another switch, to be XOFFed and XONed as a PFC peer."""
    upstream, _ = make_switch(sim, n_ports=1)
    return upstream.egress[0]


def test_switch_config_validation():
    with pytest.raises(ValueError):
        SwitchConfig(buffer_bytes=0).validate()
    with pytest.raises(ValueError):
        SwitchConfig(pfc_alpha=0.0).validate()


def test_forwarding_required(sim):
    switch, _ = make_switch(sim)
    pkt = data_packet(1, 0, 9, payload=100, seq=0, last=False)
    with pytest.raises(KeyError):
        switch.receive(pkt, 0)


def test_forwarding_and_ttl_decrement(sim):
    switch, sinks = make_switch(sim)
    switch.set_forwarding(9, [1])
    pkt = data_packet(1, 0, 9, payload=100, seq=0, last=False)
    ttl = pkt.ttl
    switch.receive(pkt, 0)
    sim.run()
    assert sinks[1].arrivals == [pkt]
    assert pkt.ttl == ttl - 1


def test_ttl_expiry_drops(sim):
    switch, sinks = make_switch(sim)
    switch.set_forwarding(9, [1])
    pkt = data_packet(1, 0, 9, payload=100, seq=0, last=False)
    pkt.ttl = 1
    switch.receive(pkt, 0)
    sim.run()
    assert switch.dropped_packets == 1
    assert not sinks[1].arrivals


def _egress_port_taken(switch, sinks, sim, packet):
    """Which egress port ``receive`` forwards ``packet`` to."""
    before = [len(sink.arrivals) for sink in sinks]
    switch.receive(packet, 0)
    sim.run()
    (port,) = [
        i for i, sink in enumerate(sinks) if len(sink.arrivals) > before[i]
    ]
    return port


def test_ecmp_is_deterministic_per_flow(sim):
    switch, sinks = make_switch(sim, n_ports=4)
    switch.set_forwarding(9, [0, 1, 2, 3])
    ports = {
        _egress_port_taken(
            switch, sinks, sim,
            data_packet(5, 0, 9, payload=1, seq=seq, last=False),
        )
        for seq in range(10)
    }
    assert len(ports) == 1  # one flow, one path: never reordered


def test_ecmp_spreads_flows(sim):
    switch, sinks = make_switch(sim, n_ports=4)
    switch.set_forwarding(9, [0, 1, 2, 3])
    ports = {
        _egress_port_taken(
            switch, sinks, sim,
            data_packet(fid, 0, 9, payload=1, seq=0, last=False),
        )
        for fid in range(64)
    }
    assert len(ports) == 4  # all uplinks used across many flows


def test_buffer_overflow_drops(sim):
    switch, sinks = make_switch(sim, buffer_bytes=kb(3.0), pfc_enabled=False)
    switch.set_forwarding(9, [1])
    for seq in range(10):
        switch.receive(
            data_packet(1, 0, 9, payload=938, seq=seq, last=False), 0
        )
    assert switch.dropped_packets > 0
    sim.run()
    assert len(sinks[1].arrivals) + switch.dropped_packets == 10


def test_receive_enqueues_like_the_port_itself(sim):
    """``receive`` writes the egress enqueue out in place; the reference
    port's own ``enqueue`` is what it must match, idle kick included."""
    switch, _ = make_switch(sim, buffer_bytes=mb(10.0), pfc_enabled=False)
    switch.set_forwarding(9, [1])
    port = switch.egress[1]
    reference = ReferencePort(sim, Link(sim, "ref", None, Sink(sim), 0, 8e9, 1e-6))

    def packets():
        yield data_packet(1, 0, 9, payload=938, seq=0, last=False)
        yield Packet(PacketKind.CNP, 1, 0, 9)
        for seq in range(1, 4):
            yield data_packet(1, 0, 9, payload=500 * seq, seq=seq, last=False)
        yield Packet(PacketKind.PROBE, -1, 0, 9)

    for via_switch, via_port in zip(packets(), packets()):
        switch.receive(via_switch, 0)
        reference.enqueue(via_port)
        assert port.busy == reference.busy
        assert port.data_queue_bytes == reference.data_queue_bytes
        assert [p.seq for p in port.data_queue] == [p.seq for p in reference.data_queue]
        assert len(port.control_queue) == len(reference.control_queue)


def test_buffer_accounting_returns_to_zero(sim):
    switch, _ = make_switch(sim)
    switch.set_forwarding(9, [1])
    for seq in range(5):
        switch.receive(data_packet(1, 0, 9, payload=500, seq=seq, last=False), 0)
    assert switch.occupied_bytes > 0
    sim.run()
    assert switch.occupied_bytes == 0
    assert switch.ingress_bytes[0] == 0


def test_ecn_marking_above_kmax(sim):
    # Deterministic: queue above k_max -> probability 1.
    switch, _ = make_switch(sim, buffer_bytes=mb(10.0), pfc_enabled=False)
    switch.params = switch.params.copy(k_min=kb(1.0), k_max=kb(2.0))
    switch.set_forwarding(9, [1])
    switch.egress[1].set_paused(True)  # hold the queue
    marked = 0
    for seq in range(20):
        pkt = data_packet(1, 0, 9, payload=938, seq=seq, last=False)
        switch.receive(pkt, 0)
        marked += pkt.ecn
    # Queue passes k_max after ~2 packets; everything after is marked.
    assert marked >= 17
    assert switch.ecn_marked_packets == marked


def test_no_ecn_marking_below_kmin(sim):
    switch, _ = make_switch(sim)
    switch.set_forwarding(9, [1])
    pkt = data_packet(1, 0, 9, payload=100, seq=0, last=False)
    switch.receive(pkt, 0)
    assert not pkt.ecn


def test_control_packets_never_marked(sim):
    switch, _ = make_switch(sim, buffer_bytes=mb(10.0), pfc_enabled=False)
    switch.params = switch.params.copy(k_min=kb(1.0), k_max=kb(2.0))
    switch.set_forwarding(9, [1])
    switch.egress[1].set_paused(True)
    for seq in range(10):
        switch.receive(data_packet(1, 0, 9, payload=938, seq=seq, last=False), 0)
    cnp = Packet(PacketKind.CNP, 1, 0, 9)
    switch.receive(cnp, 0)
    assert not cnp.ecn


def test_measurement_hook_with_dedup(sim):
    switch, _ = make_switch(sim)
    switch.set_forwarding(9, [1])
    sketch = RecordingSketch()
    switch.measurement = sketch
    pkt = data_packet(3, 0, 9, payload=100, seq=0, last=False)
    switch.receive(pkt, 0)
    assert pkt.sketch_marked
    assert sketch.seen == []   # buffered until the agent reads
    assert switch.flush_observations() == 1
    assert sketch.seen == [(3, pkt.wire_size)]
    # A marked packet is not inserted again.
    pkt2 = data_packet(3, 0, 9, payload=100, seq=100, last=False)
    pkt2.sketch_marked = True
    switch.receive(pkt2, 0)
    assert switch.flush_observations() == 0
    assert len(sketch.seen) == 1


def test_measurement_hook_without_dedup(sim):
    switch, _ = make_switch(sim)
    switch.set_forwarding(9, [1])
    sketch = RecordingSketch()
    switch.measurement = sketch
    switch.dedup_marking = False
    pkt = data_packet(3, 0, 9, payload=100, seq=0, last=False)
    pkt.sketch_marked = True  # already measured upstream
    switch.receive(pkt, 0)
    switch.flush_observations()
    assert len(sketch.seen) == 1  # inserted anyway (overlap!)


def test_pfc_xoff_and_xon(sim):
    switch, _ = make_switch(sim, buffer_bytes=kb(40.0), pfc_alpha=0.125)
    switch.set_forwarding(9, [1])
    upstream = _upstream_port(sim)
    switch.set_ingress_peer(0, upstream, 1e-6)
    switch.egress[1].set_paused(True)  # force the queue to build
    for seq in range(6):
        switch.receive(data_packet(1, 0, 9, payload=938, seq=seq, last=False), 0)
    assert switch.pfc_pauses_sent >= 1
    sim.run_until(sim.now + 2e-6)
    assert upstream.pause.paused  # XOFF propagated
    # Drain: XON should follow.
    switch.egress[1].set_paused(False)
    sim.run()
    assert not upstream.pause.paused


def test_pfc_disabled_sends_no_pauses(sim):
    switch, _ = make_switch(sim, buffer_bytes=kb(40.0), pfc_enabled=False)
    switch.set_forwarding(9, [1])
    upstream = _upstream_port(sim)
    switch.set_ingress_peer(0, upstream, 1e-6)
    switch.egress[1].set_paused(True)
    for seq in range(6):
        switch.receive(data_packet(1, 0, 9, payload=938, seq=seq, last=False), 0)
    assert switch.pfc_pauses_sent == 0


def _pauses_after_one_packet(sim, occupied):
    """XOFFs sent for one 1000 B arrival into a 100 KB, alpha=1/2 switch."""
    switch, _ = make_switch(sim, buffer_bytes=kb(100.0), pfc_alpha=0.5)
    switch.set_forwarding(9, [1])
    upstream = _upstream_port(sim)
    switch.set_ingress_peer(0, upstream, 1e-6)
    switch.egress[1].set_paused(True)
    switch.occupied_bytes = occupied
    switch.receive(data_packet(1, 0, 9, payload=938, seq=0, last=False), 0)
    return switch.pfc_pauses_sent


def test_dt_threshold_shrinks_with_occupancy(sim):
    # Empty buffer: threshold 0.5 x 99 KB, one packet is far below it.
    assert _pauses_after_one_packet(sim, 0) == 0
    # 98.5 KB occupied: threshold 0.5 x 500 B < the 1000 B just buffered.
    assert _pauses_after_one_packet(sim, kb(98.5)) == 1


def test_dt_threshold_floors_at_zero_when_overfull(sim):
    switch, _ = make_switch(sim, buffer_bytes=kb(100.0), pfc_alpha=0.5)
    upstream = _upstream_port(sim)
    switch.set_ingress_peer(0, upstream, 1e-6)
    packet = data_packet(1, 0, 9, payload=938, seq=0, last=False)
    packet.ingress_port = 0
    switch.occupied_bytes = kb(200.0)  # over-full: threshold is 0, not < 0
    switch.ingress_bytes[0] = packet.wire_size
    switch._upstream_paused[0] = True
    switch.egress[1].transmit(packet)  # last bit out: port 0 drains to 0 bytes
    assert not switch._upstream_paused[0]  # 0 buffered <= 0/2: XON


def test_total_paused_time_aggregates_ports(sim):
    switch, _ = make_switch(sim, n_ports=3)
    sim.run_until(1.0)
    switch.egress[0].set_paused(True)
    switch.egress[2].set_paused(True)
    sim.run_until(1.5)
    switch.egress[0].set_paused(False)
    switch.egress[2].set_paused(False)
    assert switch.total_paused_time() == pytest.approx(1.0)


def test_total_paused_time_adds_ports_left_to_right(sim):
    """The fold reaches O_PFC and the interval digest, so it must read
    the same on every interpreter: builtin ``sum`` reads 0.6 here from
    CPython 3.12 (compensated), plain left-to-right addition 0.6000000000000001."""
    switch, _ = make_switch(sim, n_ports=3)
    for egress, paused in zip(switch.egress, (0.1, 0.2, 0.3)):
        egress.pause.total_paused_time = paused
    assert repr(switch.total_paused_time()) == "0.6000000000000001"
