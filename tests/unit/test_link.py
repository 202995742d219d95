"""Unit tests for links, pause bookkeeping, and the switch egress."""

from __future__ import annotations

import pytest

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.engine import Simulator
from repro.simulator.link import Link, PauseState
from repro.simulator.packet import Packet, PacketKind, data_packet
from repro.simulator.switch import Switch, SwitchConfig


class SinkDevice:
    """Records arrivals with timestamps."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet, in_port):
        self.arrivals.append((self.sim.now, packet, in_port))


@pytest.fixture
def rig():
    """One port of a one-port switch, wired to a sink."""
    sim = Simulator()
    switch = Switch(sim, 0, "sw0", SwitchConfig(), DcqcnParams())
    sink = SinkDevice(sim)
    link = Link(sim, "test", switch, sink, dst_port=3, rate_bps=8e9, prop_delay=1e-6)
    switch.attach_link(link)
    return sim, sink, link, switch.egress[0]


def enqueue(egress, packet):
    """Queue ``packet`` on a switch port as ``Switch.receive`` does,
    charged to ingress port 0, and kick the port if it is idle."""
    switch = egress.switch
    packet.ingress_port = 0
    switch.occupied_bytes += packet.wire_size
    switch.ingress_bytes[0] += packet.wire_size
    if packet.is_control:
        egress.control_queue.append(packet)
    else:
        egress.data_queue.append(packet)
        egress.data_queue_bytes += packet.wire_size
    if not egress.busy:
        egress.transmit()


def _data(payload=938, flow=1, seq=0):
    # payload 938 + 62 header = 1000 wire bytes = 1 us at 8 Gbps
    return data_packet(flow, 0, 1, payload=payload, seq=seq, last=False)


def test_link_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, "bad", None, None, 0, rate_bps=0.0, prop_delay=1e-6)
    with pytest.raises(ValueError):
        Link(sim, "bad", None, None, 0, rate_bps=1e9, prop_delay=-1.0)


def test_serialization_plus_propagation_timing(rig):
    sim, sink, link, egress = rig
    enqueue(egress, _data())
    sim.run()
    # 1 us serialization + 1 us propagation.
    assert sink.arrivals[0][0] == pytest.approx(2e-6)
    assert sink.arrivals[0][2] == 3  # delivered to dst_port


def test_back_to_back_packets_serialize_sequentially(rig):
    sim, sink, link, egress = rig
    enqueue(egress, _data(seq=0))
    enqueue(egress, _data(seq=1))
    sim.run()
    times = [t for t, _, _ in sink.arrivals]
    assert times[0] == pytest.approx(2e-6)
    assert times[1] == pytest.approx(3e-6)  # waits for first to serialize


def test_same_flow_never_reordered(rig):
    sim, sink, link, egress = rig
    for seq in range(20):
        enqueue(egress, _data(seq=seq))
    sim.run()
    seqs = [p.seq for _, p, _ in sink.arrivals]
    assert seqs == sorted(seqs)


def test_control_packets_preempt_queued_data(rig):
    sim, sink, link, egress = rig
    enqueue(egress, _data(seq=0))
    enqueue(egress, _data(seq=1))
    enqueue(egress, Packet(PacketKind.CNP, 7, 0, 1))
    sim.run()
    kinds = [p.kind for _, p, _ in sink.arrivals]
    # First data already serializing; CNP jumps ahead of the second.
    assert kinds == [PacketKind.DATA, PacketKind.CNP, PacketKind.DATA]


def test_pause_blocks_data_but_not_control(rig):
    sim, sink, link, egress = rig
    egress.set_paused(True)
    enqueue(egress, _data())
    enqueue(egress, Packet(PacketKind.CNP, 7, 0, 1))
    sim.run()
    kinds = [p.kind for _, p, _ in sink.arrivals]
    assert kinds == [PacketKind.CNP]
    egress.set_paused(False)
    sim.run()
    assert len(sink.arrivals) == 2


def test_pause_time_accounting(rig):
    sim, sink, link, egress = rig
    sim.run_until(1.0)
    egress.set_paused(True)
    sim.run_until(1.5)
    egress.set_paused(False)
    sim.run_until(2.0)
    assert egress.pause.total_paused_time == pytest.approx(0.5)
    assert egress.pause.pause_events == 1


def test_pause_time_includes_in_progress_pause(rig):
    sim, sink, link, egress = rig
    egress.set_paused(True)
    sim.run_until(0.25)
    assert egress.pause.paused_time_until_now() == pytest.approx(0.25)


def test_redundant_pause_transitions_ignored():
    sim = Simulator()
    state = PauseState(sim)
    assert state.set_paused(True) is True
    assert state.set_paused(True) is False
    assert state.pause_events == 1


def test_queue_byte_accounting(rig):
    sim, sink, link, egress = rig
    egress.set_paused(True)
    first = _data(seq=0)
    second = _data(seq=1)
    enqueue(egress, first)
    enqueue(egress, second)
    assert egress.data_queue_bytes == first.wire_size + second.wire_size
    egress.set_paused(False)
    sim.run()
    assert egress.data_queue_bytes == 0


def test_link_counters(rig):
    sim, sink, link, egress = rig
    enqueue(egress, _data())
    sim.run()
    assert link.tx_packets == 1
    assert link.tx_bytes == 1000


def test_buffer_released_when_the_last_bit_leaves(rig):
    sim, sink, link, egress = rig
    switch = egress.switch
    enqueue(egress, _data())
    assert switch.occupied_bytes == switch.ingress_bytes[0] == 1000
    # The last bit leaves at 1 us; the arrival is still 1 us away.
    sim.run_until(1.5e-6)
    assert not sink.arrivals
    assert switch.occupied_bytes == switch.ingress_bytes[0] == 0
