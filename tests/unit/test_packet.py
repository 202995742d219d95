"""Unit tests for the packet model."""

from __future__ import annotations

from repro.simulator.packet import (
    INITIAL_TTL,
    Packet,
    PacketKind,
    cnp_packet,
    data_packet,
)
from repro.simulator.units import CONTROL_PACKET_BYTES, HEADER_BYTES


def test_data_packet_wire_size_includes_header():
    pkt = data_packet(1, 0, 1, payload=1000, seq=0, last=False)
    assert pkt.wire_size == 1000 + HEADER_BYTES
    assert pkt.kind == PacketKind.DATA
    assert not pkt.is_control


def test_control_packets_are_small():
    cnp = cnp_packet(1, 5, 3)
    assert cnp.wire_size == CONTROL_PACKET_BYTES
    assert cnp.is_control
    assert cnp.src == 5 and cnp.dst == 3


def test_probe_rides_data_class_but_ack_is_control():
    probe = Packet(PacketKind.PROBE, -1, 0, 1)
    ack = Packet(PacketKind.PROBE_ACK, -1, 1, 0)
    assert not probe.is_control  # queues with data so RTT sees congestion
    assert ack.is_control


def test_ttl_and_hop_count():
    pkt = data_packet(1, 0, 1, payload=10, seq=0, last=False)
    assert pkt.ttl == INITIAL_TTL
    pkt.ttl -= 3
    assert pkt.hops_taken() == 3


def test_last_flag_and_seq():
    pkt = data_packet(9, 0, 1, payload=512, seq=4096, last=True)
    assert pkt.last
    assert pkt.seq == 4096
    assert pkt.payload == 512


def test_fresh_packet_flags():
    pkt = data_packet(1, 0, 1, payload=10, seq=0, last=False)
    assert pkt.ecn is False
    assert pkt.sketch_marked is False
    assert pkt.ingress_port == -1
