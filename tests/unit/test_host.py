"""Unit tests for hosts: QP pacing, NP CNP logic, probes."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.simulator.dcqcn import DcqcnParams
from repro.simulator.engine import Simulator
from repro.simulator.flow import Flow
from repro.simulator.host import Host, HostConfig
from repro.simulator.link import Link
from repro.simulator.packet import Packet, PacketKind, data_packet
from repro.simulator.units import gbps, us


class Wire:
    """Collects what the host puts on its uplink."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet, in_port):
        self.arrivals.append((self.sim.now, packet))


@pytest.fixture
def rig():
    sim = Simulator()
    params = DcqcnParams()
    host = Host(sim, 0, "h0", params, HostConfig(mtu=1000))
    wire = Wire(sim)
    link = Link(sim, "h0->tor", host, wire, 0, gbps(10.0), 1e-6)
    host.attach_link(link)
    return sim, host, wire


def test_host_requires_uplink_before_sending():
    sim = Simulator()
    host = Host(sim, 0, "h0", DcqcnParams())
    with pytest.raises(RuntimeError):
        host.start_flow(Flow(1, 0, 1, 1000, 0.0))
    with pytest.raises(RuntimeError):
        host.send_probe(1)


def test_single_uplink_only(rig):
    sim, host, wire = rig
    with pytest.raises(RuntimeError):
        host.attach_link(Link(sim, "x", host, wire, 0, gbps(10.0), 1e-6))


def test_flow_src_must_match_host(rig):
    sim, host, wire = rig
    with pytest.raises(ValueError):
        host.start_flow(Flow(1, 3, 1, 1000, 0.0))


def test_flow_sends_all_bytes_in_mtu_chunks(rig):
    sim, host, wire = rig
    flow = Flow(1, 0, 1, 2500, 0.0)
    host.start_flow(flow)
    sim.run_until(0.01)
    data = [p for _, p in wire.arrivals if p.kind == PacketKind.DATA]
    assert [p.payload for p in data] == [1000, 1000, 500]
    assert [p.seq for p in data] == [0, 1000, 2000]
    assert [p.last for p in data] == [False, False, True]
    assert flow.bytes_sent == 2500
    assert host.active_qp_count() == 0  # QP torn down after last byte


def test_line_rate_pacing_back_to_back(rig):
    sim, host, wire = rig
    flow = Flow(1, 0, 1, 3000, 0.0)
    host.start_flow(flow)
    sim.run_until(0.01)
    times = [t for t, p in wire.arrivals if p.kind == PacketKind.DATA]
    # 1062-byte wire packets at 10 Gbps: one every ~0.85 us, plus prop.
    gap = times[1] - times[0]
    assert gap == pytest.approx(1062 * 8 / 1e10, rel=1e-6)


def test_reduced_rate_slows_pacing(rig):
    sim, host, wire = rig
    flow = Flow(1, 0, 1, 3000, 0.0)
    qp = host.start_flow(flow)
    qp.rp.rc = gbps(1.0)  # force a 10x lower rate
    sim.run_until(0.01)
    times = [t for t, p in wire.arrivals if p.kind == PacketKind.DATA]
    gap = times[1] - times[0]
    assert gap == pytest.approx(1062 * 8 / 1e9, rel=1e-6)


def test_multiple_qps_share_the_link(rig):
    sim, host, wire = rig
    host.start_flow(Flow(1, 0, 1, 5000, 0.0))
    host.start_flow(Flow(2, 0, 2, 5000, 0.0))
    sim.run_until(0.01)
    flows_seen = {p.flow_id for _, p in wire.arrivals if p.kind == PacketKind.DATA}
    assert flows_seen == {1, 2}


def test_np_sends_cnp_for_marked_packet(rig):
    sim, host, wire = rig
    pkt = data_packet(7, 3, 0, payload=1000, seq=0, last=False)
    pkt.ecn = True
    host.receive(pkt, 0)
    sim.run_until(0.001)
    cnps = [p for _, p in wire.arrivals if p.kind == PacketKind.CNP]
    assert len(cnps) == 1
    assert cnps[0].flow_id == 7
    assert cnps[0].dst == 3  # back to the sender


def test_np_cnp_pacing(rig):
    sim, host, wire = rig
    interval = host.params.min_time_between_cnps
    for i in range(5):
        pkt = data_packet(7, 3, 0, payload=1000, seq=i * 1000, last=False)
        pkt.ecn = True
        host.receive(pkt, 0)
    # Burst within one interval: exactly one CNP.
    assert host.cnps_sent == 1
    sim.run_until(interval * 1.01)
    pkt = data_packet(7, 3, 0, payload=1000, seq=9000, last=False)
    pkt.ecn = True
    host.receive(pkt, 0)
    assert host.cnps_sent == 2


def test_np_pacing_is_per_flow(rig):
    sim, host, wire = rig
    for fid in (7, 8):
        pkt = data_packet(fid, 3, 0, payload=1000, seq=0, last=False)
        pkt.ecn = True
        host.receive(pkt, 0)
    assert host.cnps_sent == 2


def test_unmarked_data_generates_no_cnp(rig):
    sim, host, wire = rig
    host.receive(data_packet(7, 3, 0, payload=1000, seq=0, last=False), 0)
    assert host.cnps_sent == 0


def test_cnp_for_unknown_flow_ignored(rig):
    sim, host, wire = rig
    host.receive(Packet(PacketKind.CNP, 99, 3, 0), 0)  # no such QP


def test_cnp_reaches_qp(rig):
    sim, host, wire = rig
    qp = host.start_flow(Flow(1, 0, 1, 10_000_000, 0.0))
    host.receive(Packet(PacketKind.CNP, 1, 1, 0), 0)
    assert qp.rp.cnps_received == 1
    assert qp.rp.rc < gbps(10.0)


def test_probe_and_ack_roundtrip(rig):
    sim, host, wire = rig
    samples = []
    host.on_rtt_sample = lambda src, dst, rtt, hops: samples.append((rtt, hops))
    host.send_probe(5)
    sim.run_until(0.001)
    probes = [p for _, p in wire.arrivals if p.kind == PacketKind.PROBE]
    assert len(probes) == 1
    # Simulate the remote echoing our probe after 3 hops.
    probe = probes[0]
    probe.ttl -= 3
    remote = Host(sim, 5, "h5", DcqcnParams())
    remote_wire = Wire(sim)
    remote.attach_link(Link(sim, "h5->tor", remote, remote_wire, 0, gbps(10.0), 1e-6))
    remote.receive(probe, 0)
    sim.run_until(0.002)
    acks = [p for _, p in remote_wire.arrivals if p.kind == PacketKind.PROBE_ACK]
    assert len(acks) == 1
    assert acks[0].probe_hops == 3
    host.receive(acks[0], 0)
    assert len(samples) == 1
    rtt, hops = samples[0]
    assert rtt > 0
    assert hops == 3


def test_data_receipt_counted(rig):
    sim, host, wire = rig
    flow = Flow(7, 3, 0, 1500, 0.0)
    stats = SimpleNamespace(flow_bytes={})
    done = []
    host.track_flows({7: flow}, stats, done.append)
    host.receive(data_packet(7, 3, 0, payload=1000, seq=0, last=False), 0)
    assert flow.bytes_received == 1000
    assert stats.flow_bytes == {7: 1000}
    assert done == []
    host.receive(data_packet(7, 3, 0, payload=500, seq=1000, last=True), 0)
    assert stats.flow_bytes == {7: 1500}
    assert done == [flow]  # told once, when the last byte is in
    host.receive(data_packet(8, 3, 0, payload=100, seq=0, last=True), 0)
    assert flow.bytes_received == 1500  # an untracked flow is not booked
    assert stats.flow_bytes == {7: 1500}


def test_invalid_host_config():
    with pytest.raises(ValueError):
        HostConfig(mtu=0).validate()
