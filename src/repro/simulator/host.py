"""Host with an RDMA NIC: sender QPs, Notification Point, probes.

The host's single uplink is served by a *pull-based* egress: instead of
letting QPs push packets into an unbounded NIC queue, the serializer
asks the set of active QPs for the next packet whose DCQCN pacing time
has arrived.  This mirrors how an RNIC's rate limiters actually gate
the DMA engine and keeps the event count proportional to packets sent.

Roles implemented here:

* **RP** (sender): one :class:`~repro.simulator.dcqcn.DcqcnRp` per QP;
  pacing interval is ``wire_bits / rc`` measured from the start of each
  transmission.  QPs waiting for the wire sit in a heap keyed by
  ``(next_allowed, admission order)``: the earliest pacing deadline
  goes next, ties to the oldest QP.
* **NP** (receiver): on an ECN-marked data packet, send a CNP back to
  the sender, at most once per ``min_time_between_cnps`` per flow.
* **Prober**: emits small PROBE packets that ride the *data* class (so
  measured RTT sees queueing and PFC) and are echoed as high-priority
  PROBE_ACKs carrying the forward hop count, Swift-style.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop as _heappop, heappush as _heappush
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.simulator.dcqcn import DcqcnParams, DcqcnRp
from repro.simulator.engine import EventHandle, Simulator
from repro.simulator.flow import Flow
from repro.simulator.link import Link, PauseState
from repro.simulator.packet import Packet, PacketKind, data_packet, cnp_packet
from repro.simulator.units import DEFAULT_MTU

# Module constants: enum member lookup is slow on the per-packet path.
_DATA = PacketKind.DATA
_CNP = PacketKind.CNP
_PROBE = PacketKind.PROBE
_PROBE_ACK = PacketKind.PROBE_ACK
_ACK = PacketKind.ACK


@dataclass
class HostConfig:
    """Per-host NIC configuration."""

    mtu: int = DEFAULT_MTU

    def validate(self) -> None:
        if self.mtu <= 0:
            raise ValueError("mtu must be positive")


class SenderQp:
    """Sender-side queue pair: a flow plus its DCQCN reaction point.

    ``order`` is the QP's admission number on its host's egress, the
    tie-break between equal pacing deadlines.
    """

    __slots__ = ("flow", "rp", "order")

    def __init__(self, flow: Flow, rp: DcqcnRp):
        self.flow = flow
        self.rp = rp
        self.order = 0


class HostEgress:
    """Pull-based serializer for the host uplink."""

    def __init__(self, sim: Simulator, link: Link, mtu: int):
        self.sim = sim
        self.link = link
        self.mtu = mtu
        # Bound once for the per-packet serialization loop.
        self._post = sim.post
        self._dst_receive = link.dst.receive
        self.pause = PauseState(sim)
        self.control: Deque[Packet] = deque()
        self.qps: Dict[int, SenderQp] = {}
        # (next_allowed, order, qp) for every QP not on the wire.
        self._pacing: List[Tuple[float, int, SenderQp]] = []
        self._admitted = 0
        self.busy = False
        self._wake: Optional[EventHandle] = None
        # Data-plane bytes only (excludes CNPs/probes); feeds O_TP.
        self.data_tx_bytes = 0

    # -- admission -----------------------------------------------------

    def send_control(self, packet: Packet) -> None:
        self.control.append(packet)
        self.kick()

    def add_qp(self, qp: SenderQp) -> None:
        """Admit ``qp``; it may send at once."""
        qp.order = self._admitted
        self._admitted += 1
        self.qps[qp.flow.flow_id] = qp
        _heappush(self._pacing, (self.sim.now, qp.order, qp))
        self.kick()

    def set_paused(self, paused: bool) -> None:
        changed = self.pause.set_paused(paused)
        if changed and not paused:
            self.kick()

    # -- scheduling ----------------------------------------------------

    def kick(self) -> None:
        """Try to start a transmission if the serializer is idle."""
        if self.busy:
            return
        qp: Optional[SenderQp] = None
        if self.control:
            packet = self.control.popleft()
        elif self.pause.paused:
            return
        else:
            pacing = self._pacing
            if not pacing:
                return
            earliest = pacing[0][0]
            if earliest > self.sim.now:
                self._schedule_wake(earliest)
                return
            qp = _heappop(pacing)[2]
            packet = self._build_data(qp)
        self.busy = True
        self._post(
            packet.wire_size * self.link.sec_per_byte,
            self._finish, packet, qp, self.sim.now,
        )

    def _schedule_wake(self, at_time: float) -> None:
        if self._wake is not None:
            if self._wake.time <= at_time:
                return  # an earlier (or equal) wake is already pending
            self._wake.cancel()
        self._wake = self.sim.at(at_time, self._wake_fired)

    def _wake_fired(self) -> None:
        self._wake = None
        self.kick()

    def _build_data(self, qp: SenderQp) -> Packet:
        flow = qp.flow
        remaining = flow.remaining_to_send
        payload = min(self.mtu, remaining)
        packet = data_packet(
            flow.flow_id,
            flow.src,
            flow.dst,
            payload=payload,
            seq=flow.bytes_sent,
            last=(payload == remaining),
        )
        packet.sent_at = self.sim.now  # echoed by Swift-style ACKs
        flow.bytes_sent += payload
        return packet

    def _finish(self, packet: Packet, qp: Optional[SenderQp], start: float) -> None:
        """Last bit on the wire: count, propagate, pace the QP, go on."""
        link = self.link
        size = packet.wire_size
        link.tx_bytes += size
        link.tx_packets += 1
        self._post(link.prop_delay, self._dst_receive, packet, link.dst_port)
        if qp is not None:
            self.data_tx_bytes += size
            rate = qp.rp.on_packet_sent(size)
            if packet.last:  # the flow has nothing left to send
                qp.rp.stop()
                self.qps.pop(qp.flow.flow_id, None)
            else:
                # Pace from the start of this transmission at the current rate.
                _heappush(
                    self._pacing, (start + size * 8.0 / rate, qp.order, qp)
                )
        self.busy = False
        self.kick()


class Host:
    """A server with one RNIC attached to its ToR switch."""

    def __init__(
        self,
        sim: Simulator,
        host_id: int,
        name: str,
        params: DcqcnParams,
        config: Optional[HostConfig] = None,
        cc_mode: str = "dcqcn",
        swift_params=None,
    ):
        if cc_mode not in ("dcqcn", "swift"):
            raise ValueError(f"unknown cc_mode {cc_mode!r}")
        self.sim = sim
        self.host_id = host_id
        self.name = name
        self._params = params
        self.config = config or HostConfig()
        self.config.validate()
        self.cc_mode = cc_mode
        self.swift_params = swift_params

        self.egress: Optional[HostEgress] = None
        self.line_rate = 0.0

        # Notification Point state: flow id -> last CNP emission time.
        self._np_last_cnp: Dict[int, float] = {}

        # Callbacks wired by the Network.
        self.on_data: Optional[Callable[[Packet], None]] = None
        self.on_rtt_sample: Optional[Callable[[int, int, float, int], None]] = None

        # Counters.
        self.rx_bytes = 0
        self.rx_data_packets = 0
        self.cnps_sent = 0
        self.probes_sent = 0

    @property
    def params(self) -> DcqcnParams:
        """The DCQCN knobs this RNIC's NP and every DCQCN QP read."""
        return self._params

    @params.setter
    def params(self, params: DcqcnParams) -> None:
        # Timer expiries up to now apply under the knobs in force then.
        if self.egress is not None:
            for qp in self.egress.qps.values():
                qp.rp.catch_up()
        self._params = params

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_link(self, link: Link) -> int:
        """Attach the uplink; a host has exactly one port (index 0)."""
        if self.egress is not None:
            raise RuntimeError(f"{self.name} already has an uplink")
        self.egress = HostEgress(self.sim, link, self.config.mtu)
        self.line_rate = link.rate_bps
        return 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def start_flow(self, flow: Flow) -> SenderQp:
        """Create a QP for ``flow`` and begin transmitting now."""
        if self.egress is None:
            raise RuntimeError(f"{self.name} has no uplink")
        if flow.src != self.host_id:
            raise ValueError(
                f"flow {flow.flow_id} has src {flow.src}, not {self.host_id}"
            )
        if self.cc_mode == "swift":
            from repro.simulator.swift import SwiftCc, SwiftParams

            swift_params = self.swift_params or SwiftParams()
            rp = SwiftCc(self.sim, self.line_rate, lambda: swift_params)
        else:
            rp = DcqcnRp(self.sim, self.line_rate, lambda: self._params)
        rp.start()
        qp = SenderQp(flow, rp)
        self.egress.add_qp(qp)
        return qp

    def send_probe(self, dst: int) -> None:
        """Emit one RTT probe toward ``dst`` (data-class, small)."""
        if self.egress is None:
            raise RuntimeError(f"{self.name} has no uplink")
        probe = Packet(
            _PROBE, -1, self.host_id, dst, sent_at=self.sim.now
        )
        self.probes_sent += 1
        self.egress.send_control(probe)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def receive(self, packet: Packet, in_port: int) -> None:
        kind = packet.kind
        if kind == _DATA:
            self.rx_bytes += packet.payload
            self.rx_data_packets += 1
            if self.cc_mode == "swift":
                self._send_ack(packet)
            elif packet.ecn:
                self._maybe_send_cnp(packet)
            if packet.last:
                self._np_last_cnp.pop(packet.flow_id, None)
            if self.on_data is not None:
                self.on_data(packet)
            # The destination host is the packet's final consumer.
            packet.release()
        elif kind == _CNP:
            self._receive_cnp(packet)
        elif kind == _PROBE:
            self._receive_probe(packet)
        elif kind == _PROBE_ACK:
            self._receive_probe_ack(packet)
        elif kind == _ACK:
            self._receive_ack(packet)

    def _send_ack(self, packet: Packet) -> None:
        """Swift NP role: echo the transmit timestamp per data packet."""
        ack = Packet(
            _ACK,
            packet.flow_id,
            self.host_id,
            packet.src,
            sent_at=packet.sent_at,
        )
        ack.probe_hops = packet.hops_taken()
        self.egress.send_control(ack)

    def _receive_ack(self, packet: Packet) -> None:
        qp = self.egress.qps.get(packet.flow_id) if self.egress else None
        if qp is not None:
            delay = self.sim.now - packet.sent_at
            qp.rp.on_ack(delay, packet.probe_hops)
        packet.release()

    def _maybe_send_cnp(self, packet: Packet) -> None:
        """NP role: per-flow CNP pacing at ``min_time_between_cnps``."""
        now = self.sim.now
        last = self._np_last_cnp.get(packet.flow_id)
        if last is not None and now - last < self._params.min_time_between_cnps:
            return
        self._np_last_cnp[packet.flow_id] = now
        self.cnps_sent += 1
        self.egress.send_control(cnp_packet(packet.flow_id, self.host_id, packet.src))

    def _receive_cnp(self, packet: Packet) -> None:
        qp = self.egress.qps.get(packet.flow_id) if self.egress else None
        if qp is not None:
            qp.rp.on_cnp()
        # CNPs for already-finished flows are silently ignored, like a
        # real RNIC tearing down the rate limiter with the QP.
        packet.release()

    def _receive_probe(self, packet: Packet) -> None:
        ack = Packet(
            _PROBE_ACK,
            -1,
            self.host_id,
            packet.src,
            sent_at=packet.sent_at,
        )
        ack.probe_hops = packet.hops_taken()
        self.egress.send_control(ack)
        packet.release()

    def _receive_probe_ack(self, packet: Packet) -> None:
        if self.on_rtt_sample is not None:
            rtt = self.sim.now - packet.sent_at
            self.on_rtt_sample(self.host_id, packet.src, rtt, packet.probe_hops)
        packet.release()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_paused_time(self) -> float:
        if self.egress is None:
            return 0.0
        return self.egress.pause.paused_time_until_now()

    def active_qp_count(self) -> int:
        return 0 if self.egress is None else len(self.egress.qps)

    def qp_sample(self) -> dict:
        """Aggregate DCQCN state across this host's QPs (read-only).

        ``getattr`` defaults keep this safe for non-DCQCN reaction
        points (e.g. Swift) that carry no alpha or CNP counters.
        """
        n = 0
        rate_sum = alpha_sum = alpha_max = 0.0
        rate_min = 0.0
        cnps = 0
        if self.egress is not None:
            for qp in self.egress.qps.values():
                rp = qp.rp
                if not getattr(rp, "active", True):
                    continue
                rc = float(getattr(rp, "rc", self.line_rate))
                rate_sum += rc
                rate_min = rc if n == 0 else min(rate_min, rc)
                alpha = float(getattr(rp, "alpha", 0.0))
                alpha_sum += alpha
                alpha_max = max(alpha_max, alpha)
                cnps += int(getattr(rp, "cnps_received", 0))
                n += 1
        return {
            "n": n, "rate_sum": rate_sum, "rate_min": rate_min,
            "alpha_sum": alpha_sum, "alpha_max": alpha_max, "cnps": cnps,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name}, qps={self.active_qp_count()})"
