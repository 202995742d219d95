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

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop as _heappop, heappush as _heappush
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro.simulator.dcqcn import DcqcnParams, DcqcnRp
from repro.simulator.engine import Simulator
from repro.simulator.flow import Flow
from repro.simulator.link import Link, PauseState
from repro.simulator.packet import (
    FREE_LIST,
    FREE_LIST_MAX,
    INITIAL_TTL,
    Packet,
    PacketKind,
    cnp_packet,
    next_packet_id,
)
from repro.simulator.units import DEFAULT_MTU, HEADER_BYTES

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.stats import StatsCollector

# Module constants: enum member lookup is slow on the per-packet path.
_DATA = PacketKind.DATA
_CNP = PacketKind.CNP
_PROBE = PacketKind.PROBE
_PROBE_ACK = PacketKind.PROBE_ACK
_ACK = PacketKind.ACK


@dataclass(frozen=True)
class HostConfig:
    """Per-host NIC configuration (frozen: the egress copies ``mtu``
    when the uplink is attached)."""

    mtu: int = DEFAULT_MTU

    def validate(self) -> None:
        if not (math.isfinite(self.mtu) and self.mtu > 0):
            raise ValueError(f"HostConfig.mtu must be finite and > 0, got {self.mtu!r}")


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
        # Bound once for the two heap pushes per packet (the engine's
        # direct-push contract) and this port's own finish callback.
        self._heap = sim.heap
        self._next_seq = sim.next_seq
        self._sec_per_byte = link.sec_per_byte
        self._prop_delay = link.prop_delay
        self._dst_receive = link.dst.receive
        self._dst_port = link.dst_port
        self._kick = self.kick
        self.pause = PauseState(sim)
        self.control: Deque[Packet] = deque()
        self.qps: Dict[int, SenderQp] = {}
        # (next_allowed, order, qp) for every QP not on the wire.
        self._pacing: List[Tuple[float, int, SenderQp]] = []
        self._admitted = 0
        self.busy = False
        # The pending pacing wake: its time (inf when none) and the token
        # its engine entry carries.  A wake superseded by an earlier one
        # still fires, and finds its token stale.
        self._wake_at = math.inf
        self._wake_token = 0
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

    def kick(
        self,
        done: Optional[Packet] = None,
        qp: Optional[SenderQp] = None,
        start: float = 0.0,
    ) -> None:
        """Finish ``done``, then start the next transmission if any.

        ``done`` is the packet whose last bit just left, ``qp`` the QP
        that sent it (None for control) and ``start`` the time its
        first bit went out: this method is the serialization-finish
        event it pushes for every packet.  Called with nothing, it is a
        kick: start a transmission if the serializer is idle.  The next
        data packet is built here, from the free-list when it can be.
        """
        now = self.sim.now
        if done is not None:
            link = self.link
            size = done.wire_size
            link.tx_bytes += size
            link.tx_packets += 1
            _heappush(self._heap, (
                now + self._prop_delay, self._next_seq(),
                self._dst_receive, (done, self._dst_port),
            ))
            if qp is not None:
                self.data_tx_bytes += size
                rate = qp.rp.on_packet_sent(size)
                if done.last:  # the flow has nothing left to send
                    qp.rp.stop()
                    self.qps.pop(qp.flow.flow_id, None)
                else:
                    # Pace from the start of this transmission at the current rate.
                    _heappush(
                        self._pacing, (start + size * 8.0 / rate, qp.order, qp)
                    )
            self.busy = False
        elif self.busy:
            return
        if self.control:
            packet = self.control.popleft()
            qp = None
        elif self.pause.paused:
            return
        else:
            pacing = self._pacing
            if not pacing:
                return
            earliest = pacing[0][0]
            if earliest > now:
                self._schedule_wake(earliest)
                return
            qp = _heappop(pacing)[2]
            flow = qp.flow
            seq = flow.bytes_sent
            remaining = flow.size - seq
            payload = min(self.mtu, remaining)
            if FREE_LIST:
                packet = FREE_LIST.pop()
                packet.pkt_id = next_packet_id()
                packet.kind = _DATA
                packet.is_control = False
                packet.flow_id = flow.flow_id
                packet.src = flow.src
                packet.dst = flow.dst
                packet.seq = seq
                packet.payload = payload
                packet.wire_size = payload + HEADER_BYTES
                packet.ecn = False
                packet.sketch_marked = False
                packet.ttl = INITIAL_TTL
                packet.last = payload == remaining
                packet.ingress_port = -1
                packet.probe_hops = 0
                packet.pooled = False
            else:
                packet = Packet(
                    _DATA, flow.flow_id, flow.src, flow.dst,
                    payload=payload, seq=seq, last=payload == remaining,
                )
            packet.sent_at = now  # echoed by Swift-style ACKs
            flow.bytes_sent = seq + payload
        self.busy = True
        _heappush(self._heap, (
            now + packet.wire_size * self._sec_per_byte, self._next_seq(),
            self._kick, (packet, qp, now),
        ))

    def _schedule_wake(self, at_time: float) -> None:
        if self._wake_at <= at_time:
            return  # an earlier (or equal) wake is already pending
        self._wake_at = at_time
        self._wake_token += 1
        self.sim.post_at(at_time, self._wake_fired, self._wake_token)

    def _wake_fired(self, token: int) -> None:
        # The token, not the time: a stale entry due at the same instant
        # as the live one must not fire in its place.
        if token != self._wake_token:
            return
        self._wake_at = math.inf
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

        # Delivery bookkeeping, wired by the Network (:meth:`track_flows`):
        # flow id -> Flow for the flows this host may receive, the stats
        # collector whose open interval delivered bytes are booked to,
        # and who to tell when a flow's last byte is in.
        self._flows: Dict[int, Flow] = {}
        self._stats: Optional["StatsCollector"] = None
        self._on_flow_done: Optional[Callable[[Flow], None]] = None
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
        # Each DCQCN QP catches its timers up under the old knobs as it
        # takes the new ones (DcqcnRp.params).
        if self.egress is not None and self.cc_mode == "dcqcn":
            for qp in self.egress.qps.values():
                qp.rp.params = params
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

    def track_flows(
        self,
        flows: Dict[int, Flow],
        stats: "StatsCollector",
        on_flow_done: Callable[[Flow], None],
    ) -> None:
        """Book delivered data against ``flows`` (read live, not copied).

        Each delivered data packet adds its payload to its flow's
        ``bytes_received`` and to ``stats.flow_bytes`` (the open
        interval's oracle table); ``on_flow_done(flow)`` runs once, when
        a flow has received all of its bytes.
        """
        self._flows = flows
        self._stats = stats
        self._on_flow_done = on_flow_done

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
            rp = DcqcnRp(self.sim, self.line_rate, self._params)
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
        """Deliver ``packet``.

        A data packet is one frame unless it needs a CNP or ACK or
        completes its flow: count it, book its payload to its flow and
        to the interval's oracle table, and hand the packet back to the
        free-list (the destination host is its final consumer).
        """
        kind = packet.kind
        if kind == _DATA:
            payload = packet.payload
            flow_id = packet.flow_id
            self.rx_bytes += payload
            self.rx_data_packets += 1
            if self.cc_mode == "swift":
                self._send_ack(packet)
            elif packet.ecn:
                self._maybe_send_cnp(packet)
            if packet.last:
                self._np_last_cnp.pop(flow_id, None)
            flow = self._flows.get(flow_id)
            if flow is not None:
                flow.bytes_received += payload
                table = self._stats.flow_bytes
                table[flow_id] = table.get(flow_id, 0) + payload
                if flow.finish_time is None and flow.bytes_received >= flow.size:
                    self._on_flow_done(flow)
            if not packet.pooled and len(FREE_LIST) < FREE_LIST_MAX:
                packet.pooled = True
                FREE_LIST.append(packet)
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
