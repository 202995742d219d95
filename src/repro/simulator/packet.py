"""Packet model for the RoCEv2 simulator.

A single ``Packet`` class covers data and control traffic; the
``kind`` field selects behaviour at the receiving device.  Control
packets (CNP, probe, probe-ack) ride a separate strict-priority queue
and are *not* subject to PFC pause, mirroring the usual deployment
where congestion notifications use a dedicated traffic class.

The ``sketch_marked`` flag models the unused TOS bit Paraleon uses to
guarantee each packet is inserted into exactly one sketch along its
path (DESIGN.md, Keypoint 1).
"""

from __future__ import annotations

from enum import IntEnum

from repro.simulator.units import CONTROL_PACKET_BYTES, HEADER_BYTES

INITIAL_TTL = 64

#: Free-list of recycled Packet objects.  A packet-level simulator
#: allocates and discards one object per packet per flow; recycling
#: them cuts a measurable slice of allocator work out of the hot path.
#: Packets go in through :meth:`Packet.release` (written out in
#: :meth:`~repro.simulator.host.Host.receive` for delivered data) and
#: come out only as data packets that
#: :meth:`~repro.simulator.host.HostEgress.kick` re-initialises field
#: by field, so a recycled packet is indistinguishable from a fresh
#: one.
FREE_LIST: list = []
FREE_LIST_MAX = 8192


def freelist_occupancy() -> int:
    """Packets currently parked in the free-list (``engine.interval``)."""
    return len(FREE_LIST)


class PacketKind(IntEnum):
    """What a packet is, which decides how devices treat it."""

    DATA = 0
    CNP = 1
    PROBE = 2
    PROBE_ACK = 3
    ACK = 4  # per-packet delay feedback (Swift-style CC only)


# Enum member lookup (``PacketKind.DATA``) costs several times a
# global load, so per-packet code compares against module constants.
_DATA = PacketKind.DATA
_CNP = PacketKind.CNP
_CONTROL_KINDS = (PacketKind.CNP, PacketKind.PROBE_ACK, PacketKind.ACK)


class Packet:
    """A packet in flight.

    Attributes
    ----------
    flow_id:
        Flow (QP) the packet belongs to; -1 for probes.
    src, dst:
        Host ids of the original sender and the final destination.
    seq:
        Byte offset of the first payload byte within the flow.
    payload:
        Payload bytes carried (0 for control packets).
    wire_size:
        Bytes occupying links and buffers (payload + header).
    ecn:
        Congestion Experienced mark set by a switch.
    sketch_marked:
        TOS bit: the packet has already been inserted into a sketch.
    ttl:
        Decremented at each switch hop; used for hop counting.
    sent_at:
        Time the packet left the source NIC (probe RTT measurement).
    last:
        True for the final packet of a flow (completion detection).
    is_control:
        The packet rides the unpausable strict-priority queue.  CNPs,
        ACKs and probe replies use that lossless high-priority class;
        PROBE packets deliberately share the *data* class so measured
        RTT reflects data-path queueing and PFC pauses.
    """

    __slots__ = (
        "kind",
        "is_control",
        "flow_id",
        "src",
        "dst",
        "seq",
        "payload",
        "wire_size",
        "ecn",
        "sketch_marked",
        "ttl",
        "sent_at",
        "last",
        "ingress_port",
        "probe_hops",
        "pooled",
    )

    def __init__(
        self,
        kind: PacketKind,
        flow_id: int,
        src: int,
        dst: int,
        payload: int = 0,
        seq: int = 0,
        sent_at: float = 0.0,
        last: bool = False,
    ):
        self.kind = kind
        self.is_control = kind in _CONTROL_KINDS
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.payload = payload
        if kind == _DATA:
            self.wire_size = payload + HEADER_BYTES
        else:
            self.wire_size = CONTROL_PACKET_BYTES
        self.ecn = False
        self.sketch_marked = False
        self.ttl = INITIAL_TTL
        self.sent_at = sent_at
        self.last = last
        # Transient per-hop state: which port the packet entered the
        # current switch on (for shared-buffer / PFC accounting).
        self.ingress_port = -1
        # Forward-path hop count copied into a PROBE_ACK so the prober
        # can compute the Swift-style base path delay.
        self.probe_hops = 0
        # Parked in the free-list (set on release, cleared on reuse).
        self.pooled = False

    def release(self) -> None:
        """Return this packet to the free-list.

        Only the device that finally consumes a packet (the destination
        host, or a switch dropping it) may call this; after release the
        object can be handed out again as a data packet with all fields
        re-initialised.  Idempotent.
        """
        if not self.pooled and len(FREE_LIST) < FREE_LIST_MAX:
            self.pooled = True
            FREE_LIST.append(self)

    def hops_taken(self) -> int:
        """Switch hops traversed so far (TTL decrements)."""
        return INITIAL_TTL - self.ttl

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind.name}, flow={self.flow_id}, "
            f"{self.src}->{self.dst}, seq={self.seq}, wire={self.wire_size})"
        )


def data_packet(
    flow_id: int, src: int, dst: int, payload: int, seq: int, last: bool
) -> Packet:
    """Convenience constructor for a fresh DATA packet."""
    return Packet(_DATA, flow_id, src, dst, payload=payload, seq=seq, last=last)


def cnp_packet(flow_id: int, src: int, dst: int) -> Packet:
    """CNP from the notification point back to the reaction point.

    ``src`` is the NP (receiver of the marked data), ``dst`` the RP.
    """
    return Packet(_CNP, flow_id, src, dst)
