"""Struct-framed control-plane messages.

Four message types flow through the control plane each monitor
interval (Fig. 2), sized to match the Table IV accounting:

* :class:`SwitchReport` (switch → controller, ~520 B): throughput,
  PFC pause time, and the local flow-size distribution (31-bucket
  histogram + elephant/mice weights + tracked-flow count).
* :class:`RnicReport` (RNIC → controller, 12 B payload): mean RTT and
  PFC pause for the host.
* :class:`ParamUpdate` (controller → everyone, ~76 B): the full DCQCN
  parameter set, float32 per knob.
* :class:`AggregateReport` (rack → pod → global, ~290 B): a merged FSD
  from one aggregation-tier node in the sharded control plane — same
  histogram payload as a switch report but carrying both weight lanes
  and no per-switch runtime metrics.

Framing is a 4-byte big-endian length followed by a 1-byte type tag
and the struct-packed payload — the moral equivalent of the paper's
gRPC-over-TCP without the codegen.

Malformed input raises typed :class:`ProtocolError` subclasses —
truncated frames, header/payload length mismatches, oversized length
prefixes, unknown type tags and undersized payloads (or a parameter
update carrying a non-finite or negative value, or a setting
:meth:`DcqcnParams.validate` rejects) each have their own class, so
transports can account for them individually instead of swallowing a
generic ``ValueError``.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field, fields as dc_fields
from typing import List, Tuple, Union

from repro.simulator.dcqcn import DcqcnParams

HEADER = struct.Struct(">IB")  # frame length (excl. itself), type tag

#: Upper bound on the header length field.  The largest legitimate
#: frame (a switch report) is well under 1 KiB; anything bigger is a
#: corrupt or hostile length prefix and must be rejected *before* the
#: transport tries to buffer it.
MAX_FRAME_BYTES = 4096


class ProtocolError(ValueError):
    """Base class for malformed control-plane input."""


class ShortFrameError(ProtocolError):
    """Frame ended before the header (or the declared payload) did."""


class FrameLengthMismatch(ProtocolError):
    """Header length field disagrees with the bytes actually present."""


class OversizedFrameError(ProtocolError):
    """Header length field exceeds :data:`MAX_FRAME_BYTES`."""


class UnknownMessageTypeError(ProtocolError):
    """Type tag does not name any known message."""


class PayloadError(ProtocolError):
    """Payload bytes do not unpack as the tagged message's struct."""


class UnexpectedMessageError(ProtocolError):
    """A well-formed message of the wrong type for this endpoint."""


class MessageType(enum.IntEnum):
    SWITCH_REPORT = 1
    RNIC_REPORT = 2
    PARAM_UPDATE = 3
    AGGREGATE_REPORT = 4


_HISTOGRAM_LEN = 31
_SWITCH_STRUCT = struct.Struct(
    ">H d d d d I" + "d" * _HISTOGRAM_LEN
)  # agent id, t, throughput, pause, eleph weight, tracked, histogram
_RNIC_STRUCT = struct.Struct(">H d f f")  # agent id, t, rtt, pause
_AGGREGATE_STRUCT = struct.Struct(
    ">B H d d d Q" + "d" * _HISTOGRAM_LEN
)  # tier level, node id, t, eleph weight, mice weight, tracked, histogram
_PARAM_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dc_fields(DcqcnParams)
)
_PARAM_STRUCT = struct.Struct(">d" + "f" * len(_PARAM_FIELDS))


@dataclass
class SwitchReport:
    """Per-interval upload from one switch control-plane agent."""

    agent_id: int
    timestamp: float
    throughput_bytes: float
    pause_seconds: float
    elephant_weight: float
    tracked_flows: int
    histogram: List[float] = field(
        default_factory=lambda: [0.0] * _HISTOGRAM_LEN
    )

    def pack(self) -> bytes:
        if len(self.histogram) != _HISTOGRAM_LEN:
            raise ValueError(
                f"histogram must have {_HISTOGRAM_LEN} buckets, "
                f"got {len(self.histogram)}"
            )
        return _SWITCH_STRUCT.pack(
            self.agent_id,
            self.timestamp,
            self.throughput_bytes,
            self.pause_seconds,
            self.elephant_weight,
            self.tracked_flows,
            *self.histogram,
        )

    @classmethod
    def unpack(cls, payload: bytes) -> "SwitchReport":
        values = _SWITCH_STRUCT.unpack(payload)
        return cls(
            agent_id=values[0],
            timestamp=values[1],
            throughput_bytes=values[2],
            pause_seconds=values[3],
            elephant_weight=values[4],
            tracked_flows=values[5],
            histogram=list(values[6:]),
        )


@dataclass
class RnicReport:
    """Per-interval upload from one server (RNIC metrics)."""

    agent_id: int
    timestamp: float
    mean_rtt: float
    pause_seconds: float

    def pack(self) -> bytes:
        return _RNIC_STRUCT.pack(
            self.agent_id, self.timestamp, self.mean_rtt, self.pause_seconds
        )

    @classmethod
    def unpack(cls, payload: bytes) -> "RnicReport":
        agent_id, timestamp, rtt, pause = _RNIC_STRUCT.unpack(payload)
        return cls(agent_id, timestamp, rtt, pause)


@dataclass
class ParamUpdate:
    """Full DCQCN setting pushed by the controller."""

    timestamp: float
    params: DcqcnParams

    def pack(self) -> bytes:
        values = self.params.as_dict()
        return _PARAM_STRUCT.pack(
            self.timestamp, *(float(values[name]) for name in _PARAM_FIELDS)
        )

    @classmethod
    def unpack(cls, payload: bytes) -> "ParamUpdate":
        values = _PARAM_STRUCT.unpack(payload)
        # The timestamp (simulation time) and every DCQCN knob are
        # finite and >= 0; an agent must never apply (or crash
        # rounding) anything else.
        bad = [
            name
            for name, value in zip(("timestamp",) + _PARAM_FIELDS, values)
            if not 0.0 <= value < math.inf
        ]
        if bad:
            raise PayloadError(
                f"PARAM_UPDATE carries a non-finite or negative "
                f"{', '.join(bad)}"
            )
        timestamp = values[0]
        raw = dict(zip(_PARAM_FIELDS, values[1:]))
        # Integral knobs round-trip through float32; restore them.
        for name in ("rpg_byte_reset", "rpg_threshold", "k_min", "k_max"):
            raw[name] = int(round(raw[name]))
        params = DcqcnParams.from_dict(raw)
        # Decoding hands agents exactly the settings the simulator
        # accepts: an inconsistent one (k_min >= k_max, p_max > 1, ...)
        # is malformed input, not a retune.
        try:
            params.validate()
        except ValueError as exc:
            raise PayloadError(f"PARAM_UPDATE carries {exc}") from exc
        return cls(timestamp, params)


@dataclass
class AggregateReport:
    """A merged FSD forwarded up one aggregation tier."""

    #: 1 = rack aggregator, 2 = pod aggregator, 3 = global controller.
    level: int
    node_id: int
    timestamp: float
    elephant_weight: float
    mice_weight: float
    tracked_flows: int
    histogram: List[float] = field(
        default_factory=lambda: [0.0] * _HISTOGRAM_LEN
    )

    def pack(self) -> bytes:
        if len(self.histogram) != _HISTOGRAM_LEN:
            raise ValueError(
                f"histogram must have {_HISTOGRAM_LEN} buckets, "
                f"got {len(self.histogram)}"
            )
        return _AGGREGATE_STRUCT.pack(
            self.level,
            self.node_id,
            self.timestamp,
            self.elephant_weight,
            self.mice_weight,
            self.tracked_flows,
            *self.histogram,
        )

    @classmethod
    def unpack(cls, payload: bytes) -> "AggregateReport":
        values = _AGGREGATE_STRUCT.unpack(payload)
        return cls(
            level=values[0],
            node_id=values[1],
            timestamp=values[2],
            elephant_weight=values[3],
            mice_weight=values[4],
            tracked_flows=values[5],
            histogram=list(values[6:]),
        )


Message = Union[SwitchReport, RnicReport, ParamUpdate, AggregateReport]

_TYPE_OF = {
    SwitchReport: MessageType.SWITCH_REPORT,
    RnicReport: MessageType.RNIC_REPORT,
    ParamUpdate: MessageType.PARAM_UPDATE,
    AggregateReport: MessageType.AGGREGATE_REPORT,
}
_CLASS_OF = {
    MessageType.SWITCH_REPORT: SwitchReport,
    MessageType.RNIC_REPORT: RnicReport,
    MessageType.PARAM_UPDATE: ParamUpdate,
    MessageType.AGGREGATE_REPORT: AggregateReport,
}


def encode_message(message: Message) -> bytes:
    """Frame a message: length + type tag + payload."""
    payload = message.pack()
    tag = _TYPE_OF[type(message)]
    return HEADER.pack(len(payload) + 1, tag) + payload


def check_frame_length(length: int) -> int:
    """Validate a header length field before any payload is buffered.

    Transports call this between reading the 5-byte header and reading
    the payload, so a corrupt length prefix can never make them buffer
    (or block on) gigabytes that will never arrive.
    """
    if length < 1:
        raise FrameLengthMismatch(
            f"header length field {length} cannot cover the type tag"
        )
    if length > MAX_FRAME_BYTES:
        raise OversizedFrameError(
            f"header length field {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    return length


def decode_message(frame: bytes) -> Message:
    """Inverse of :func:`encode_message` (frame = full bytes)."""
    if len(frame) < HEADER.size:
        raise ShortFrameError(
            f"frame truncated inside the header: got {len(frame)} of "
            f"{HEADER.size} bytes"
        )
    length, tag = HEADER.unpack(frame[: HEADER.size])
    check_frame_length(length)
    payload = frame[HEADER.size:]
    if len(payload) != length - 1:
        raise FrameLengthMismatch(
            f"frame length mismatch: header says {length - 1}, got {len(payload)}"
        )
    try:
        mtype = MessageType(tag)
    except ValueError as exc:
        raise UnknownMessageTypeError(f"unknown message tag {tag}") from exc
    try:
        return _CLASS_OF[mtype].unpack(payload)
    except struct.error as exc:
        raise PayloadError(
            f"{mtype.name} payload of {len(payload)} bytes does not "
            f"unpack: {exc}"
        ) from exc


def message_wire_size(message: Message) -> int:
    """Bytes on the wire including framing (Table IV accounting)."""
    return len(encode_message(message))
