"""Byte-level fuzz of the control-plane framing.

Whatever bytes arrive, the decoder and the transport's frame reader
either return a message or raise a typed error the transports account
for: :class:`~repro.rpc.protocol.ProtocolError` (and, for a stream
that ends mid-frame, ``asyncio.IncompleteReadError``).  Nothing else
may escape, no read may hang, and a decoded parameter update is always
a setting the simulator accepts.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings, strategies as st

from repro.rpc.protocol import (
    _AGGREGATE_STRUCT,
    _PARAM_FIELDS,
    _PARAM_STRUCT,
    _RNIC_STRUCT,
    _SWITCH_STRUCT,
    HEADER,
    MAX_FRAME_BYTES,
    MessageType,
    ParamUpdate,
    ProtocolError,
    decode_message,
)
from repro.rpc.transport import _read_frame

_FUZZ = settings(deadline=None, max_examples=300)

#: Any tag byte, with the known tags drawn often enough that every
#: message type's decoder sees many payloads.
_TAG = st.sampled_from([int(t) for t in MessageType]) | st.integers(
    min_value=0, max_value=255
)

#: Payloads of exactly each message struct's size, so random bytes
#: reach the per-type unpack and its checks, not just the framing.
_STRUCT_SIZED = st.sampled_from(
    [s.size for s in (_SWITCH_STRUCT, _RNIC_STRUCT, _PARAM_STRUCT,
                      _AGGREGATE_STRUCT)]
).flatmap(lambda n: st.binary(min_size=n, max_size=n))

#: One DCQCN knob: any float32 (NaN, inf, negatives included), or a
#: plausible magnitude so the draw gets past the sign/finiteness
#: screen and exercises the consistency checks.
_KNOB = (
    st.floats(width=32)
    | st.floats(min_value=0.0, max_value=3.0, width=32)
    | st.integers(min_value=0, max_value=300_000).map(float)
)

_PARAM_PAYLOAD = st.builds(
    lambda ts, knobs: _PARAM_STRUCT.pack(ts, *knobs),
    st.floats() | st.floats(min_value=0.0, max_value=10.0),
    st.lists(_KNOB, min_size=len(_PARAM_FIELDS),
             max_size=len(_PARAM_FIELDS)),
)

_PAYLOAD = st.one_of(
    st.binary(max_size=MAX_FRAME_BYTES - 1), _STRUCT_SIZED, _PARAM_PAYLOAD
)


def _decode_or_protocol_error(frame: bytes):
    try:
        return decode_message(frame)
    except ProtocolError:
        return None


@_FUZZ
@given(st.binary(max_size=2 * MAX_FRAME_BYTES))
def test_decode_arbitrary_bytes_raises_only_protocol_errors(data):
    _decode_or_protocol_error(data)


@_FUZZ
@given(_TAG, _PAYLOAD)
def test_framed_payload_for_every_tag_decodes_or_raises_protocol_error(
    tag, payload
):
    frame = HEADER.pack(len(payload) + 1, tag) + payload
    message = _decode_or_protocol_error(frame)
    if isinstance(message, ParamUpdate):
        message.params.validate()


async def _read_fed(data: bytes):
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    try:
        return await asyncio.wait_for(_read_frame(reader), timeout=1.0)
    except (ProtocolError, asyncio.IncompleteReadError):
        return None


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(
        st.binary(max_size=64),
        st.builds(
            lambda tag, payload, cut: (
                HEADER.pack(len(payload) + 1, tag) + payload
            )[:cut],
            _TAG,
            _PAYLOAD,
            st.integers(min_value=0, max_value=MAX_FRAME_BYTES + 8),
        ),
    )
)
def test_read_frame_on_arbitrary_stream_never_hangs_or_escapes(data):
    # asyncio.TimeoutError is deliberately not caught: a read that
    # neither completes nor fails on a closed stream is a hang.
    asyncio.run(_read_fed(data))
