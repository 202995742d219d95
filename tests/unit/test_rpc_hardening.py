"""Malformed-input hardening tests for the RPC layer.

Each structurally invalid input class maps to its own typed
:class:`~repro.rpc.protocol.ProtocolError` subclass, and the asyncio
transport accounts for each failure mode separately instead of
swallowing a generic ``ValueError``.
"""

from __future__ import annotations

import asyncio
import math
import struct
from dataclasses import fields

import pytest

from repro.rpc.protocol import (
    HEADER,
    MAX_FRAME_BYTES,
    AggregateReport,
    FrameLengthMismatch,
    MessageType,
    OversizedFrameError,
    ParamUpdate,
    PayloadError,
    ProtocolError,
    RnicReport,
    ShortFrameError,
    UnknownMessageTypeError,
    check_frame_length,
    decode_message,
    encode_message,
    message_wire_size,
)
from repro.rpc.transport import AgentClient, ControllerServer
from repro.simulator.dcqcn import DcqcnParams
from repro.tuning.parameters import default_params


def run(coro):
    return asyncio.run(coro)


def _param_update_frame(**overrides: float) -> bytes:
    """A well-framed ``PARAM_UPDATE``: default params plus ``overrides``."""
    values = {"timestamp": 0.0, **default_params().as_dict(), **overrides}
    names = [f.name for f in fields(DcqcnParams)]
    payload = struct.pack(
        ">d" + "f" * len(names),
        values["timestamp"],
        *(float(values[n]) for n in names),
    )
    return HEADER.pack(len(payload) + 1, MessageType.PARAM_UPDATE) + payload


_BAD_PARAM_FIELDS = [
    ("k_min", math.inf),
    ("k_min", math.nan),
    ("k_max", -1.0),
    ("p_max", math.inf),
    ("p_max", math.nan),
    ("p_max", -5.0),
    ("rpg_ai_rate", math.inf),
    ("rpg_ai_rate", math.nan),
    ("rpg_ai_rate", -5.0),
    ("timestamp", math.nan),
    ("timestamp", -1.0),
]


# ---------------------------------------------------------------------------
# decode_message: one typed error per malformed-input class
# ---------------------------------------------------------------------------


class TestDecodeErrors:
    def test_truncated_header_raises_short_frame(self):
        frame = encode_message(RnicReport(0, 0.0, 0.0, 0.0))
        for cut in range(HEADER.size):
            with pytest.raises(ShortFrameError):
                decode_message(frame[:cut])

    def test_truncated_payload_raises_length_mismatch(self):
        frame = encode_message(RnicReport(0, 0.0, 0.0, 0.0))
        with pytest.raises(FrameLengthMismatch):
            decode_message(frame[:-3])

    def test_trailing_garbage_raises_length_mismatch(self):
        frame = encode_message(RnicReport(0, 0.0, 0.0, 0.0))
        with pytest.raises(FrameLengthMismatch):
            decode_message(frame + b"\x00\x01")

    def test_zero_length_field_raises_length_mismatch(self):
        with pytest.raises(FrameLengthMismatch):
            decode_message(HEADER.pack(0, MessageType.RNIC_REPORT))

    def test_oversized_length_prefix_raises(self):
        header = HEADER.pack(MAX_FRAME_BYTES + 1, MessageType.RNIC_REPORT)
        with pytest.raises(OversizedFrameError):
            decode_message(header + b"\x00" * 8)

    def test_unknown_type_tag_raises(self):
        payload = RnicReport(0, 0.0, 0.0, 0.0).pack()
        frame = HEADER.pack(len(payload) + 1, 250) + payload
        with pytest.raises(UnknownMessageTypeError):
            decode_message(frame)

    def test_undersized_payload_raises_payload_error(self):
        # Header says 9 payload bytes and they are all present, but a
        # switch report's struct needs far more — struct-level failure.
        frame = HEADER.pack(10, MessageType.SWITCH_REPORT) + b"\x00" * 9
        with pytest.raises(PayloadError):
            decode_message(frame)

    @pytest.mark.parametrize("name,value", _BAD_PARAM_FIELDS)
    def test_non_finite_or_negative_param_update_raises_payload_error(
        self, name, value
    ):
        with pytest.raises(PayloadError, match=name):
            decode_message(_param_update_frame(**{name: value}))

    def test_zero_knobs_still_decode(self):
        update = decode_message(_param_update_frame(k_min=0.0))
        assert update.params.k_min == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"k_min": 50000, "k_max": 50000},
            {"p_max": 3.0},
            {"dce_tcp_g": 2.0},
        ],
        ids=["k_min==k_max", "p_max>1", "dce_tcp_g>1"],
    )
    def test_param_update_the_simulator_rejects_raises_payload_error(
        self, overrides
    ):
        # Finite and non-negative, so only DcqcnParams.validate()
        # catches these; decoding must not hand them to an agent.
        with pytest.raises(PayloadError):
            decode_message(_param_update_frame(**overrides))

    def test_default_param_update_round_trip_unchanged(self):
        params = default_params()
        update = decode_message(encode_message(ParamUpdate(1.5, params)))
        assert update.timestamp == 1.5
        for name, value in params.as_dict().items():
            assert getattr(update.params, name) == pytest.approx(
                value, rel=1e-6
            )

    def test_all_errors_are_protocol_and_value_errors(self):
        for exc_type in (
            ShortFrameError,
            FrameLengthMismatch,
            OversizedFrameError,
            UnknownMessageTypeError,
            PayloadError,
        ):
            assert issubclass(exc_type, ProtocolError)
            assert issubclass(exc_type, ValueError)


class TestCheckFrameLength:
    def test_bounds(self):
        assert check_frame_length(1) == 1
        assert check_frame_length(MAX_FRAME_BYTES) == MAX_FRAME_BYTES
        with pytest.raises(FrameLengthMismatch):
            check_frame_length(0)
        with pytest.raises(OversizedFrameError):
            check_frame_length(MAX_FRAME_BYTES + 1)

    def test_largest_legitimate_frame_fits_the_cap(self):
        switch_like = AggregateReport(1, 0, 0.0, 0.0, 0.0, 0)
        assert message_wire_size(switch_like) < MAX_FRAME_BYTES


# ---------------------------------------------------------------------------
# AggregateReport (tier upload of the sharded control plane)
# ---------------------------------------------------------------------------


class TestAggregateReport:
    def test_roundtrip(self):
        report = AggregateReport(
            level=2,
            node_id=7,
            timestamp=3.25,
            elephant_weight=12.5,
            mice_weight=51.5,
            tracked_flows=4096,
            histogram=[float(i) for i in range(31)],
        )
        decoded = decode_message(encode_message(report))
        assert isinstance(decoded, AggregateReport)
        assert decoded == report

    def test_histogram_length_enforced(self):
        report = AggregateReport(1, 0, 0.0, 0.0, 0.0, 0, histogram=[1.0])
        with pytest.raises(ValueError):
            report.pack()

    def test_wire_size_between_rnic_and_switch(self):
        # The tier report carries the FSD payload but no per-switch
        # runtime metrics; it sits between the Table IV endpoints.
        aggregate = AggregateReport(1, 0, 0.0, 0.0, 0.0, 0)
        rnic = RnicReport(0, 0.0, 0.0, 0.0)
        update = ParamUpdate(0.0, default_params())
        assert message_wire_size(rnic) < message_wire_size(aggregate) < 1000
        assert message_wire_size(update) < message_wire_size(aggregate)


# ---------------------------------------------------------------------------
# Transport accounting on malformed input
# ---------------------------------------------------------------------------


async def _started_server():
    server = ControllerServer(on_message=lambda message: None)
    port = await server.start()
    return server, port


async def _raw_send(port: int, data: bytes) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionResetError:
        pass
    del reader


async def _settle(server: ControllerServer) -> None:
    # Let the server's handler task observe the close and account it.
    for _ in range(50):
        await asyncio.sleep(0.01)
        if not server._writers:
            return


class TestServerHardening:
    def test_truncated_frame_counted(self):
        async def scenario():
            server, port = await _started_server()
            frame = encode_message(RnicReport(0, 0.0, 0.0, 0.0))
            await _raw_send(port, frame[: len(frame) - 4])
            await _settle(server)
            counts = (
                server.truncated_frames,
                server.protocol_errors,
                server.messages_received,
            )
            await server.close()
            return counts

        truncated, protocol, received = run(scenario())
        assert truncated == 1
        assert protocol == 0
        assert received == 0

    def test_clean_eof_not_counted_as_truncation(self):
        async def scenario():
            server, port = await _started_server()
            frame = encode_message(RnicReport(3, 1.0, 1e-5, 0.0))
            await _raw_send(port, frame)  # whole frame, then close
            await _settle(server)
            counts = (
                server.truncated_frames,
                server.protocol_errors,
                server.messages_received,
            )
            await server.close()
            return counts

        truncated, protocol, received = run(scenario())
        assert truncated == 0
        assert protocol == 0
        assert received == 1

    def test_oversized_prefix_counted_without_buffering(self):
        async def scenario():
            server, port = await _started_server()
            # Claims a 1 GiB payload; only the 5 header bytes exist.
            await _raw_send(port, struct.pack(">IB", 1 << 30, 1))
            await _settle(server)
            counts = (server.protocol_errors, server.truncated_frames)
            await server.close()
            return counts

        protocol, truncated = run(scenario())
        assert protocol == 1
        assert truncated == 0

    def test_unknown_tag_counted_as_protocol_error(self):
        async def scenario():
            server, port = await _started_server()
            payload = RnicReport(0, 0.0, 0.0, 0.0).pack()
            await _raw_send(
                port, HEADER.pack(len(payload) + 1, 251) + payload
            )
            await _settle(server)
            count = server.protocol_errors
            await server.close()
            return count

        assert run(scenario()) == 1

    def test_non_finite_param_update_counted_as_protocol_error(self):
        async def scenario():
            server, port = await _started_server()
            await _raw_send(port, _param_update_frame(k_min=math.inf))
            await _settle(server)
            counts = (server.protocol_errors, server.messages_received)
            await server.close()
            return counts

        assert run(scenario()) == (1, 0)

    def test_malformed_connection_does_not_poison_server(self):
        """A bad client is dropped; a good one still gets through."""

        async def scenario():
            received = []
            server = ControllerServer(on_message=received.append)
            port = await server.start()
            await _raw_send(port, b"\xff" * 5)  # oversized prefix
            await _settle(server)

            client = AgentClient("127.0.0.1", port)
            await client.connect()
            await client.send(RnicReport(1, 0.5, 2e-5, 0.0))
            for _ in range(50):
                await asyncio.sleep(0.01)
                if received:
                    break
            await client.close()
            counts = (len(received), server.protocol_errors)
            await server.close()
            return counts

        received, protocol_errors = run(scenario())
        assert received == 1
        assert protocol_errors == 1

    def test_agent_rejects_non_update_push(self):
        """receive_update refuses a well-formed message of wrong type."""

        async def scenario():
            server = ControllerServer(on_message=lambda message: None)
            port = await server.start()
            client = AgentClient("127.0.0.1", port)
            await client.connect()
            # Shove a switch-report frame down the update path by
            # feeding the client's reader directly.
            client._reader.feed_data(
                encode_message(RnicReport(0, 0.0, 0.0, 0.0))
            )
            try:
                await client.receive_update(timeout=0.5)
            finally:
                await client.close()
                await server.close()

        with pytest.raises(ProtocolError):
            run(scenario())
