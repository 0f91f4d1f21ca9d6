"""Wire protocol: framing round-trips and hostile-input fuzzing.

The framing layer is the server's outermost trust boundary: every test
here feeds it malformed bytes — truncations at every offset, corrupted
CRCs, oversized and undersized length prefixes, garbage — and requires
a clean :class:`ProtocolError` / :class:`ConnectionClosedError`, never
an unhandled exception or a silent wrong decode.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.errors import ConnectionClosedError, ProtocolError
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    Frame,
    Opcode,
    encode_frame,
    encode_payload,
    error_payload,
    read_frame,
    result_to_payload,
)


class ByteSock:
    """A socket double serving a fixed byte string, optionally in
    deliberately tiny chunks (stresses partial-recv reassembly)."""

    def __init__(self, data: bytes, chunk: int = 1 << 16) -> None:
        self._data = data
        self._pos = 0
        self._chunk = chunk

    def recv(self, count: int) -> bytes:
        take = min(count, self._chunk)
        chunk = self._data[self._pos:self._pos + take]
        self._pos += len(chunk)
        return chunk


def frame_bytes(opcode=Opcode.QUERY, request_id=7,
                payload=b'{"text":"SELECT ALL FROM Part VALID AT 5"}'):
    return encode_frame(opcode, request_id, payload)


class TestRoundTrip:
    def test_encode_decode_identity(self):
        payload = encode_payload({"text": "SELECT ALL", "params": {"x": 1}})
        frame = read_frame(ByteSock(frame_bytes(payload=payload)))
        assert frame.opcode == Opcode.QUERY
        assert frame.request_id == 7
        assert frame.payload == payload

    def test_single_byte_recv_chunks_reassemble(self):
        payload = encode_payload({"key": "value " * 100})
        data = frame_bytes(payload=payload)
        frame = read_frame(ByteSock(data, chunk=1))
        assert frame.payload == payload

    def test_empty_payload_is_legal(self):
        frame = read_frame(ByteSock(frame_bytes(payload=b"")))
        assert frame.payload == b""

    def test_back_to_back_frames_parse_independently(self):
        sock = ByteSock(frame_bytes(request_id=1)
                        + frame_bytes(request_id=2))
        assert read_frame(sock).request_id == 1
        assert read_frame(sock).request_id == 2

    def test_canonical_payload_is_key_order_independent(self):
        a = encode_payload({"b": 1, "a": [2, {"y": 3, "x": 4}]})
        b = encode_payload({"a": [2, {"x": 4, "y": 3}], "b": 1})
        assert a == b

    def test_oversized_payload_refused_at_encode_time(self):
        with pytest.raises(ProtocolError):
            encode_frame(Opcode.QUERY, 1, b"x" * (MAX_FRAME_BYTES + 1))


class TestTruncation:
    def test_every_truncation_point_fails_cleanly(self):
        data = frame_bytes()
        for cut in range(1, len(data)):
            with pytest.raises((ProtocolError, ConnectionClosedError)):
                read_frame(ByteSock(data[:cut]))

    def test_eof_at_frame_boundary_is_a_clean_hangup(self):
        with pytest.raises(ConnectionClosedError) as info:
            read_frame(ByteSock(b""))
        assert info.value.mid_frame is False

    def test_eof_inside_a_frame_is_marked_mid_frame(self):
        data = frame_bytes()
        with pytest.raises(ConnectionClosedError) as info:
            read_frame(ByteSock(data[:len(data) // 2]))
        assert info.value.mid_frame is True


class TestCorruption:
    def test_every_single_byte_flip_is_detected(self):
        data = frame_bytes()
        for index in range(4, len(data)):  # skip the length prefix
            corrupted = bytearray(data)
            corrupted[index] ^= 0xFF
            with pytest.raises(ProtocolError):
                read_frame(ByteSock(bytes(corrupted)))

    def test_oversized_length_prefix_fails_before_allocating(self):
        huge = struct.pack("<I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            read_frame(ByteSock(huge + b"\x00" * 64))

    def test_maximum_length_prefix_fails_not_hangs(self):
        data = struct.pack("<I", 0xFFFFFFFF)
        with pytest.raises(ProtocolError):
            read_frame(ByteSock(data))

    def test_undersized_length_prefix_rejected(self):
        for length in range(0, 9):
            data = struct.pack("<I", length) + b"\x00" * length
            with pytest.raises(ProtocolError, match="minimum"):
                read_frame(ByteSock(data))

    def test_random_garbage_never_escapes_the_error_types(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(300):
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 64)))
            try:
                read_frame(ByteSock(blob))
            except (ProtocolError, ConnectionClosedError):
                pass  # the only acceptable outcomes

    def test_undecodable_payload_raises_protocol_error(self):
        frame = Frame(Opcode.QUERY, 1, b"\xff\xfe not json")
        with pytest.raises(ProtocolError):
            frame.decode()


class TestErrorPayload:
    def test_carries_class_message_and_transient_flag(self):
        payload = error_payload(ValueError("boom"), transient=True)
        assert payload == {"error": "ValueError", "message": "boom",
                           "transient": True}

    def test_defaults_to_non_transient(self):
        assert error_payload(RuntimeError("x"))["transient"] is False


class TestResultSerialization:
    def test_projected_and_molecule_results_serialize(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "wheel", "cost": 2.0},
                              valid_from=0)
            comp = txn.insert("Component", {"cname": "rim"}, valid_from=0)
            txn.link("contains", part, comp, valid_from=0)
        projected = result_to_payload(
            db.query("SELECT Part.name FROM Part VALID AT 5"))
        assert projected["projected"] is True
        assert projected["entries"][0]["row"] == {"Part.name": "wheel"}
        whole = result_to_payload(
            db.query("SELECT ALL FROM Part.contains.Component "
                     "VALID AT 5"))
        assert whole["projected"] is False
        molecule = whole["entries"][0]["molecule"]
        assert molecule["root"]["values"]["name"] == "wheel"
        # Serialization is canonical: same result, same bytes.
        again = result_to_payload(
            db.query("SELECT ALL FROM Part.contains.Component "
                     "VALID AT 5"))
        assert encode_payload(whole) == encode_payload(again)


class TestProtocolVersioning:
    def test_version_three_is_the_only_version(self):
        from repro.server.protocol import (
            PROTOCOL_VERSION,
            SUPPORTED_PROTOCOL_VERSIONS,
        )
        assert PROTOCOL_VERSION == 3
        assert SUPPORTED_PROTOCOL_VERSIONS == {3}

    def test_stats_opcode_exists(self):
        assert Opcode.STATS == 12
        assert Opcode(12).name == "STATS"

    def test_cursor_opcodes_exist(self):
        assert Opcode.FETCH == 13
        assert Opcode.CLOSE_CURSOR == 14

    def test_v1_payload_without_trace_decodes(self):
        """A frame without a ``trace`` key round-trips and yields an
        empty trace context, not an error."""
        from repro.server.protocol import extract_trace_context
        data = frame_bytes(payload=encode_payload(
            {"text": "SELECT ALL FROM Part VALID AT 5"}))
        frame = read_frame(ByteSock(data))
        payload = frame.decode()
        assert payload["text"].startswith("SELECT")
        assert extract_trace_context(payload) == (None, None)

    def test_v2_payload_with_trace_round_trips(self):
        from repro.server.protocol import extract_trace_context
        body = {"text": "SELECT ALL FROM Part VALID AT 5",
                "trace": {"trace_id": "a" * 16, "span_id": "b" * 8}}
        frame = read_frame(ByteSock(frame_bytes(
            payload=encode_payload(body))))
        assert extract_trace_context(frame.decode()) == ("a" * 16,
                                                         "b" * 8)


class TestExtractTraceContext:
    def test_malformed_shapes_are_tolerated(self):
        from repro.server.protocol import extract_trace_context
        assert extract_trace_context(None) == (None, None)
        assert extract_trace_context([1, 2]) == (None, None)
        assert extract_trace_context({"trace": "oops"}) == (None, None)
        assert extract_trace_context({"trace": {}}) == (None, None)
        assert extract_trace_context(
            {"trace": {"trace_id": 7, "span_id": ["x"]}}) == (None, None)

    def test_partial_context_keeps_the_valid_half(self):
        from repro.server.protocol import extract_trace_context
        assert extract_trace_context(
            {"trace": {"trace_id": "t" * 16}}) == ("t" * 16, None)


class TestErrorPayloadTraceId:
    def test_trace_id_included_when_given(self):
        payload = error_payload(ValueError("boom"), transient=True,
                                trace_id="c" * 16)
        assert payload["trace_id"] == "c" * 16

    def test_trace_id_omitted_when_absent(self):
        assert "trace_id" not in error_payload(ValueError("boom"))


class TestFrameAssembler:
    """Incremental reassembly must agree with blocking read_frame for
    every possible split of the byte stream."""

    def _frames(self):
        return [
            encode_frame(Opcode.PING, 1, b"{}"),
            encode_frame(Opcode.QUERY, 2, encode_payload(
                {"text": "SELECT ALL FROM Part VALID AT 5"})),
            encode_frame(Opcode.FETCH, 3, encode_payload(
                {"cursor_id": 1})),
        ]

    def test_whole_stream_at_once(self):
        from repro.server.protocol import FrameAssembler
        assembler = FrameAssembler()
        frames = assembler.feed(b"".join(self._frames()))
        assert [(f.opcode, f.request_id) for f in frames] \
            == [(Opcode.PING, 1), (Opcode.QUERY, 2), (Opcode.FETCH, 3)]
        assert assembler.pending_bytes == 0

    def test_split_at_every_byte_boundary(self):
        from repro.server.protocol import FrameAssembler
        stream = b"".join(self._frames())
        for split in range(len(stream) + 1):
            assembler = FrameAssembler()
            frames = assembler.feed(stream[:split])
            frames += assembler.feed(stream[split:])
            assert [(f.opcode, f.request_id) for f in frames] \
                == [(Opcode.PING, 1), (Opcode.QUERY, 2),
                    (Opcode.FETCH, 3)], f"split at {split}"
            assert assembler.pending_bytes == 0

    def test_one_byte_at_a_time(self):
        from repro.server.protocol import FrameAssembler
        assembler = FrameAssembler()
        collected = []
        for offset in b"".join(self._frames()):
            collected += assembler.feed(bytes([offset]))
        assert len(collected) == 3

    def test_corrupt_crc_raises(self):
        from repro.server.protocol import FrameAssembler
        frame = bytearray(encode_frame(Opcode.PING, 1, b"{}"))
        frame[-1] ^= 0xFF
        with pytest.raises(ProtocolError):
            FrameAssembler().feed(bytes(frame))

    def test_oversized_length_prefix_raises(self):
        from repro.server.protocol import FrameAssembler
        bad = struct.pack("<I", MAX_FRAME_BYTES + 1) + b"\x00" * 16
        with pytest.raises(ProtocolError):
            FrameAssembler().feed(bad)

    def test_partial_frame_stays_buffered(self):
        from repro.server.protocol import FrameAssembler
        frame = encode_frame(Opcode.PING, 1, b"{}")
        assembler = FrameAssembler()
        assert assembler.feed(frame[:-3]) == []
        assert assembler.pending_bytes == len(frame) - 3
        assert len(assembler.feed(frame[-3:])) == 1
