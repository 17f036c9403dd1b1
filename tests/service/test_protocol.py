"""Wire protocol: framing, codecs and the typed error mapping."""

import struct

import numpy as np
import pytest

from repro.routing import NotApplicableError, RoutingError
from repro.service import protocol
from repro.service.protocol import (
    HEADER_SIZE,
    MAX_FRAME_BYTES,
    ProtocolError,
    ServiceAborted,
    ServiceBadRequest,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    available_codecs,
    codec_for_byte,
    decode_frame,
    decode_header,
    encode_frame,
    error_to_wire,
    get_codec,
    wire_to_error,
)


class TestFraming:
    def test_json_round_trip(self):
        codec = get_codec("json")
        msg = {"id": 7, "op": "route", "payload": {"seed": None,
                                                   "dests": [1, 2]}}
        frame = encode_frame(msg, codec)
        assert frame[:1] == b"J"
        assert decode_frame(frame) == msg

    def test_header_layout(self):
        codec = get_codec("json")
        frame = encode_frame({"a": 1}, codec)
        got_codec, length = decode_header(frame[:HEADER_SIZE])
        assert got_codec.name == "json"
        assert length == len(frame) - HEADER_SIZE

    @pytest.mark.parametrize("codec_name", available_codecs())
    def test_every_available_codec_round_trips(self, codec_name):
        codec = get_codec(codec_name)
        msg = {"nested": {"list": [1, 2, 3], "text": "α"}, "ok": True}
        assert decode_frame(encode_frame(msg, codec)) == msg

    def test_truncated_header_refused(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_header(b"J\x00")

    def test_unknown_codec_byte_refused(self):
        # "M" was the optional msgpack codec; it is gone, so is its byte
        for byte in (b"X", b"M"):
            with pytest.raises(ProtocolError, match="codec byte"):
                decode_header(byte + b"\x00" * 4)

    def test_oversize_header_refused_without_allocating(self):
        header = b"J" + struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_header(header)

    def test_length_mismatch_refused(self):
        frame = encode_frame({"a": 1}, get_codec("json"))
        with pytest.raises(ProtocolError, match="mismatch"):
            decode_frame(frame + b"x")

    def test_unknown_codec_name(self):
        with pytest.raises(ProtocolError, match="unavailable"):
            get_codec("carrier-pigeon")

    def test_json_always_available(self):
        assert "json" in available_codecs()
        assert codec_for_byte(ord("J")).name == "json"


class TestErrorMapping:
    @pytest.mark.parametrize("exc_cls,code", [
        (ServiceOverloaded, "overloaded"),
        (ServiceAborted, "aborted"),
        (ServiceBadRequest, "bad_request"),
        (ServiceClosed, "closed"),
        (ProtocolError, "protocol"),
    ])
    def test_service_errors_round_trip(self, exc_cls, code):
        wire = error_to_wire(exc_cls("boom"))
        assert wire == {"type": code, "message": "boom"}
        back = wire_to_error(wire)
        assert type(back) is exc_cls
        assert str(back) == "boom"

    @pytest.mark.parametrize("exc_cls", [
        RoutingError, NotApplicableError, ValueError,
    ])
    def test_library_errors_cross_by_name(self, exc_cls):
        wire = error_to_wire(exc_cls("nope"))
        assert wire["type"] == exc_cls.__name__
        back = wire_to_error(wire)
        assert type(back) is exc_cls

    def test_unknown_server_exception_is_internal(self):
        wire = error_to_wire(KeyError("x"))
        assert wire["type"] == "internal"
        back = wire_to_error(wire)
        assert type(back) is ServiceError  # never rehydrate arbitrary types

    def test_missing_error_dict(self):
        assert isinstance(wire_to_error(None), ServiceError)

    def test_codes_are_stable_wire_identifiers(self):
        # renaming a code is a wire-protocol break; pin them
        assert ServiceError.code == "service_error"
        assert ServiceOverloaded.code == "overloaded"
        assert ServiceAborted.code == "aborted"

    def test_error_hierarchy(self):
        assert issubclass(ServiceOverloaded, ServiceError)
        assert issubclass(ServiceError, RuntimeError)
        from repro.service.comm import CommClosedError

        assert issubclass(CommClosedError, ServiceClosed)


def test_max_frame_guard_on_encode(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16)
    with pytest.raises(ProtocolError, match="frame limit"):
        encode_frame({"blob": "y" * 64}, get_codec("json"))


class TestBinaryFrames:
    """The PR 10 table codec: raw little-endian buffers under the
    length-prefixed framing, 'B' frames only when arrays are present."""

    def _table_msg(self):
        return {
            "id": 1,
            "result": {
                "next_channel": np.arange(12, dtype=np.int32).reshape(4, 3),
                "vl": np.zeros((4, 3), dtype=np.int8),
                "dests": [0, 1, 2],
            },
        }

    def test_array_message_upgrades_to_binary_frame(self):
        frame = encode_frame(self._table_msg(), get_codec("json"))
        assert frame[:1] == b"B"
        back = decode_frame(frame)
        msg = self._table_msg()
        np.testing.assert_array_equal(back["result"]["next_channel"],
                                      msg["result"]["next_channel"])
        np.testing.assert_array_equal(back["result"]["vl"],
                                      msg["result"]["vl"])
        assert back["result"]["next_channel"].dtype == np.int32
        assert back["result"]["vl"].dtype == np.int8
        assert back["result"]["dests"] == [0, 1, 2]
        assert back["id"] == 1

    def test_array_free_message_keeps_its_codec(self):
        frame = encode_frame({"op": "ping"}, get_codec("json"))
        assert frame[:1] == b"J"

    def test_decoded_arrays_are_zero_copy_views(self):
        frame = encode_frame(self._table_msg(), get_codec("json"))
        back = decode_frame(frame)
        arr = back["result"]["next_channel"]
        assert not arr.flags.writeable  # view of the wire buffer
        assert arr.copy().flags.writeable

    @pytest.mark.parametrize("codec_name", available_codecs())
    def test_binary_rides_any_inner_codec(self, codec_name):
        frame = encode_frame(self._table_msg(), get_codec(codec_name))
        assert frame[:1] == b"B"
        back = decode_frame(frame)
        np.testing.assert_array_equal(
            back["result"]["next_channel"],
            self._table_msg()["result"]["next_channel"])

    def test_empty_and_zero_column_arrays_round_trip(self):
        msg = {"empty": np.zeros((0, 0), dtype=np.int32),
               "thin": np.zeros((5, 0), dtype=np.int8)}
        back = decode_frame(encode_frame(msg, get_codec("json")))
        assert back["empty"].shape == (0, 0)
        assert back["thin"].shape == (5, 0)
        assert back["thin"].dtype == np.int8

    def test_truncated_buffer_table_refused(self):
        frame = bytearray(encode_frame(self._table_msg(),
                                       get_codec("json")))
        # corrupt the first buffer length to point past the payload
        # (payload = inner codec byte, buffer count, then per-buffer
        # [length, bytes]; the first length sits 5 bytes in)
        offset = HEADER_SIZE + 5
        frame[offset:offset + 4] = struct.pack(">I", 1 << 30)
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    def test_nested_binary_payload_refused(self):
        payload = b"B" + struct.pack(">I", 0) + b"{}"
        nested = b"B" + struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError):
            decode_frame(nested)
