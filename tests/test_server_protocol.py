"""Unit tests for the NDJSON wire protocol (repro/server/protocol.py)."""

import socket
import threading

import pytest

from repro.server.protocol import (
    MAX_LINE_BYTES,
    MessageStream,
    ProtocolError,
    decode,
    encode,
    error_response,
    validate_request,
)


class TestFraming:
    def test_roundtrip(self):
        message = {"op": "eval", "expr": "(+ 1 2)", "id": 7}
        assert decode(encode(message).rstrip(b"\n")) == message

    def test_one_line_per_message(self):
        framed = encode({"op": "check_text", "name": "m", "text": "(define x 1)\n"})
        assert framed.count(b"\n") == 1
        assert framed.endswith(b"\n")

    def test_unicode_survives(self):
        message = {"op": "eval", "expr": "(λ ⊢ ψ)"}
        assert decode(encode(message).rstrip(b"\n")) == message

    def test_unencodable_payload_rejected(self):
        with pytest.raises(ProtocolError):
            encode({"op": object()})

    def test_malformed_json_rejected(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode(b"{not json")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            decode(b"[1, 2, 3]")

    def test_oversized_line_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            decode(b"x" * (MAX_LINE_BYTES + 1))


class TestValidation:
    def test_every_known_op_validates(self):
        for request in (
            {"op": "check", "paths": ["a.rkt"]},
            {"op": "check_text", "name": "m", "text": "(define x 1)"},
            {"op": "eval", "expr": "(+ 1 2)"},
            {"op": "stats"},
            {"op": "ping"},
            {"op": "reset"},
            {"op": "shutdown"},
        ):
            assert validate_request(request) == request

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"op": "frobnicate"})

    def test_missing_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"expr": "(+ 1 2)"})

    def test_missing_required_field(self):
        with pytest.raises(ProtocolError, match="requires field"):
            validate_request({"op": "eval"})

    def test_wrong_field_type(self):
        with pytest.raises(ProtocolError, match="must be str"):
            validate_request({"op": "eval", "expr": 42})

    def test_empty_paths_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            validate_request({"op": "check", "paths": []})

    def test_non_string_paths_rejected(self):
        with pytest.raises(ProtocolError, match="strings"):
            validate_request({"op": "check", "paths": ["a.rkt", 3]})

    def test_error_response_echoes_id_and_op(self):
        response = error_response({"op": "eval", "id": 9}, "bad-request", "nope")
        assert response == {
            "ok": False,
            "code": "bad-request",
            "error": "nope",
            "id": 9,
            "op": "eval",
        }

    def test_error_response_marks_retryable(self):
        response = error_response(
            {"op": "eval", "id": 3}, "overloaded", "shed", retryable=True
        )
        assert response["retryable"] is True
        # non-retryable responses carry no retryable key at all
        plain = error_response({"op": "eval"}, "check-error", "no")
        assert "retryable" not in plain


class TestDeadlines:
    def test_deadline_accepted_on_engine_ops(self):
        for op, fields in (
            ("check", {"paths": ["a.rkt"]}),
            ("check_text", {"name": "m", "text": "(define x 1)"}),
            ("eval", {"expr": "(+ 1 2)"}),
            ("reset", {}),
        ):
            request = {"op": op, "deadline_ms": 250.0, **fields}
            assert validate_request(request) == request

    def test_deadline_rejected_on_instant_ops(self):
        for op in ("stats", "ping", "shutdown"):
            with pytest.raises(ProtocolError, match="deadline_ms"):
                validate_request({"op": op, "deadline_ms": 250.0})

    def test_non_positive_deadline_rejected(self):
        for bad in (0, -1, -0.5, float("-inf")):
            with pytest.raises(ProtocolError, match="positive"):
                validate_request(
                    {"op": "eval", "expr": "1", "deadline_ms": bad}
                )

    def test_non_numeric_deadline_rejected(self):
        for bad in ("100", True, [100], None, float("nan"), float("inf"), 10**400):
            with pytest.raises(ProtocolError):
                validate_request(
                    {"op": "eval", "expr": "1", "deadline_ms": bad}
                )


class TestMessageStream:
    def _pair(self):
        left, right = socket.socketpair()
        return MessageStream(left), MessageStream(right)

    def test_send_receive(self):
        a, b = self._pair()
        a.send({"op": "stats", "id": 1})
        assert b.receive() == {"op": "stats", "id": 1}
        a.close(), b.close()

    def test_many_messages_one_segment(self):
        a, b = self._pair()
        for index in range(5):
            a.send({"id": index})
        assert [b.receive()["id"] for _ in range(5)] == list(range(5))
        a.close(), b.close()

    def test_clean_close_yields_none(self):
        a, b = self._pair()
        a.close()
        assert b.receive() is None
        b.close()

    def test_partial_message_then_close_raises(self):
        left, right = socket.socketpair()
        stream = MessageStream(right)
        left.sendall(b'{"op": "stats"')  # no newline
        left.close()
        with pytest.raises(ProtocolError, match="mid-message"):
            stream.receive()
        stream.close()

    def test_unframed_flood_fails_fast(self):
        left, right = socket.socketpair()
        stream = MessageStream(right)
        block = b"x" * 65536

        def flood():
            try:
                while True:
                    left.sendall(block)
            except OSError:
                pass  # the stream gave up and closed its end

        feeder = threading.Thread(target=flood, daemon=True)
        feeder.start()
        with pytest.raises(ProtocolError, match="exceeds"):
            stream.receive()
        # the guard fires at the cap plus at most one recv
        assert MAX_LINE_BYTES < len(stream._buffer) <= MAX_LINE_BYTES + 65536
        stream.close()
        feeder.join(timeout=5.0)
        assert not feeder.is_alive()
        left.close()

    def test_fragmented_send_reassembles(self):
        left, right = socket.socketpair()
        stream = MessageStream(right)
        framed = encode({"op": "eval", "expr": "x" * 1000})

        def trickle():
            for offset in range(0, len(framed), 97):
                left.sendall(framed[offset : offset + 97])
            left.close()

        feeder = threading.Thread(target=trickle)
        feeder.start()
        assert stream.receive()["op"] == "eval"
        feeder.join()
        stream.close()
