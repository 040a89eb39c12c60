"""The wire protocol: newline-delimited JSON over a stream socket.

One request per line, one response per line, in order.  Both sides are
plain UTF-8 JSON objects terminated by ``\\n`` — trivially scriptable
from any language (``nc -U``, a shell loop, another Python).  The full
specification with request/response examples lives in
``docs/SERVER.md``; this module is the single source of truth for
message framing and request validation, shared by the daemon and the
client so they can never drift apart.

Requests carry ``op`` (one of :data:`REQUEST_OPS`) plus op-specific
fields and an optional caller-chosen ``id`` echoed back verbatim.
Responses carry ``ok`` (bool); failures add ``error`` and ``code``,
successes add op-specific fields — and every engine-touching response
carries a per-request ``stats`` delta
(:meth:`repro.logic.prove.EngineStats.delta_from`).
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Optional

from ..budget import valid_deadline_ms

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "REQUEST_OPS",
    "DEADLINE_OPS",
    "RETRYABLE_CODES",
    "ProtocolError",
    "encode",
    "decode",
    "validate_request",
    "error_response",
    "MessageStream",
]

#: bumped on any incompatible wire change; both sides exchange it in
#: the ``stats`` response and the client refuses a mismatched major.
PROTOCOL_VERSION = 1

#: hard cap on one framed message — a malformed peer cannot make the
#: daemon buffer unbounded input.
MAX_LINE_BYTES = 16 * 1024 * 1024

#: every operation the daemon answers.
REQUEST_OPS = ("check", "check_text", "eval", "stats", "reset", "shutdown", "ping")

#: op → (field, required type, required?) — the whole request schema.
_FIELDS = {
    "check": (("paths", list, True),),
    "check_text": (("name", str, True), ("text", str, True)),
    "eval": (("expr", str, True),),
    "stats": (),
    "reset": (),
    "shutdown": (),
    "ping": (),
}

#: ops that run on the engine lane and may carry a ``deadline_ms``;
#: ``ping`` is answered in the connection thread (it must work even
#: when the lane is wedged) and never queues.
DEADLINE_OPS = frozenset(("check", "check_text", "eval", "reset"))

#: error codes the client may safely retry (the request was never
#: applied, or is idempotent to reissue).
RETRYABLE_CODES = frozenset(("overloaded", "deadline_exceeded", "cancelled"))


class ProtocolError(Exception):
    """A message that cannot be framed, parsed, or validated."""


def encode(message: Dict[str, Any]) -> bytes:
    """Frame one message: compact JSON + newline."""
    try:
        line = json.dumps(message, separators=(",", ":"), ensure_ascii=False)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable message: {exc}") from exc
    # json.dumps never emits raw newlines (they are escaped inside
    # strings), so the frame is exactly one line.
    return line.encode("utf-8") + b"\n"


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one framed line into a message object."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def validate_request(message: Dict[str, Any]) -> Dict[str, Any]:
    """Check a decoded request against the schema; returns it unchanged.

    Raises :class:`ProtocolError` with a message precise enough for the
    daemon to send straight back as the ``error`` field.
    """
    op = message.get("op")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(REQUEST_OPS)}"
        )
    for field, kind, required in _FIELDS[op]:
        if field not in message:
            if required:
                raise ProtocolError(f"{op!r} requires field {field!r}")
            continue
        if not isinstance(message[field], kind):
            raise ProtocolError(
                f"field {field!r} of {op!r} must be {kind.__name__}"
            )
    if op == "check":
        paths = message["paths"]
        if not paths or not all(isinstance(p, str) for p in paths):
            raise ProtocolError("'paths' must be a non-empty list of strings")
    if "affinity" in message:
        # any queued op may carry an affinity key: the daemon routes
        # the connection to a stable lane at its first queued request,
        # so one logical session always hits the same warm lane.
        if op == "ping":
            raise ProtocolError("'ping' does not accept 'affinity'")
        affinity = message["affinity"]
        if not isinstance(affinity, str) or not affinity:
            raise ProtocolError("'affinity' must be a non-empty string")
    if "deadline_ms" in message:
        if op not in DEADLINE_OPS:
            raise ProtocolError(f"{op!r} does not accept 'deadline_ms'")
        if not valid_deadline_ms(message["deadline_ms"]):
            raise ProtocolError("'deadline_ms' must be a positive finite number")
    return message


def error_response(
    request: Optional[Dict[str, Any]],
    code: str,
    error: str,
    retryable: bool = False,
) -> Dict[str, Any]:
    """A failure response; echoes the request's ``id`` when present.

    ``retryable=True`` marks transient failures (:data:`RETRYABLE_CODES`)
    the client's bounded-backoff loop is allowed to reissue.
    """
    response: Dict[str, Any] = {"ok": False, "code": code, "error": error}
    if retryable:
        response["retryable"] = True
    if request is not None:
        if "id" in request:
            response["id"] = request["id"]
        if "op" in request:
            response["op"] = request["op"]
    return response


class MessageStream:
    """Framed, blocking message I/O over a connected stream socket.

    Owns a receive buffer (a peer may send several frames in one
    segment, or one frame across many); enforces
    :data:`MAX_LINE_BYTES` while buffering so an unframed flood fails
    fast instead of accumulating.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = bytearray()
        self._closed = False

    def send(self, message: Dict[str, Any]) -> None:
        self._sock.sendall(encode(message))

    def receive(self) -> Optional[Dict[str, Any]]:
        """The next message, or ``None`` on a clean peer close."""
        scanned = 0  # bytes already searched for the newline
        while (end := self._buffer.find(b"\n", scanned)) < 0:
            if len(self._buffer) > MAX_LINE_BYTES:
                raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
            chunk = self._sock.recv(65536)
            if not chunk:
                if self._buffer.strip():
                    raise ProtocolError("connection closed mid-message")
                return None
            scanned = len(self._buffer)
            self._buffer += chunk
        line, self._buffer = self._buffer[:end], self._buffer[end + 1 :]
        return decode(line)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
