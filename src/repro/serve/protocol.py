"""Versioned JSONL wire protocol between producers and the service.

One frame per line, ``sort_keys``-encoded JSON objects, over a local
stream socket.  The catalogue:

Producer -> service
    ``hello{version}``                      — handshake, first frame
    ``stream-open{stream, header, config?, arrival_clock?}``
    ``rec{stream, body, arrival_ns?}``      — one trace record
    ``stream-close{stream, sent, end_ns?}`` — end of stream
    ``export{scope?}``                      — request the merged export
    ``shutdown{}``                          — stop the service

Service -> producer
    ``welcome{version, jobs}``
    ``stream-ack{stream, credit}``          — credit = send window
    ``credit{stream, n}``                   — window replenishment
    ``slowdown{stream, wait_ns}``           — backpressure rising edge
    ``verdict{...}``                        — per-stream result payload
    ``export-result{scope, lines}``
    ``error{message}``                      — then the connection closes
    ``bye{}``

Flow control is credit-based: ``stream-ack`` grants an initial window,
each ``credit`` frame restores ``n`` sends.  That bounds service-side
buffering in *bytes* (transport concern, wall-clock-paced, counted
under host-scope ``transport.*``).  The deterministic drop/SLO
accounting lives one layer down, in the admission model, driven only
by the virtual ``arrival_ns`` stamps inside the frames.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.errors import TraceFormatError

PROTOCOL_VERSION = 1

#: Initial per-stream credit window (frames in flight).
DEFAULT_CREDIT = 512

#: Replenish after this many consumed credits.
CREDIT_BATCH = DEFAULT_CREDIT // 2

#: Longest accepted wire line; a trace record is well under this.
MAX_FRAME_BYTES = 1 << 20


class ProtocolError(TraceFormatError):
    """Malformed or out-of-contract frame."""


_encode = json.JSONEncoder(sort_keys=True).encode
_decode = json.JSONDecoder().decode


def encode_frame(frame: Dict[str, Any]) -> bytes:
    return (_encode(frame) + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, Any]:
    """One wire line (with or without its ``\\n``) as a frame dict.

    Every way a line can fail to be a frame is a :class:`ProtocolError`:
    over :data:`MAX_FRAME_BYTES`, not UTF-8, not JSON (including numbers
    past the int-conversion limit and nesting past the recursion limit),
    or not an object with a string ``kind``.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"bad frame (over {MAX_FRAME_BYTES} bytes): {len(line)} bytes"
        )
    try:
        frame = _decode(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"bad frame (not UTF-8): {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"bad frame (not JSON): {exc}") from exc
    if not isinstance(frame, dict) or not isinstance(frame.get("kind"), str):
        raise ProtocolError(f"bad frame (no kind): {frame!r}")
    return frame


class FrameSplitter:
    """Cuts a byte stream into ``\\n``-terminated frames.

    :meth:`feed` returns, in order and without their ``\\n``, the lines
    a chunk completes.  The unterminated rest is kept as a list of
    parts and joined once, when its newline arrives, so a long frame
    spread over many reads is copied once rather than once per read.
    A rest that grows past :data:`MAX_FRAME_BYTES` comes out as a line
    at once: :func:`decode_frame` rejects it by length, and buffering
    stays bounded whatever the peer sends.
    """

    __slots__ = ("_parts", "_pending")

    def __init__(self) -> None:
        self._parts: List[bytes] = []
        self._pending = 0

    def feed(self, chunk: bytes) -> List[bytes]:
        lines = chunk.split(b"\n")
        rest = lines.pop()
        parts = self._parts
        if parts and lines:
            parts.append(lines[0])
            lines[0] = b"".join(parts)
            parts.clear()
            self._pending = 0
        if rest:
            parts.append(rest)
            self._pending += len(rest)
            if self._pending > MAX_FRAME_BYTES:
                lines.append(self.close())
        return lines

    def close(self) -> bytes:
        """The unterminated rest at end of stream (``b""`` if none)."""
        rest = b"".join(self._parts)
        self._parts.clear()
        self._pending = 0
        return rest


def expect(frame: Dict[str, Any], kind: str) -> Dict[str, Any]:
    """Assert a frame's kind; ``error`` frames surface their message."""
    if frame.get("kind") == "error":
        raise ProtocolError(f"peer error: {frame.get('message')}")
    if frame.get("kind") != kind:
        raise ProtocolError(
            f"expected {kind!r} frame, got {frame.get('kind')!r}"
        )
    return frame
