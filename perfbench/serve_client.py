"""A single-connection client for ``repro.serve``, with open-loop timing.

The client speaks :mod:`repro.serve.protocol` over one UNIX-socket
connection: ``hello``, then per stream ``stream-open``, ``rec`` frames
within the credit window, ``stream-close``, and finally ``shutdown``.
Record bodies are JSON-encoded once, during set-up, so the timed
region spends its client-side CPU on framing and socket writes only.

:class:`LatencyBook` holds the open-loop accounting: every stream is
timed from when it was *due*, not from when the sender got round to
opening it, so a stalled sender shows up as latency on the streams it
delayed; how late the sender ran is kept separately.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Dict, List, Optional, Sequence

from repro.prof import perf_counter
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    expect,
)

_encode = json.JSONEncoder(sort_keys=True).encode


def encode_bodies(records: Sequence[Any]) -> List[bytes]:
    """Each record's JSON, as the ``body`` of a ``rec`` frame carries it."""
    return [_encode(record).encode("utf-8") for record in records]


class LatencyBook:
    """Open-loop accounting, all times in seconds from the phase start.

    ``due[i]`` is when operation ``i`` was scheduled; :meth:`opened`
    records when the sender actually started it and :meth:`finished`
    when its result arrived.  Latency runs from due to finish; an
    operation that never finished (or failed) has infinite latency.
    """

    def __init__(self, due: Sequence[float]) -> None:
        self.due = list(due)
        self.sent: List[Optional[float]] = [None] * len(self.due)
        self.done: List[Optional[float]] = [None] * len(self.due)

    def opened(self, i: int, t: float) -> None:
        self.sent[i] = t

    def finished(self, i: int, t: Optional[float]) -> None:
        """``t=None`` marks a failed operation."""
        self.done[i] = t

    def latencies(self) -> List[float]:
        return [
            math.inf if done is None else done - due
            for due, done in zip(self.due, self.done)
        ]

    def send_lags(self) -> List[float]:
        """How late the sender opened each operation (never negative)."""
        return [
            max(0.0, sent - due)
            for due, sent in zip(self.due, self.sent) if sent is not None
        ]


async def run_open_loop(
    book: LatencyBook,
    start_op,
    clock=perf_counter,
    sleep=asyncio.sleep,
) -> None:
    """Start every operation at its due time, whatever is in flight.

    ``start_op(i)`` returns an awaitable yielding the finish time (on
    the same clock, or ``None`` on failure).  Operations run
    concurrently; the sender never waits for one to finish.
    """
    t0 = clock()
    tasks = []

    async def one(i: int) -> None:
        done = await start_op(i)
        book.finished(i, None if done is None else done - t0)

    for i, due in enumerate(book.due):
        delay = t0 + due - clock()
        if delay > 0:
            await sleep(delay)
        book.opened(i, clock() - t0)
        tasks.append(asyncio.ensure_future(one(i)))
    await asyncio.gather(*tasks)


class _Stream:
    __slots__ = ("credit", "changed", "verdict", "credit_wait_s")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.credit = 0
        self.changed = asyncio.Event()
        self.verdict: asyncio.Future = loop.create_future()
        self.credit_wait_s = 0.0


class ServeClient:
    """One connection to a running ``repro.serve`` service."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.streams: Dict[str, _Stream] = {}
        self.error: Optional[str] = None
        self.bye = asyncio.Event()
        self.slowdowns = 0
        #: Client-side transport time: frame writes plus frame decoding.
        self.client_s = 0.0
        self.credit_wait_s = 0.0
        self._router: Optional[asyncio.Task] = None

    @classmethod
    async def connect(cls, socket_path: str) -> "ServeClient":
        reader, writer = await asyncio.open_unix_connection(
            socket_path, limit=MAX_FRAME_BYTES
        )
        client = cls(reader, writer)
        writer.write(encode_frame({"kind": "hello", "version": PROTOCOL_VERSION}))
        await writer.drain()
        expect(decode_frame(await reader.readline()), "welcome")
        client._router = asyncio.ensure_future(client._route())
        return client

    async def _route(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                t = perf_counter()
                frame = decode_frame(line)
                kind = frame.get("kind")
                state = self.streams.get(frame.get("stream"))
                if kind == "stream-ack" and state is not None:
                    state.credit += int(frame.get("credit", 0))
                    state.changed.set()
                elif kind == "credit" and state is not None:
                    state.credit += int(frame.get("n", 0))
                    state.changed.set()
                elif kind == "slowdown":
                    self.slowdowns += 1
                elif kind == "verdict" and state is not None:
                    payload = {k: v for k, v in frame.items() if k != "kind"}
                    if not state.verdict.done():
                        state.verdict.set_result((payload, t))
                elif kind == "bye":
                    self.bye.set()
                    break
                elif kind == "error":
                    self.error = str(frame.get("message"))
                    break
                else:
                    self.error = f"unexpected frame {kind!r}"
                    break
                self.client_s += perf_counter() - t
        except (ProtocolError, ConnectionError) as exc:
            self.error = str(exc)
        finally:
            if self.error is None and not self.bye.is_set():
                self.error = "connection closed by the service"
            for state in self.streams.values():
                state.changed.set()
                if not state.verdict.done():
                    state.verdict.set_result((None, None))
            self.bye.set()

    async def _write(self, data: bytes) -> None:
        t = perf_counter()
        self.writer.write(data)
        self.client_s += perf_counter() - t
        await self.writer.drain()

    async def run_stream(
        self,
        stream_id: str,
        header: Dict[str, Any],
        bodies: Sequence[bytes],
        end_ns: Optional[int],
    ):
        """Push one stream; returns ``(verdict payload, receipt time)``,
        or ``(None, None)`` when the connection failed first."""
        state = _Stream(asyncio.get_running_loop())
        self.streams[stream_id] = state
        prefix = b'{"body": '
        suffix = (', "kind": "rec", "stream": %s}\n' % json.dumps(stream_id)).encode()
        joiner = suffix + prefix
        await self._write(encode_frame(
            {"kind": "stream-open", "stream": stream_id, "header": header}))
        sent = 0
        total = len(bodies)
        while sent < total and self.error is None:
            if state.credit <= 0:
                state.changed.clear()
                t = perf_counter()
                await state.changed.wait()
                state.credit_wait_s += perf_counter() - t
                continue
            n = min(state.credit, total - sent)
            state.credit -= n
            await self._write(prefix + joiner.join(bodies[sent:sent + n]) + suffix)
            sent += n
        close: Dict[str, Any] = {"kind": "stream-close", "stream": stream_id,
                                 "sent": sent}
        if end_ns is not None:
            close["end_ns"] = end_ns
        if self.error is None:
            await self._write(encode_frame(close))
        result = await state.verdict
        self.credit_wait_s += state.credit_wait_s
        del self.streams[stream_id]
        return result

    async def shutdown(self) -> bool:
        """Ask the service to stop; True when it answered ``bye``."""
        if self.error is None:
            await self._write(encode_frame({"kind": "shutdown"}))
            await self.bye.wait()
        await self.close()
        return self.error is None

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        if self._router is not None:
            await self._router
