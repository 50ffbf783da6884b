"""The asyncio serving layer: socket accept, demux, shard, report.

One :class:`StreamService` listens on a local (UNIX) stream socket and
speaks the :mod:`repro.serve.protocol` frame catalogue.  Each opened
stream becomes its own :class:`~repro.serve.pipeline.StreamPipeline`;
with ``jobs == 1`` records are fed inline as frames arrive, with
``jobs > 1`` streams are buffered and whole-stream tasks are sharded
through :func:`repro.parallel.parallel_map` — both paths drive the
same pipeline code, so verdicts and exports are identical at any job
count.

Wall-clock effects stop at the transport: credits, slowdown frames and
byte counts are accounted under host-scope ``transport.*`` rows, while
everything the merged export reports is a pure function of the framed
(record, arrival) sequences.  This module is the sanctioned home of
``asyncio``/``socket`` imports (see the determinism static rule).
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Dict, List, Optional

from repro.errors import TraceFormatError
from repro.obs.metrics import SCOPES, MetricsRegistry, merge_snapshots
from repro.obs.report import export_lines
from repro.parallel import parallel_map
from repro.replay.format import TraceHeader
from repro.serve.pipeline import (
    StreamConfig,
    StreamPipeline,
    merged_export_lines,
    run_stream_spec,
)
from repro.serve.protocol import (
    CREDIT_BATCH,
    DEFAULT_CREDIT,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameSplitter,
    ProtocolError,
    decode_frame,
    encode_frame,
    expect,
)

#: Bytes asked of the socket per read; every complete frame in a read
#: is dispatched before the next one.
READ_CHUNK_BYTES = 1 << 16


class _ConnStream:
    """Per-connection state for one open stream."""

    __slots__ = (
        "stream_id",
        "pipeline",
        "header_record",
        "config_payload",
        "records",
        "arrivals",
        "received",
        "credit_used",
        "slowed",
    )

    def __init__(self, stream_id: str) -> None:
        self.stream_id = stream_id
        self.pipeline: Optional[StreamPipeline] = None
        self.header_record: Optional[Dict[str, Any]] = None
        self.config_payload: Optional[Dict[str, Any]] = None
        self.records: List[Any] = []
        self.arrivals: List[Optional[int]] = []
        self.received = 0
        self.credit_used = 0
        self.slowed = False


class StreamService:
    """Accepts producer connections and owns the per-stream results."""

    def __init__(
        self,
        socket_path: str,
        jobs: int = 1,
        config: Optional[StreamConfig] = None,
    ) -> None:
        self.socket_path = str(socket_path)
        self.jobs = max(1, int(jobs or 1))
        self.base_config = config if config is not None else StreamConfig()
        #: Per-stream registry snapshots, keyed by stream id; exports
        #: merge these in sorted-id order.
        self.snapshots: Dict[str, Dict[str, Any]] = {}
        #: Per-stream verdict payloads, keyed by stream id.
        self.payloads: Dict[str, Dict[str, Any]] = {}
        #: Host-scope, wall-side transport accounting (never exported
        #: in the reproducible pipeline scope).
        self.transport = MetricsRegistry()
        #: Stream ids open *right now*, across every connection.  Two
        #: live streams may not share an id; a closed id may be reused
        #: (re-running the same seeded load overwrites its results,
        #: keeping repeat runs byte-identical).
        self._open_streams: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_unix_server(
            self._handle_connection,
            path=self.socket_path,
            limit=MAX_FRAME_BYTES,
        )

    async def wait_shutdown(self) -> None:
        assert self._shutdown is not None, "start() first"
        await self._shutdown.wait()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        try:
            # Off-loop: unlink touches the filesystem and this runs on
            # the loop thread during shutdown.
            await asyncio.to_thread(os.unlink, self.socket_path)
        except OSError:
            pass

    def export(self, scope: str = "pipeline") -> List[str]:
        """Merged canonical export; transport rows only outside
        the pipeline scope."""
        if scope == "pipeline":
            return merged_export_lines(self.snapshots, scope=scope)
        ordered = [self.snapshots[s] for s in sorted(self.snapshots)]
        ordered.append(self.transport.snapshot())
        return export_lines(merge_snapshots(ordered).snapshot(), scope=scope)

    # ------------------------------------------------------------------
    def _open_stream(self, frame: Dict[str, Any]) -> _ConnStream:
        stream_id = frame.get("stream")
        if not isinstance(stream_id, str) or not stream_id:
            raise ProtocolError(f"bad stream id {stream_id!r}")
        if stream_id in self._open_streams:
            raise ProtocolError(f"stream id {stream_id!r} already open")
        header_record = frame.get("header")
        if not isinstance(header_record, dict):
            raise ProtocolError(f"stream-open without header: {stream_id!r}")
        merged = self.base_config.to_payload()
        overrides = frame.get("config")
        if overrides is not None:
            if not isinstance(overrides, dict):
                raise ProtocolError(f"bad stream config: {overrides!r}")
            merged.update(overrides)
        config = StreamConfig.from_payload(merged)
        # Parsed here at every job count, so a bad header is this
        # connection's error frame, never a failed shard task.
        header = TraceHeader.from_record(header_record)
        state = _ConnStream(stream_id)
        if self.jobs == 1:
            state.pipeline = StreamPipeline(stream_id, header, config=config)
        else:
            state.header_record = header_record
            state.config_payload = config.to_payload()
        self._open_streams.add(stream_id)
        return state

    def _record_result(self, stream_id: str, payload: Dict[str, Any],
                       snapshot: Dict[str, Any]) -> None:
        self.payloads[stream_id] = payload
        self.snapshots[stream_id] = snapshot

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        transport = self.transport
        transport.inc("transport.connections")
        frames_in = transport.counter("transport.frames", dir="in")
        frames_out = transport.counter("transport.frames", dir="out")
        bytes_in = transport.counter("transport.bytes", dir="in")
        streams: Dict[str, _ConnStream] = {}
        pending: List[Dict[str, Any]] = []
        write = writer.write

        def send(frame: Dict[str, Any]) -> None:
            """Queue one reply; the read loop drains once per chunk."""
            write(encode_frame(frame))
            frames_out.inc()

        async def flush_pending() -> None:
            """Dispatch buffered whole-stream specs (jobs > 1 path)."""
            if not pending:
                return
            await writer.drain()
            specs = pending[:]
            pending.clear()
            results = await asyncio.to_thread(
                parallel_map, run_stream_spec, specs, jobs=self.jobs
            )
            for spec, result in zip(specs, results):
                self._record_result(
                    spec["stream"], result["payload"], result["snapshot"]
                )
                send({"kind": "verdict", **result["payload"]})

        # One read hands every complete frame it holds to the loop
        # below, which dispatches them in order without awaiting (except
        # to shard buffered streams).  At EOF an unterminated rest is
        # one last frame, as ``readline`` would return it.
        splitter = FrameSplitter()
        greeted = False
        done = False
        try:
            while not done:
                chunk = await reader.read(READ_CHUNK_BYTES)
                if chunk:
                    lines = splitter.feed(chunk)
                    eol = 1
                else:
                    rest = splitter.close()
                    lines = [rest] if rest else []
                    eol = 0
                    done = True
                for line in lines:
                    frames_in.inc()
                    bytes_in.inc(len(line) + eol)
                    if not greeted:
                        hello = expect(decode_frame(line), "hello")
                        if hello.get("version") != PROTOCOL_VERSION:
                            raise ProtocolError(
                                "unsupported protocol version "
                                f"{hello.get('version')!r} "
                                f"(this service speaks {PROTOCOL_VERSION})"
                            )
                        send(
                            {
                                "kind": "welcome",
                                "version": PROTOCOL_VERSION,
                                "jobs": self.jobs,
                            }
                        )
                        greeted = True
                        continue
                    frame = decode_frame(line)
                    kind = frame["kind"]
                    if kind == "rec":
                        state = streams.get(frame.get("stream"))
                        if state is None:
                            raise ProtocolError(
                                "rec for unopened stream "
                                f"{frame.get('stream')!r}"
                            )
                        arrival = frame.get("arrival_ns")
                        if arrival is not None and not isinstance(arrival, int):
                            raise ProtocolError(f"bad arrival_ns {arrival!r}")
                        body = frame.get("body")
                        state.received += 1
                        if state.pipeline is not None:
                            decision = state.pipeline.feed(body, arrival)
                            if decision is not None:
                                if decision.slowdown and not state.slowed:
                                    state.slowed = True
                                    transport.inc("transport.slowdowns_sent")
                                    send(
                                        {
                                            "kind": "slowdown",
                                            "stream": state.stream_id,
                                            "wait_ns": decision.wait_ns,
                                        }
                                    )
                                elif not decision.slowdown and state.slowed:
                                    state.slowed = False
                        else:
                            state.records.append(body)
                            state.arrivals.append(arrival)
                        state.credit_used += 1
                        if state.credit_used >= CREDIT_BATCH:
                            grant = state.credit_used
                            state.credit_used = 0
                            transport.inc("transport.credit_grants")
                            send(
                                {
                                    "kind": "credit",
                                    "stream": state.stream_id,
                                    "n": grant,
                                }
                            )
                    elif kind == "stream-open":
                        state = self._open_stream(frame)
                        streams[state.stream_id] = state
                        send(
                            {
                                "kind": "stream-ack",
                                "stream": state.stream_id,
                                "credit": DEFAULT_CREDIT,
                            }
                        )
                    elif kind == "stream-close":
                        state = streams.pop(frame.get("stream"), None)
                        if state is None:
                            raise ProtocolError(
                                "close for unopened stream "
                                f"{frame.get('stream')!r}"
                            )
                        self._open_streams.discard(state.stream_id)
                        end_ns = frame.get("end_ns")
                        if end_ns is not None and not isinstance(end_ns, int):
                            raise ProtocolError(f"bad end_ns {end_ns!r}")
                        if state.pipeline is not None:
                            result = state.pipeline.close(end_ns)
                            payload = result.verdict_payload()
                            self._record_result(
                                state.stream_id, payload, result.snapshot
                            )
                            send({"kind": "verdict", **payload})
                        else:
                            pending.append(
                                {
                                    "stream": state.stream_id,
                                    "header": state.header_record,
                                    "records": state.records,
                                    "arrivals": state.arrivals,
                                    "end_ns": end_ns,
                                    "config": state.config_payload,
                                }
                            )
                            # Shard when a full batch is ready, or when
                            # the connection has no stream left open
                            # (nothing more can join the batch).
                            if not streams or len(pending) >= self.jobs * 2:
                                await flush_pending()
                    elif kind == "export":
                        await flush_pending()
                        scope = frame.get("scope") or "pipeline"
                        if scope not in SCOPES:
                            raise ProtocolError(f"unknown scope {scope!r}")
                        send(
                            {
                                "kind": "export-result",
                                "scope": scope,
                                "lines": self.export(scope),
                            }
                        )
                    elif kind == "shutdown":
                        await flush_pending()
                        send({"kind": "bye"})
                        assert self._shutdown is not None
                        self._shutdown.set()
                        done = True
                        break
                    else:
                        raise ProtocolError(f"unexpected frame kind {kind!r}")
                await writer.drain()
        except TraceFormatError as exc:
            # Covers ProtocolError and malformed headers/configs: the
            # producer hears one error frame, the service keeps running
            # for everyone else.
            transport.inc("transport.errors")
            try:
                send({"kind": "error", "message": str(exc)})
                await writer.drain()
            except OSError:
                pass
        except ConnectionError:
            transport.inc("transport.disconnects")
        finally:
            # Streams the connection left open (error, disconnect) free
            # their ids; their partial state is discarded, never merged.
            for state in streams.values():
                self._open_streams.discard(state.stream_id)
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
