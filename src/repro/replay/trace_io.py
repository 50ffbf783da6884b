"""Streaming trace I/O: JSONL files, optionally gzip-compressed.

Two write paths exist on purpose:

* :func:`save_trace` — the whole trace is in memory (the recorder's
  normal case), so the in-band header carries authoritative event
  counts;
* :class:`TraceWriter` — true streaming: records hit the file as they
  are written and a footer with the final counts is appended at close.

:class:`TraceReader` handles both: it surfaces the header immediately
and folds footer counts back into ``reader.header`` when iteration
reaches the end of the stream.  Readers frame, replay judges: every
non-blank body line is yielded as parsed (a line that is not JSON as a
:class:`TraceFormatError` item), and only
:class:`~repro.replay.source.ReplaySource` decides whether a record is
accepted and how a rejection is counted.
"""

from __future__ import annotations

import gzip
import io
import json
import sys
import zlib
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.core.derive import DerivedTaskInfo
from repro.core.events import GuestEvent
from repro.errors import TraceFormatError
from repro.replay.format import (
    KIND_EVENT,
    KIND_FOOTER,
    Trace,
    TraceHeader,
    event_to_record,
)


#: First bytes of every gzip stream.
GZIP_MAGIC = b"\x1f\x8b"

#: What messages call the input of a ``-`` path.
STDIN_NAME = "<stdin>"


def _create(path: str):
    """Text-mode file handle for writing; gzip for ``*.gz`` paths (the
    name picks the output format; readers go by content)."""
    if str(path).endswith(".gz"):
        return gzip.open(path, "wt", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def read_input(path: str) -> bytes:
    """All bytes of the file at ``path``; ``-`` reads stdin."""
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def text_stream(data: bytes) -> io.TextIOWrapper:
    """JSONL bytes as a text stream.  Bytes that start with the gzip
    magic are gunzipped as they are read, so a broken stream surfaces
    mid-read, after the records before the break."""
    raw: Any = io.BytesIO(data)
    if data[:2] == GZIP_MAGIC:
        raw = gzip.GzipFile(fileobj=raw)
    return io.TextIOWrapper(raw, encoding="utf-8")


#: One reusable encoder for every record (``json.dumps`` constructs a
#: fresh ``JSONEncoder`` per call); identical output bytes — default
#: separators, ``sort_keys`` — just without the per-record setup cost.
_encode = json.JSONEncoder(sort_keys=True).encode


#: What a broken compressed/encoded stream surfaces mid-read: gzip
#: truncation (EOFError), bad magic / CRC / trailing garbage
#: (gzip.BadGzipFile, an OSError), corrupt deflate data (zlib.error)
#: and mojibake from either (UnicodeDecodeError).  All of them become
#: :class:`TraceFormatError` so callers see one typed failure mode.
_STREAM_ERRORS = (EOFError, OSError, UnicodeDecodeError, zlib.error)


class TraceWriter:
    """Streaming writer: header first, records as they come, footer last.

    Line assembly is buffered: each record becomes one ``line + "\\n"``
    string appended to an in-memory batch, and the batch reaches the
    file handle as a single ``write`` per ``flush_every`` records (the
    old path issued two writes per record, which dominates gzip-stream
    cost on long recordings).  :meth:`flush` forces the batch out — the
    recorder's crash-tail guarantee is unchanged because the footer was
    never durable before :meth:`close` anyway.
    """

    def __init__(
        self, path: str, header: TraceHeader, flush_every: int = 256
    ) -> None:
        self.path = str(path)
        self.header = header
        self.event_counts: Dict[str, int] = {}
        self.records_written = 0
        self._fh = _create(self.path)
        self._closed = False
        self._buffer: List[str] = []
        self._flush_every = max(1, int(flush_every))
        self._write_line(header.to_record())

    # ------------------------------------------------------------------
    def _write_line(self, record: Dict[str, Any]) -> None:
        self._buffer.append(_encode(record) + "\n")
        if len(self._buffer) >= self._flush_every:
            self.flush()

    def flush(self) -> None:
        """Push buffered lines to the file handle (one ``write``)."""
        if self._buffer:
            self._fh.write("".join(self._buffer))
            self._buffer.clear()

    def write_record(self, record: Any) -> None:
        """Append one raw body record (event, marker or any JSON value)."""
        if self._closed:
            raise TraceFormatError("writer already closed")
        if isinstance(record, dict) and record.get("kind") == KIND_EVENT:
            key = str(record.get("type"))
            self.event_counts[key] = self.event_counts.get(key, 0) + 1
        self._write_line(record)
        self.records_written += 1

    def write_event(
        self,
        event: GuestEvent,
        task: Optional[DerivedTaskInfo] = None,
        parent: Optional[DerivedTaskInfo] = None,
    ) -> None:
        self.write_record(event_to_record(event, task=task, parent=parent))

    def close(self, end_ns: Optional[int] = None) -> None:
        if self._closed:
            return
        footer = {
            "kind": KIND_FOOTER,
            "event_counts": dict(self.event_counts),
            "end_ns": end_ns if end_ns is not None else self.header.end_ns,
        }
        self._write_line(footer)
        self.flush()
        self._fh.close()
        self._closed = True
        self.header.event_counts = dict(self.event_counts)
        if end_ns is not None:
            self.header.end_ns = end_ns

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TraceFramer:
    """What both trace readers share: iterating one yields its body
    items in order (see :class:`~repro.replay.format.Trace`), framed
    but not judged: replay alone decides which records it accepts.  A
    broken *stream* raises :class:`TraceFormatError` with the number of
    items read before the break as ``records_read``.  Each reader
    supplies ``header``, ``__iter__`` and ``close``."""

    header: TraceHeader

    def read_trace(self, on_cut: Optional[Callable[[Trace], None]] = None) -> Trace:
        """Every body item in memory (header counts folded in); closes
        the reader.  A stream cut mid-body raises, unless ``on_cut`` is
        given: the trace then holds the items before the cut and is
        passed to ``on_cut`` before it is returned."""
        body: List[Any] = []
        cut = False
        try:
            body.extend(self)  # appends item by item: a cut keeps the prefix
        except TraceFormatError:
            if on_cut is None:
                raise
            cut = True
        finally:
            self.close()
        trace = Trace(header=self.header, body=body)
        if not trace.header.event_counts:
            trace.recount()
        if cut:
            on_cut(trace)
        return trace

    def __enter__(self) -> "TraceFramer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TraceReader(TraceFramer):
    """Streaming JSONL reader: frames each non-blank body line.

    A line is yielded as parsed: a dict, any other JSON value, or, for
    a line that is not JSON (a torn tail from a crashed recorder), a
    :class:`TraceFormatError` item carrying its position, which replay
    counts as a ``decode`` rejection.  The footer is framing: its
    counts fold into ``reader.header``.  A broken *stream* — truncated
    gzip, corrupt deflate data, trailing garbage after the compressed
    member — raises instead, naming the last item read: the bytes after
    that point are unrecoverable, and silently ending there would pass
    truncation off as a complete trace.
    """

    def __init__(self, path: str, data: Optional[bytes] = None) -> None:
        """Read the file at ``path`` (``-``: stdin), or the in-memory
        trace ``data``, which ``path`` then only names in messages;
        gzip is told by its magic (see :func:`text_stream`)."""
        self.path = STDIN_NAME if path == "-" else str(path)
        self._fh = text_stream(read_input(path) if data is None else data)
        self.footer: Optional[Dict[str, Any]] = None
        #: Body items yielded so far (the in-band header is not one).
        self.records_read = 0
        try:
            first = self._fh.readline()
            while first and not first.strip():
                first = self._fh.readline()  # piped text may lead with blank lines
        except _STREAM_ERRORS as exc:
            self._fh.close()
            raise TraceFormatError(
                f"{self.path}: unreadable trace header "
                f"(corrupt or truncated stream): {exc}"
            ) from exc
        if not first.strip():
            self._fh.close()
            raise TraceFormatError(f"{self.path}: empty trace file")
        #: The verbatim header line (sans newline): what format
        #: conversion carries through so round trips stay byte-exact.
        self.header_line = first.rstrip("\n")
        try:
            self.header = TraceHeader.from_record(json.loads(first))
        except json.JSONDecodeError as exc:
            self._fh.close()
            raise TraceFormatError(f"{self.path}: bad JSON line: {exc}") from exc
        except TraceFormatError:
            self._fh.close()
            raise

    # ------------------------------------------------------------------
    def _fold_footer(self, footer: Dict[str, Any]) -> None:
        self.footer = footer
        counts = footer.get("event_counts")
        if isinstance(counts, dict) and not self.header.event_counts:
            self.header.event_counts = {str(k): int(v) for k, v in counts.items()}
        end_ns = footer.get("end_ns")
        if isinstance(end_ns, int) and self.header.end_ns is None:
            self.header.end_ns = end_ns

    def __iter__(self) -> Iterator[Any]:
        """Yield every non-blank body line as parsed (see the class
        docstring); a broken stream raises."""
        try:
            while True:
                try:
                    line = self._fh.readline()
                except _STREAM_ERRORS as exc:
                    raise TraceFormatError(
                        f"{self.path}: corrupt or truncated stream "
                        f"after record {self.records_read}: {exc}",
                        records_read=self.records_read,
                    ) from exc
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    item = json.loads(line)
                except json.JSONDecodeError as exc:
                    item = TraceFormatError(
                        f"{self.path}: bad JSON line after record "
                        f"{self.records_read}: {exc.msg} (char {exc.pos})",
                        records_read=self.records_read,
                    )
                else:
                    if isinstance(item, dict) and item.get("kind") == KIND_FOOTER:
                        self._fold_footer(item)
                        continue
                self.records_read += 1
                yield item
        finally:
            self._fh.close()

    def close(self) -> None:
        self._fh.close()


# ======================================================================
# Whole-trace convenience
# ======================================================================
def save_trace(path: str, trace: Trace) -> None:
    """Write a complete in-memory trace; the header carries the counts."""
    trace.recount()
    with _create(str(path)) as fh:
        fh.write(_encode(trace.header.to_record()) + "\n")
        # Batched line assembly: one write per batch, not two per record.
        batch: List[str] = []
        for record in trace.records:
            batch.append(_encode(record) + "\n")
            if len(batch) >= 256:
                fh.write("".join(batch))
                batch.clear()
        if batch:
            fh.write("".join(batch))


def dumps_trace(trace: Trace) -> str:
    """Serialize a trace to a JSONL string (tests, goldens)."""
    trace.recount()
    lines = [_encode(trace.header.to_record())]
    lines.extend(_encode(record) for record in trace.records)
    lines.append("")  # trailing newline
    return "\n".join(lines)
