"""Trace I/O: JSONL files, optionally gzip-compressed.

:func:`save_trace` is the one JSONL writer: a header line whose event
counts are recounted from the body, then one line per body record.
:class:`TraceReader` surfaces the header immediately and frames the
body.  The header line is the only source of header fields; a header
with empty counts gets them recounted from the body on load.  Readers
frame, replay judges: every non-blank body line is yielded as parsed
(a line that is not JSON as a :class:`TraceFormatError` item), and
only :class:`~repro.replay.source.ReplaySource` decides whether a
record is accepted and how a rejection is counted.
"""

from __future__ import annotations

import gzip
import io
import json
import sys
import zlib
from typing import Any, Callable, Iterator, List, Optional

from repro.errors import TraceFormatError
from repro.replay.format import Trace, TraceHeader


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
    counts as a ``decode`` rejection.  A broken *stream* — truncated
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
        try:
            self.header = TraceHeader.from_record(json.loads(first))
        except json.JSONDecodeError as exc:
            self._fh.close()
            raise TraceFormatError(f"{self.path}: bad JSON line: {exc}") from exc
        except TraceFormatError:
            self._fh.close()
            raise

    # ------------------------------------------------------------------
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
    """Write a complete in-memory trace as JSONL (gzip for ``*.gz``):
    the header line, with counts recounted from the body, then one line
    per record.  A body item with no record (see
    :func:`~repro.replay.format.record_of`) raises before the file is
    opened."""
    records = trace.records
    trace.recount()
    with _create(str(path)) as fh:
        fh.write(_encode(trace.header.to_record()) + "\n")
        # Batched line assembly: one write per batch, not two per record.
        batch: List[str] = []
        for record in records:
            batch.append(_encode(record) + "\n")
            if len(batch) >= 256:
                fh.write("".join(batch))
                batch.clear()
        if batch:
            fh.write("".join(batch))
