"""TraceReader against broken streams: truncation, corruption, garbage.

The contract under test: a malformed JSONL *line* is framed, not
judged — the reader yields it as a :class:`TraceFormatError` item and
replay counts it as a ``decode`` rejection (graceful degradation for
torn tails) — but a broken gzip *stream* — truncated member, corrupt
deflate bytes, trailing garbage after the member — raises a typed
:class:`TraceFormatError` naming the last record read, never a raw
``EOFError``/``BadGzipFile``/``json.JSONDecodeError`` leaking out of
the stdlib.
"""

from __future__ import annotations

import gzip
import json

import pytest

from repro.errors import TraceFormatError
from repro.obs.metrics import MetricsRegistry
from repro.replay.btrace import load_any_trace
from repro.replay.format import Trace, TraceHeader
from repro.replay.source import ReplaySource
from repro.replay.trace_io import TraceReader, save_trace


def make_trace(n_records=20):
    records = [
        {"kind": "event", "type": "io", "t": i * 1000, "vcpu": 0,
         "vm": "vm0", "port": 0x64, "direction": "in", "size": 1}
        for i in range(n_records)
    ]
    return Trace(header=TraceHeader(end_ns=n_records * 1000), records=records)


def gz_bytes(trace) -> bytes:
    lines = [json.dumps(trace.header.to_record())]
    lines += [json.dumps(r) for r in trace.records]
    return gzip.compress(("\n".join(lines) + "\n").encode("utf-8"))


# ======================================================================
# Broken gzip streams raise typed errors with a record index
# ======================================================================
class TestBrokenGzip:
    def test_truncated_member_raises_trace_format_error(self, tmp_path):
        # Big enough that the header decompresses from the first chunk
        # and the cut lands mid-body.
        path = tmp_path / "t.jsonl.gz"
        payload = gz_bytes(make_trace(5000))
        path.write_bytes(payload[: len(payload) // 2])
        reader = TraceReader(str(path))
        with pytest.raises(TraceFormatError) as err:
            list(reader)
        assert "after record" in str(err.value)

    def test_error_names_the_last_good_record(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        payload = gz_bytes(make_trace(5000))
        path.write_bytes(payload[:-8])  # sever the CRC/size trailer
        reader = TraceReader(str(path))
        consumed = []
        with pytest.raises(TraceFormatError) as err:
            for record in reader:
                consumed.append(record)
        assert f"after record {reader.records_read}" in str(err.value)
        assert len(consumed) == reader.records_read

    def test_corrupt_deflate_bytes(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        payload = bytearray(gz_bytes(make_trace(5000)))
        mid = len(payload) // 2
        payload[mid:mid + 16] = b"\xff" * 16  # stomp the deflate stream
        path.write_bytes(bytes(payload))
        with pytest.raises(TraceFormatError):
            # Corruption may hit before or after the header line; both
            # must surface as the same typed error.
            list(TraceReader(str(path)))

    def test_trailing_garbage_after_the_member(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        path.write_bytes(gz_bytes(make_trace(5)) + b"NOT GZIP DATA")
        reader = TraceReader(str(path))
        with pytest.raises(TraceFormatError) as err:
            list(reader)
        assert "after record 5" in str(err.value)

    def test_corrupt_header_read_is_typed_and_closes(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        path.write_bytes(b"\x1f\x8b\x08\x00garbage-after-magic")
        with pytest.raises(TraceFormatError) as err:
            TraceReader(str(path))
        assert "header" in str(err.value)

    def test_non_gzip_bytes_with_gz_suffix(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        path.write_bytes(b'{"kind": "header"}\n')
        with pytest.raises(TraceFormatError):
            TraceReader(str(path))


# ======================================================================
# Line-level damage stays graceful (and distinct from stream damage)
# ======================================================================
class TestTornLines:
    def test_trailing_json_garbage_is_counted_not_raised(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(str(path), make_trace(5))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "event", "type": "io", "t": 12\n')  # torn
            fh.write("complete garbage\n")
        reader = TraceReader(str(path))
        items = list(reader)
        assert len(items) == 7
        assert all(isinstance(item, TraceFormatError) for item in items[5:])
        assert [item.records_read for item in items[5:]] == [5, 6]
        registry = MetricsRegistry()
        report = ReplaySource(load_any_trace(str(path)), [], metrics=registry).run()
        assert (report.events_replayed, report.events_rejected) == (5, 2)
        assert registry.value("flow.rejected", vm="vm0", reason="decode") == 2

    def test_bad_header_json_raises_typed_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "header", "version": \n', encoding="utf-8")
        with pytest.raises(TraceFormatError):
            TraceReader(str(path))

    def test_load_trace_round_trip_survives_gzip(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        trace = make_trace(7)
        save_trace(str(path), trace)
        loaded = load_any_trace(str(path))
        assert loaded.records == trace.records
        assert loaded.header.event_counts == {"io": 7}
