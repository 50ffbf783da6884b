"""The binary trace codec (repro.replay.btrace).

The contracts under test are the ones the replay stack leans its whole
weight on:

* **lossless conversion** — JSONL -> btrace -> JSONL reproduces the
  original gzip payload byte for byte (a load, then a save with the
  same canonical header and record encoding);
* **decode equivalence** — the eager binary decoder builds exactly
  the objects the dict codec builds, record by record, and replaying a
  btrace equals replaying its records as dicts in every replay mode;
* **a complete index** — the on-disk record index holds one offset per
  record, in order (corruption reports bisect it for a position);
* **failure honesty** — truncated or corrupt containers raise
  :class:`TraceFormatError` with ``records_read`` context instead of
  returning silently short streams;
* **format neutrality** — replay verdicts are identical whichever
  container format fed them.
"""

from __future__ import annotations

import copy
import gzip
import json
import os
import struct
import subprocess
import sys

import pytest

from repro.core.events import EVENT_CLASSES, GuestEvent
from repro.errors import TraceFormatError
from repro.hw.exits import ExitReason
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import load_trace_observed
from repro.replay.btrace import (
    BTRACE_LAYOUTS,
    MAGIC,
    TRAILER_MAGIC,
    TYPE_CODES,
    BinaryTraceReader,
    convert_trace,
    is_btrace_bytes,
    load_any_trace,
    open_trace,
    save_btrace,
)
from repro.replay.format import Trace, TraceHeader, record_of, scan_marker, task_from_record
from repro.replay.recorder import SCENARIOS, record_scenario
from repro.replay.source import ReplaySource
from repro.replay.trace_io import save_trace
from repro.sim.perturb import PerturbationConfig, SchedulePerturbation

_encode = json.JSONEncoder(sort_keys=True).encode


@pytest.fixture(scope="module")
def exploit_run():
    return record_scenario("exploit", seed=0)


@pytest.fixture(scope="module")
def rootkit_run():
    return record_scenario("rootkit", seed=0)


def _gzip_payload(path):
    with gzip.open(path, "rb") as fh:
        return fh.read()


class TestConversion:
    def test_jsonl_btrace_jsonl_is_byte_lossless(self, tmp_path, exploit_run):
        src = str(tmp_path / "src.jsonl.gz")
        save_trace(src, exploit_run.trace)
        btr = str(tmp_path / "mid.btr")
        back = str(tmp_path / "back.jsonl.gz")
        convert_trace(src, btr)
        convert_trace(btr, back)
        assert _gzip_payload(src) == _gzip_payload(back)

    def test_conversion_reports_format_and_counts(self, tmp_path, exploit_run):
        src = str(tmp_path / "src.jsonl.gz")
        save_trace(src, exploit_run.trace)
        summary = convert_trace(src, str(tmp_path / "out.btr"))
        assert summary["format"] == "btrace"
        assert summary["records"] == len(load_any_trace(src).records)

    def test_load_any_trace_is_format_blind(self, tmp_path, exploit_run):
        jsonl = str(tmp_path / "t.jsonl.gz")
        btr = str(tmp_path / "t.btr")
        save_trace(jsonl, exploit_run.trace)
        save_btrace(btr, exploit_run.trace)
        a = load_any_trace(jsonl)
        b = load_any_trace(btr)
        assert a.header.to_record() == b.header.to_record()
        assert a.records == b.records

    def test_sniffing_ignores_extension(self, tmp_path, exploit_run):
        # A btrace container under a misleading name still sniffs right.
        path = str(tmp_path / "lying.jsonl.gz")
        save_btrace(path, exploit_run.trace)
        with open_trace(path) as reader:
            assert isinstance(reader, BinaryTraceReader)
        assert load_any_trace(path).records == exploit_run.trace.records

    def test_plain_jsonl_under_a_gz_name_reads_everywhere(self, tmp_path, exploit_run):
        # gzip is told by its magic too: every reader agrees on the file.
        path = str(tmp_path / "plain.jsonl.gz")
        save_trace(str(tmp_path / "t.jsonl"), exploit_run.trace)
        with open(tmp_path / "t.jsonl", "rb") as src, open(path, "wb") as dst:
            dst.write(src.read())
        assert load_any_trace(path).records == exploit_run.trace.records
        registry = MetricsRegistry()
        assert load_trace_observed(path, registry).records == exploit_run.trace.records
        convert_trace(path, str(tmp_path / "t.btr"))
        assert load_any_trace(str(tmp_path / "t.btr")).records == exploit_run.trace.records

    def test_is_btrace_bytes(self, tmp_path, exploit_run):
        path = str(tmp_path / "t.btr")
        save_btrace(path, exploit_run.trace)
        with open(path, "rb") as fh:
            head = fh.read(len(MAGIC))
        assert is_btrace_bytes(head)
        assert not is_btrace_bytes(b"\x1f\x8b\x08\x00")
        assert not is_btrace_bytes(b"")


class TestDecodeEquivalence:
    def test_decoded_items_match_dict_decode(self, tmp_path, rootkit_run):
        path = str(tmp_path / "t.btr")
        save_btrace(path, rootkit_run.trace)
        reader = BinaryTraceReader(path)
        try:
            items = list(reader)
        finally:
            reader.close()
        assert len(items) == len(rootkit_run.trace.records)
        for raw, item in zip(rootkit_run.trace.records, items):
            assert record_of(item) == raw
            if type(item) is dict:  # a JSON escape comes back verbatim
                continue
            t_ns, event, task, parent = item
            eager = GuestEvent.from_record(raw)
            assert t_ns == raw["t"]
            assert type(event) is type(eager)
            assert vars(event) == vars(eager)
            assert (task, parent) == tuple(
                task_from_record(raw[key]) if key in raw else None
                for key in ("task", "parent")
            )

    def test_events_iterator_counts_every_event(self, tmp_path, rootkit_run):
        path = str(tmp_path / "t.btr")
        save_btrace(path, rootkit_run.trace)
        reader = BinaryTraceReader(path)
        try:
            n = sum(
                1
                for item in reader
                if type(item) is tuple or item.get("kind", "event") == "event"
            )
        finally:
            reader.close()
        expected = sum(
            1
            for r in rootkit_run.trace.records
            if r.get("kind", "event") == "event"
        )
        assert n == expected

    def test_in_memory_data_reader(self, tmp_path, exploit_run):
        path = tmp_path / "t.btr"
        save_btrace(str(path), exploit_run.trace)
        trace = load_any_trace("<memory>", data=path.read_bytes())
        assert trace.records == exploit_run.trace.records


#: ``json``-kind payloads a repeated record carries: flat, and with a
#: nested container holding an ``$enum`` tag.
_REPEAT_JSON = {
    "flat": {"port": 96, "size": 1},
    "nested-enum": {
        "inner": {"reason": {"$enum": "ExitReason", "v": ExitReason.HLT.value}},
        "seen": [1, 2],
    },
}


def _sample_payload(cls, json_value):
    """One record payload of ``cls`` with a value of each field's kind."""
    values = {
        "int": 7, "str": "pio", "ints": [1, 2],
        "reason": ExitReason.HLT.value, "json": json_value,
    }
    return {key: copy.deepcopy(values[kind]) for key, _, kind in cls.CODEC}


_REPEAT_CASES = [
    (value, name)
    for value, cls in sorted(EVENT_CLASSES.items())
    for name in (
        _REPEAT_JSON if any(kind == "json" for _, _, kind in cls.CODEC)
        else ["flat"]
    )
]


class TestRepeatedPayload:
    """A payload seen before is built from the attributes its first
    record's check produced: the event must equal the dict decode, and
    share no container with any other event."""

    @pytest.mark.parametrize(
        "value, json_name", _REPEAT_CASES,
        ids=[f"{value}-{name}" for value, name in _REPEAT_CASES],
    )
    def test_repeat_equals_dict_decode_and_shares_no_container(
        self, tmp_path, monkeypatch, value, json_name
    ):
        cls = EVENT_CLASSES[value]
        payload = _sample_payload(cls, _REPEAT_JSON[json_name])
        records = [
            {"kind": "event", "type": value, "t": t, "vcpu": 0, "vm": "vm0",
             "hw": _HW, **payload}
            for t in (1000, 2000, 3000)
        ]
        path = str(tmp_path / "repeat.btr")
        writer = save_btrace(path, Trace(TraceHeader(vm_id="vm0", end_ns=10_000), records))
        assert writer.escapes == 0
        expected = [GuestEvent.from_record(record) for record in records]
        json_attrs = [attr for _, attr, kind in cls.CODEC if kind == "json"]

        checks = []
        from_record = GuestEvent.from_record
        monkeypatch.setattr(GuestEvent, "from_record", staticmethod(
            lambda record: checks.append(record) or from_record(record)
        ))
        reader = BinaryTraceReader(path)
        try:
            items = iter(reader)
            events = [next(items)[1]]
            # Mutating the first event's containers must not reach the
            # repeats decoded after it.
            assert events[0] == expected[0]
            for attr in json_attrs:
                _mutate(getattr(events[0], attr))
            events += [item[1] for item in items]
        finally:
            reader.close()
        assert len(checks) == 1  # one check per distinct payload

        first, second, third = events
        assert list(vars(first)) == list(vars(expected[0]))
        for event, want in zip((second, third), expected[1:]):
            assert type(event) is cls
            assert event == want
            assert list(vars(event)) == list(vars(want))
        for attr in json_attrs:
            a, b = getattr(second, attr), getattr(third, attr)
            assert not _shared_containers(a, b)
            _mutate(a)
            assert b == getattr(expected[2], attr)


def _mutate(value):
    """Change ``value`` and every dict or list nested in it in place."""
    if isinstance(value, dict):
        for v in list(value.values()):
            _mutate(v)
        value["mutated"] = True
    elif isinstance(value, list):
        for v in value:
            _mutate(v)
        value.append("mutated")


def _shared_containers(a, b) -> bool:
    """Do ``a`` and ``b`` share a dict or list, at any depth?"""
    def containers(value):
        if isinstance(value, (dict, list)):
            yield id(value)
            for v in value.values() if isinstance(value, dict) else value:
                yield from containers(v)
    return bool(set(containers(a)) & set(containers(b)))


class TestRandomAccess:
    def test_index_is_monotone_and_complete(self, tmp_path, exploit_run):
        path = str(tmp_path / "t.btr")
        save_btrace(path, exploit_run.trace)
        reader = BinaryTraceReader(path)
        try:
            index = reader.index
            assert len(index) == reader.record_count
            assert index == sorted(index)
            assert len(set(index)) == len(index)
        finally:
            reader.close()


#: The tail ``save_btrace`` writes for a trace with no events.
_EMPTY_TAIL = b'{"end_ns": null, "event_counts": {}, "footer": null}'


def empty_btrace(header_line: str, tail: bytes = _EMPTY_TAIL) -> bytes:
    """A btrace image with ``header_line``, ``tail`` and an empty body:
    no records, strings or blobs (the layout in ``repro.replay.btrace``)."""
    head = header_line.encode("utf-8")
    strings_off = len(MAGIC) + 4 + len(head)
    tail_off = strings_off + 8  # past two empty tables
    index_off = tail_off + 4 + len(tail)
    return b"".join((
        MAGIC, struct.pack("<I", len(head)), head,
        struct.pack("<II", 0, 0),
        struct.pack("<I", len(tail)), tail,
        struct.pack("<QQQQQ8s", 0, strings_off, strings_off + 4, tail_off,
                    index_off, TRAILER_MAGIC),
    ))


class TestTail:
    """The header line is the only source of header fields: the tail's
    framing is checked, and nothing in it is used."""

    def test_empty_btrace_is_what_the_writer_writes(self, tmp_path):
        path = tmp_path / "empty.btr"
        save_btrace(str(path), Trace(TraceHeader(), []))
        assert path.read_bytes() == empty_btrace(_encode(TraceHeader().to_record()))

    @pytest.mark.parametrize("tail", [
        b"[]",
        b'{"end_ns": 5, "event_counts": {"io": "x"}, "footer": {"kind": "footer"}}',
    ], ids=["not-an-object", "hostile-fields"])
    def test_the_tail_is_not_read(self, tmp_path, tail):
        path = tmp_path / "t.btr"
        path.write_bytes(empty_btrace(_encode(TraceHeader().to_record()), tail))
        trace = load_any_trace(str(path))
        assert trace.header.to_record() == TraceHeader().to_record()
        assert trace.body == []

    def test_a_tail_that_is_not_json_is_corrupt(self, tmp_path):
        path = tmp_path / "t.btr"
        path.write_bytes(empty_btrace(_encode(TraceHeader().to_record()), b"{torn"))
        with pytest.raises(TraceFormatError, match="corrupt btrace tail section"):
            load_any_trace(str(path))


class TestCorruption:
    @pytest.fixture
    def data(self, tmp_path, exploit_run):
        """The exploit trace's btrace bytes, to damage."""
        path = tmp_path / "t.btr"
        save_btrace(str(path), exploit_run.trace)
        return bytearray(path.read_bytes())

    def test_truncated_container_raises_at_open(self, data):
        for cut in (len(data) // 2, len(data) - 7, 12, 3):
            with pytest.raises(TraceFormatError, match="trailer|short|magic"):
                BinaryTraceReader(data=bytes(data[:cut]))

    def test_wrong_magic_raises(self, data):
        data[:4] = b"NOPE"
        with pytest.raises(TraceFormatError, match="magic"):
            BinaryTraceReader(data=bytes(data))

    def test_mid_body_corruption_reports_records_read(self, data):
        reader = BinaryTraceReader(data=bytes(data))
        # Clobber the tag byte of a record deep in the body with an
        # undefined type code so decode fails mid-stream.
        target = reader.record_count // 2
        offset = reader.index[target]
        reader.close()
        data[offset] = 0xFF
        broken = BinaryTraceReader(data=bytes(data))
        try:
            with pytest.raises(TraceFormatError) as err:
                for _ in broken:
                    pass
            message = str(err.value)
            assert "record" in message
            assert str(target) in message or "after" in message
        finally:
            broken.close()

    def test_records_read_attribute_tracks_progress(self, data):
        reader = BinaryTraceReader(data=bytes(data))
        try:
            for i, _ in enumerate(reader):
                if i >= 9:
                    break
        finally:
            reader.close()
        assert reader.records_read == 10


class TestReplayEquivalence:
    def test_verdicts_identical_across_formats(self, tmp_path, rootkit_run):
        jsonl = str(tmp_path / "t.jsonl.gz")
        btr = str(tmp_path / "t.btr")
        save_trace(jsonl, rootkit_run.trace)
        save_btrace(btr, rootkit_run.trace)
        reports = []
        for path in (jsonl, btr):
            trace = load_any_trace(path)
            report = ReplaySource(
                trace, SCENARIOS["rootkit"].build_auditors()
            ).run()
            reports.append(report)
        a, b = reports
        assert a.verdicts == b.verdicts
        assert a.matches_live(rootkit_run.live_verdicts)
        assert b.matches_live(rootkit_run.live_verdicts)
        assert a.events_replayed == b.events_replayed
        # Deterministic exports must match byte for byte too.
        assert _encode(a.alerts) == _encode(b.alerts)


def _with_escapes(run):
    """The run's records plus JSON escapes: a scan marker, an event
    with a negative int, one with an extra key, and an undecodable one."""
    records = copy.deepcopy(run.trace.records)
    events = [i for i, r in enumerate(records) if r.get("kind") == "event"]
    syscall = next(i for i in events if records[i]["type"] == "syscall")
    at = events[len(events) // 2]
    auditor = SCENARIOS[run.trace.header.scenario].build_auditors()[0].name
    records[syscall:syscall] = [{**records[syscall], "nr": -1}]
    records[at:at] = [
        scan_marker(records[at]["t"], auditor, "guest-ps", [1, 2]),
        {**records[at], "surprise": "extra-key"},
        {**records[at], "type": "NO_SUCH_TYPE"},
    ]
    return records


def _replay_outcome(trace, scenario, mode):
    """Everything one replay produces that must not depend on the
    container the records came from."""
    registry = MetricsRegistry()
    spans = []
    registry.set_span_sink(spans.append)
    perturb = None
    if mode.startswith("perturbed"):
        perturb = SchedulePerturbation(
            seed=5,
            config=PerturbationConfig(
                delay_probability=0.2, delay_ns_max=50_000,
                drop_probability=0.05, max_drops=3,
            ),
        )
    source = ReplaySource(
        trace, SCENARIOS[scenario].build_auditors(), perturb=perturb,
        collect_delivery=mode == "perturbed-log", metrics=registry,
    )
    if mode == "stream":
        source.stream_begin()
        for item in trace.body:
            source.stream_feed(item)
        report = source.stream_end()
    else:
        report = source.run()
    snapshot = registry.snapshot()
    return {
        "verdicts": report.verdicts,
        "counts": (
            report.events_replayed, report.events_rejected, report.scans_run,
            report.scan_errors, report.events_dropped, report.sim_span_ns,
            report.container_failed, report.rhc_alarmed,
        ),
        "rejected": sorted(
            (labels["reason"], value)
            for name, labels, value in snapshot["counters"]
            if name == "flow.rejected"
        ),
        "snapshot": snapshot,
        "spans": spans,
        "delivery_log": source.delivery_log,
    }


class TestBinaryReplayEquivalence:
    """Replaying a .btr (decoded into events) equals replaying
    the same records as an in-memory dict trace, in every mode."""

    @pytest.fixture(scope="class")
    def cases(self, exploit_run, rootkit_run, tmp_path_factory):
        out = {}
        base = tmp_path_factory.mktemp("equivalence")
        for name, run, records in (
            ("rootkit", rootkit_run, rootkit_run.trace.records),
            ("exploit", exploit_run, exploit_run.trace.records),
            ("escapes", rootkit_run, _with_escapes(rootkit_run)),
        ):
            path = str(base / f"{name}.btr")
            save_btrace(path, Trace(
                header=copy.deepcopy(run.trace.header), records=records))
            out[name] = (path, run.trace.header, records)
        return out

    @pytest.mark.parametrize(
        "mode", ["batch", "stream", "perturbed", "perturbed-log"]
    )
    @pytest.mark.parametrize("name", ["rootkit", "exploit", "escapes"])
    def test_btrace_replay_equals_dict_replay(self, cases, name, mode):
        path, header, records = cases[name]
        binary = load_any_trace(path)
        # JSON escapes (scan markers included) stay dicts; every other
        # record arrives decoded.
        kinds = [type(item) for item in binary.body]
        assert kinds.count(dict) == {"rootkit": 1, "exploit": 0, "escapes": 5}[name]
        assert kinds.count(tuple) == len(kinds) - kinds.count(dict)
        in_memory = Trace(
            header=copy.deepcopy(header), records=copy.deepcopy(records)
        )
        got = _replay_outcome(binary, header.scenario, mode)
        want = _replay_outcome(in_memory, header.scenario, mode)
        assert got == want
        if name == "escapes":
            assert dict(want["rejected"]) == {"decode": 1}
            assert want["counts"][2] >= 1  # scans ran

    @pytest.mark.parametrize("name", ["rootkit", "exploit", "escapes"])
    def test_records_equal_the_converted_jsonl(self, cases, tmp_path, name):
        path, _header, records = cases[name]
        jsonl = str(tmp_path / "t.jsonl")
        convert_trace(path, jsonl)
        assert load_any_trace(path).records == load_any_trace(jsonl).records
        assert load_any_trace(path).records == records


#: A small trace with one fixed-layout record per field kind.  The
#: task's ``comm`` is a string that parses as JSON but not as an object.
_HW = list(range(11))
_TASK = {
    "task_struct_gva": 0x1000, "pid": 7, "uid": 0, "euid": 0,
    "comm": "42", "exe": "/bin/sh", "flags": 0, "parent_gva": 0,
}
_FIXED = [
    {"type": "process_switch", "new_pdba": 0x2000, "old_pdba": 0x3000},
    {"type": "syscall", "nr": 1, "args": [1, 2], "mechanism": "sysenter",
     "task": _TASK},
    {"type": "io", "io_kind": "pio", "detail": {"port": 96}},
    {"type": "mem_access", "gva": 1, "gpa": 2, "access": "w"},
    {"type": "raw_exit", "reason": ExitReason.HLT.value, "qual": {}},
]

#: Where a hostile reference points: ``(case, record index, offset
#: within the record, target)``; the target is a string-table entry or
#: ``None`` for one past the end of the table it indexes.
_PAYLOAD = 15  # tag(1) + t(8) + vcpu(2) + vm ref(4)
_TASK_BLOCK = _PAYLOAD + struct.calcsize("<QII") + 8 * 11
_HOSTILE = [
    ("vm", 0, 11, None),
    ("mechanism", 1, _PAYLOAD + 8, None),
    ("args", 1, _PAYLOAD + 12, None),
    ("comm", 1, _TASK_BLOCK + 48, None),
    ("exe", 1, _TASK_BLOCK + 52, None),
    ("io-kind", 2, _PAYLOAD, None),
    ("detail-past-table", 2, _PAYLOAD + 4, None),
    ("detail-not-json", 2, _PAYLOAD + 4, "vm0"),
    ("detail-not-object", 2, _PAYLOAD + 4, "42"),
    ("access", 3, _PAYLOAD + 16, None),
    ("reason", 4, _PAYLOAD, "vm0"),
    ("qual-not-json", 4, _PAYLOAD + 4, "/bin/sh"),
]


def hostile_records():
    """The header and records :func:`_hostile_btrace` writes."""
    header = TraceHeader(vm_id="vm0", end_ns=10_000, scenario="exploit")
    records = [
        {"kind": "event", "t": 1000 * (i + 1), "vcpu": 0, "vm": "vm0",
         "hw": _HW, **fields}
        for i, fields in enumerate(_FIXED)
    ]
    return header, records


def _hostile_btrace(path, record, offset, target):
    header, records = hostile_records()
    assert save_btrace(path, Trace(header, records)).escapes == 0
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    reader = BinaryTraceReader(data=bytes(data))
    strings = reader._strings
    at = reader.index[record]
    reader.close()
    ref = strings.index(target) if target is not None else len(strings) + 5
    struct.pack_into("<I", data, at + offset, ref)
    with open(path, "wb") as fh:
        fh.write(data)


class TestHostileReferences:
    @pytest.mark.parametrize(
        "record, offset, target", [case[1:] for case in _HOSTILE],
        ids=[case[0] for case in _HOSTILE],
    )
    def test_bad_reference_is_a_counted_rejection(
        self, tmp_path, record, offset, target
    ):
        path = str(tmp_path / "hostile.btr")
        _hostile_btrace(path, record, offset, target)
        registry = MetricsRegistry()
        report = ReplaySource(load_any_trace(path), [], metrics=registry).run()
        assert report.events_rejected == 1
        assert report.events_replayed == len(_FIXED) - 1
        rejected = [
            (labels, value) for name, labels, value
            in registry.snapshot()["counters"] if name == "flow.rejected"
        ]
        assert rejected == [({"reason": "decode", "vm": "vm0"}, 1)]
        # obs loads the same items, so it counts the same rejection.
        registry = MetricsRegistry()
        ReplaySource(load_trace_observed(path, registry), [], metrics=registry).run()
        assert registry.value("flow.rejected", vm="vm0", reason="decode") == 1
        # Consumers of the record dicts stop there, saying where.
        for consume in (
            lambda: convert_trace(path, str(tmp_path / "out.jsonl")),
            lambda: load_any_trace(path).records,
        ):
            with pytest.raises(TraceFormatError) as err:
                consume()
            assert err.value.records_read == record
            assert f"after record {record}" in str(err.value)

    @pytest.mark.parametrize("target", [None, "vm0"], ids=["past-table", "not-json"])
    def test_cli_reports_bad_reference_without_traceback(self, tmp_path, target):
        path = str(tmp_path / "hostile.btr")
        _hostile_btrace(path, 2, _PAYLOAD + 4, target)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", *args], capture_output=True,
                text=True, env=env, timeout=120,
            )

        replay = cli("repro.replay", "replay", path)
        assert replay.returncode == 0, replay.stderr
        assert "(1 rejected" in replay.stdout
        report = cli("repro.obs", "report", path)
        assert report.returncode == 0, report.stderr
        assert '"labels": {"reason": "decode", "vm": "vm0"}' in report.stdout
        # convert, a consumer of the record dicts, exits 2 with one line.
        out = cli("repro.replay", "convert", path, str(tmp_path / "o.jsonl"))
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error:")
        assert "after record 2" in out.stderr
        assert out.stderr.count("\n") == 1


class TestLayoutRegistry:
    def test_layouts_cover_every_event_type(self):
        from repro.core.events import EventType

        values = {t.value for t in EventType}
        assert set(BTRACE_LAYOUTS) == values
        assert set(TYPE_CODES) == values

    def test_layout_formats_follow_each_codec(self):
        from repro.core.events import EVENT_CLASSES

        # A raw u64 per int field, a u32 table reference per other kind.
        packed = {"int": "Q", "str": "I", "reason": "I", "json": "I", "ints": "I"}
        for value, fmt in BTRACE_LAYOUTS.items():
            kinds = [kind for _key, _attr, kind in EVENT_CLASSES[value].CODEC]
            assert fmt == "<" + "".join(packed[k] for k in kinds), value

    def test_type_codes_are_unique_and_nonzero(self):
        codes = list(TYPE_CODES.values())
        assert len(set(codes)) == len(codes)
        assert 0 not in codes  # 0 is the JSON-escape tag

    def test_writer_escapes_non_canonical_records(self, tmp_path):
        path = str(tmp_path / "t.btr")
        weird = {
            "kind": "event",
            "type": "syscall",
            "t": 1,
            "vcpu": 0,
            "vm": "vm0",
            "hw": None,
            "nr": 1,
            "args": [],
            "mechanism": "sysenter",
            "surprise": "extra-key",
        }
        assert save_btrace(path, Trace(TraceHeader(), [weird])).escapes == 1
        assert load_any_trace(path).records == [weird]
