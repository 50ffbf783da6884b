"""One record, four entry points, one judgement.

Every hostile or edge value a record can carry must be judged the same
way whether the record reaches replay as an in-memory dict, a JSONL
line, a ``.btr`` record (fixed layout or JSON escape, whichever the
writer picks) or a ``ReplaySource.stream_feed`` call: either the same
event (and task annotation) reaches the auditors, or the record is the
same one ``flow.rejected{reason=decode}``.

The cases are generated from each event class's ``CODEC`` table, so a
new event type or payload field is covered without editing this file.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.auditors.hrkd import HiddenRootkitDetector
from repro.core.auditor import Auditor
from repro.core.derive import DerivedTaskInfo
from repro.core.events import _SNAPSHOT_FIELDS, EVENT_CLASSES, EventType, snapshot_of
from repro.hw.exits import GuestStateSnapshot
from repro.obs.metrics import MetricsRegistry
from repro.replay.btrace import load_btrace, save_btrace
from repro.replay.format import _TASK_FIELDS, Trace, TraceHeader, scan_marker, task_of
from repro.replay.source import ReplaySource
from repro.replay.trace_io import load_trace, save_trace

#: A well-formed value per field kind.
GOOD = {
    "int": 7,
    "str": "x",
    "ints": [1, 2],
    "json": {"port": 96},
    "reason": "EPT_VIOLATION",
}

#: Values each kind must reject.
BAD = {
    "int": [True, 1.5, "7", None, [7]],
    "str": [42, None, True, ["x"]],
    "ints": ["abc", 5, {"a": 1}, [True], [1.5], ["1"]],
    "json": [
        42, [], "x",
        {"r": {"$enum": "NoSuchEnum", "v": 1}},
        {"r": {"$enum": "ExitReason", "v": "NO_SUCH_REASON"}},
    ],
    "reason": ["NOT_A_REASON", 7, None, True],
}

#: Edge values each kind must accept (ints outside u64 and a ``null``
#: object take the btrace writer's JSON escape).
EDGE = {
    "int": [-1, 0, 2**64],
    "str": [""],
    "ints": [[-1, 2**64], []],
    "json": [None, {}, {"r": {"$enum": "ExitReason", "v": "HLT"}, "l": [1, {"a": 2}]}],
    "reason": ["VMCALL"],
}

_TASK = {
    "task_struct_gva": 0x1000, "pid": 7, "uid": 1000, "euid": 1000,
    "comm": "sh", "exe": "/bin/sh", "flags": 0, "parent_gva": 0x2000,
}

#: Task annotations: field overrides, and whether the record survives.
TASK_CASES = [
    ({"euid": 0.9}, False),
    ({"pid": "7"}, False),
    ({"uid": True}, False),
    ({"comm": 42}, False),
    ({"exe": None}, False),
    ({"flags": [0]}, False),
    ({"pid": 2**64, "euid": -1}, True),
    ({"comm": "", "extra": "ignored"}, True),
]

#: hw values, and whether the record survives.
HW_CASES = [
    ({f.name: 0 for f in dataclasses.fields(GuestStateSnapshot)}, False),
    (list(range(10)), False),
    (list(range(12)), False),
    ([True] + [0] * 10, False),
    ([0.0] * 11, False),
    ("junk", False),
    ([-1] + [2**64] * 10, True),
    (None, True),
]


def _base(type_value):
    record = {
        "kind": "event", "t": 2000, "vcpu": 1, "vm": "vm0",
        "type": type_value, "hw": list(range(11)), "task": dict(_TASK),
    }
    for key, _attr, kind in EVENT_CLASSES[type_value].CODEC:
        record[key] = copy.deepcopy(GOOD[kind])
    return record


def _cases():
    for type_value, cls in sorted(EVENT_CLASSES.items()):
        for key, _attr, kind in cls.CODEC:
            for value in BAD[kind]:
                yield f"{type_value}.{key}={value!r}", type_value, {key: value}, False
            for value in EDGE[kind]:
                yield f"{type_value}.{key}={value!r}", type_value, {key: value}, True
    for fields, ok in TASK_CASES:
        yield f"task{fields!r}", "syscall", {"task": {**_TASK, **fields}}, ok
        yield f"parent{fields!r}", "io", {"parent": {**_TASK, **fields}}, ok
    for hw, ok in HW_CASES:
        yield f"hw={hw!r}", "thread_switch", {"hw": hw}, ok
    for fields in ({"t": True}, {"t": -1}, {"vcpu": "1"}, {"vm": 5},
                   {"type": []}, {"type": "no_such_type"}):
        yield f"common{fields!r}", "mem_access", fields, False
    yield "task=list", "syscall", {"task": list(_TASK.values())}, False
    yield "task-missing-pid", "syscall", {
        "task": {k: v for k, v in _TASK.items() if k != "pid"}
    }, False


CASES = list(_cases())


class Recorder(Auditor):
    """Keeps every event with the task info the deriver served for it."""

    name = "recorder"
    subscriptions = set(EventType)

    def __init__(self):
        super().__init__()
        self.seen = []

    def audit(self, event):
        deriver = self.hypertap.deriver
        self.seen.append((event, deriver.current_task_info(event.vcpu_index)))


def _records(type_value, override):
    records = [_base(type_value), _base(type_value), _base(type_value)]
    records[0]["t"], records[2]["t"] = 1000, 3000
    records[1].update(copy.deepcopy(override))
    return records


def _outcome(trace, stream):
    recorder = Recorder()
    registry = MetricsRegistry()
    source = ReplaySource(trace, [recorder], metrics=registry)
    if stream:
        source.stream_begin()
        for item in trace.body:
            source.stream_feed(item)
        report = source.stream_end()
    else:
        report = source.run()
    rejected = sorted(
        (labels["reason"], value)
        for name, labels, value in registry.snapshot()["counters"]
        if name == "flow.rejected"
    )
    return report.events_replayed, rejected, recorder.seen


@pytest.mark.parametrize(
    "type_value, override, ok", [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_every_entry_point_judges_alike(tmp_path, type_value, override, ok):
    header = TraceHeader(vm_id="vm0", scenario="hostile", start_ns=0, end_ns=4000)
    records = _records(type_value, override)

    def in_memory():
        return Trace(header=copy.deepcopy(header), records=copy.deepcopy(records))

    jsonl = str(tmp_path / "t.jsonl")
    save_trace(jsonl, in_memory())
    btr = str(tmp_path / "t.btr")
    save_btrace(btr, in_memory())

    outcomes = {
        "memory": _outcome(in_memory(), stream=False),
        "stream": _outcome(in_memory(), stream=True),
        "jsonl": _outcome(load_trace(jsonl), stream=False),
        "btrace": _outcome(load_btrace(btr), stream=False),
        "btrace-stream": _outcome(load_btrace(btr), stream=True),
    }
    want = outcomes["memory"]
    for name, got in outcomes.items():
        assert got == want, name
    replayed, rejected, _seen = want
    if ok:
        assert (replayed, rejected) == (3, [])
    else:
        assert (replayed, rejected) == (2, [("decode", 1)])


def test_codec_lists_every_payload_field_in_dataclass_order():
    for cls in EVENT_CLASSES.values():
        payload = [f.name for f in dataclasses.fields(cls)][4:]
        assert [attr for _key, attr, _kind in cls.CODEC] == payload, cls


def test_snapshot_and_task_builders_follow_their_field_tables():
    """``snapshot_of`` and ``task_of`` store their values by name, so a
    reordered field table must change what they build."""
    values = list(range(len(_SNAPSHOT_FIELDS)))
    assert snapshot_of(values) == GuestStateSnapshot(**dict(zip(_SNAPSHOT_FIELDS, values)))
    values = [str(i) if name in ("comm", "exe") else i for i, name in enumerate(_TASK_FIELDS)]
    assert task_of(values) == DerivedTaskInfo(**dict(zip(_TASK_FIELDS, values)))


def test_cases_cover_every_kind_of_every_class():
    kinds = {kind for cls in EVENT_CLASSES.values() for _k, _a, kind in cls.CODEC}
    assert kinds == set(GOOD) == set(BAD) == set(EDGE)
    assert len({case[0] for case in CASES}) == len(CASES)


def test_decoded_edge_values_keep_their_value():
    """An accepted edge value reaches the auditor unchanged (ints stay
    unbounded, ``ints`` become a tuple, a ``null`` object an empty one)."""
    record = _base("syscall")
    record.update(nr=2**64, args=[-1, 2**64], hw=[-1] * 11)
    record["task"].update(pid=2**64, euid=-1)
    header = TraceHeader(vm_id="vm0", scenario="hostile", end_ns=4000)
    _, rejected, seen = _outcome(Trace(header=header, records=[record]), stream=False)
    assert rejected == []
    ((event, task),) = seen
    assert (event.number, event.args, event.hw_state.cr3) == (2**64, (-1, 2**64), -1)
    assert (task.pid, task.euid) == (2**64, -1)


#: Scan-marker fields the old decoder coerced (``t`` 1.9 became 1,
#: pids ``[true, "7", 2.5]`` became ``[1, 7, 2]``), one at a time, then
#: all together.
COERCED_SCAN_FIELDS = [
    {"t": 1.9},
    {"auditor": 42},
    {"view": None},
    {"untrusted_pids": [True, "7", 2.5]},
    {"untrusted_pids": "7"},
    {"untrusted_count": "3"},
    {"untrusted_count": False},
    {"t": 1.9, "auditor": 42, "untrusted_pids": [True, "7", 2.5],
     "untrusted_count": "3"},
]


class ScanSpy(HiddenRootkitDetector):
    """HRKD that keeps every untrusted view it cross-validates against."""

    def __init__(self):
        super().__init__()
        self.views = []

    def scan_against(self, untrusted_pids, view_name, untrusted_process_count=None):
        pids = list(untrusted_pids)
        self.views.append((pids, view_name, untrusted_process_count))
        return super().scan_against(pids, view_name, untrusted_process_count)


@pytest.mark.parametrize("override", [None] + COERCED_SCAN_FIELDS, ids=repr)
def test_scan_marker_fields_are_checked_not_coerced(
    tmp_path, recorded_scenario, override
):
    run = recorded_scenario("exploit")
    records = copy.deepcopy(run.trace.records)
    t_ns = records[-1]["t"]
    scans = [scan_marker(t_ns, "hrkd", "guest-ps", [1, 7], 2) for _ in range(2)]
    if override is not None:
        scans[0].update(override)
    records += scans

    def in_memory():
        return Trace(header=copy.deepcopy(run.trace.header),
                     records=copy.deepcopy(records))

    jsonl = str(tmp_path / "t.jsonl")
    save_trace(jsonl, in_memory())
    btr = str(tmp_path / "t.btr")
    save_btrace(btr, in_memory())
    for name, trace in (("memory", in_memory()), ("jsonl", load_trace(jsonl)),
                        ("btrace", load_btrace(btr))):
        spy = ScanSpy()
        registry = MetricsRegistry()
        ReplaySource(trace, [spy], metrics=registry).run()
        rejected = [
            (labels["reason"], value)
            for row, labels, value in registry.snapshot()["counters"]
            if row == "flow.rejected"
        ]
        if override is None:
            assert (spy.views, rejected) == ([([1, 7], "guest-ps", 2)] * 2, []), name
        else:
            assert (spy.views, rejected) == (
                [([1, 7], "guest-ps", 2)], [("bad-scan", 1)]
            ), name
