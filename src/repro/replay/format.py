"""Versioned trace format: the schema of recorded event streams.

A trace is a sequence of JSON records (one per line on disk):

* exactly one **header** (first line) — format version, VM identity,
  seed, vCPU count, scenario name, time span, event counts and free
  metadata (the live run's verdicts live here);
* any number of **event** records — the shared
  :meth:`~repro.core.events.GuestEvent.to_record` codec output, plus
  optional ``task``/``parent`` annotations (the record-time output of
  the architectural deriver, so replay can serve the same derivations
  without guest memory);
* any number of **scan** markers — points where the live harness asked
  an auditor to cross-validate against an untrusted view (HRKD scans).

The header line is the only source of header fields.  Any other body
record (a second header, an unknown kind, a value that is not an
object) is kept as it is and rejected by replay.

Everything decoding-related raises :class:`~repro.errors.TraceFormatError`
on malformed input; replay treats that as a graceful, counted rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence

from repro.core.derive import DerivedTaskInfo
from repro.core.events import GuestEvent
from repro.errors import TraceFormatError

#: Bump on any incompatible record-schema change.
FORMAT_VERSION = 1

#: Record kinds a trace line may carry.
KIND_HEADER = "header"
KIND_EVENT = "event"
KIND_SCAN = "scan"

#: Alert-detail keys that are volatile across live/replay runs (clock
#: phase, liveness-evicted process counts) and excluded from verdicts.
_VOLATILE_ALERT_KEYS = frozenset({"trusted_count", "untrusted_count"})

_TASK_FIELDS = (
    "task_struct_gva", "pid", "uid", "euid", "comm", "exe", "flags",
    "parent_gva",
)

#: Expected ``map(type, values)`` shape of a task annotation.
_TASK_TYPES = [int, int, int, int, str, str, int, int]

#: A task annotation's values in ``_TASK_FIELDS`` order, in one C call.
_task_values = itemgetter(*_TASK_FIELDS)

#: Header fields with their defaults; each must have its default's type.
_HEADER_DEFAULTS = (
    ("vm_id", "vm0"), ("seed", 0), ("num_vcpus", 2), ("scenario", ""),
    ("start_ns", 0),
)

#: A scan marker's required fields and the type each must have.
_SCAN_FIELDS = (("t", int), ("auditor", str), ("view", str), ("untrusted_pids", list))

_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list"}


def _check_type(what: str, value: Any, kind: type) -> None:
    """Raise :class:`TraceFormatError` unless ``value`` is exactly a
    ``kind`` (so a bool is not an integer)."""
    if type(value) is not kind:
        raise TraceFormatError(f"{what} must be {_TYPE_NAMES[kind]}, got {value!r}")


# ======================================================================
# Header
# ======================================================================
@dataclass
class TraceHeader:
    """In-band first record of every trace."""

    version: int = FORMAT_VERSION
    vm_id: str = "vm0"
    seed: int = 0
    num_vcpus: int = 2
    scenario: str = ""
    start_ns: int = 0
    end_ns: Optional[int] = None
    event_counts: Dict[str, int] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        return {
            "kind": KIND_HEADER,
            "version": self.version,
            "vm_id": self.vm_id,
            "seed": self.seed,
            "num_vcpus": self.num_vcpus,
            "scenario": self.scenario,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "event_counts": dict(self.event_counts),
            "meta": self.meta,
        }

    @staticmethod
    def from_record(record: Dict[str, Any]) -> "TraceHeader":
        if not isinstance(record, dict) or record.get("kind") != KIND_HEADER:
            raise TraceFormatError(f"not a trace header: {record!r}")
        version = record.get("version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace format version {version!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        fields = {
            key: record.get(key, default) for key, default in _HEADER_DEFAULTS
        }
        for key, default in _HEADER_DEFAULTS:
            _check_type(f"header {key}", fields[key], type(default))
        if fields["num_vcpus"] < 1:
            raise TraceFormatError(f"bad num_vcpus {fields['num_vcpus']!r}")
        end_ns = record.get("end_ns")
        if end_ns is not None:
            _check_type("header end_ns", end_ns, int)
        counts = record.get("event_counts")
        counts = {} if counts is None else counts
        if not isinstance(counts, dict):
            raise TraceFormatError(f"bad event_counts {counts!r}")
        for key, value in counts.items():
            _check_type("header event_counts key", key, str)
            _check_type(f"header event_counts[{key!r}]", value, int)
        meta = record.get("meta")
        meta = {} if meta is None else meta
        if not isinstance(meta, dict):
            raise TraceFormatError(f"bad meta {meta!r}")
        return TraceHeader(
            version=version, end_ns=end_ns, event_counts=dict(counts), meta=meta,
            **fields,
        )

    @property
    def total_events(self) -> int:
        return sum(self.event_counts.values())


# ======================================================================
# Event records (+ deriver annotations)
# ======================================================================
def task_to_record(info: DerivedTaskInfo) -> Dict[str, Any]:
    """Serialize one deriver result for in-trace annotation."""
    return {name: getattr(info, name) for name in _TASK_FIELDS}


def task_of(values: Sequence[Any]) -> DerivedTaskInfo:
    """The one task-info builder: values in ``_TASK_FIELDS`` order,
    each an int (not a bool) but ``comm``/``exe``, which are strings;
    anything else is a :class:`TraceFormatError`."""
    if list(map(type, values)) != _TASK_TYPES:
        index = next(
            i for i, (v, t) in enumerate(zip(values, _TASK_TYPES)) if type(v) is not t
        )
        raise TraceFormatError(
            f"task.{_TASK_FIELDS[index]} must be "
            f"{'a string' if _TASK_TYPES[index] is str else 'an integer'}, "
            f"got {values[index]!r}"
        )
    # Skip the frozen-dataclass __init__, whose per-field
    # object.__setattr__ round trips dominate in the replay hot loop.
    info = object.__new__(DerivedTaskInfo)
    fields = info.__dict__
    (
        fields["task_struct_gva"], fields["pid"], fields["uid"],
        fields["euid"], fields["comm"], fields["exe"], fields["flags"],
        fields["parent_gva"],
    ) = values
    return info


def task_from_record(record: Any) -> DerivedTaskInfo:
    if not isinstance(record, dict):
        raise TraceFormatError(f"task annotation must be a dict: {record!r}")
    try:
        values = _task_values(record)
    except KeyError as exc:
        raise TraceFormatError(f"task annotation missing {exc}") from exc
    return task_of(values)


def event_to_record(
    event: GuestEvent,
    task: Optional[DerivedTaskInfo] = None,
    parent: Optional[DerivedTaskInfo] = None,
) -> Dict[str, Any]:
    """One trace line for ``event``, with optional deriver annotations."""
    record = event.to_record()
    record["kind"] = KIND_EVENT
    if task is not None:
        record["task"] = task_to_record(task)
    if parent is not None:
        record["parent"] = task_to_record(parent)
    return record


def scan_marker(
    t_ns: int,
    auditor: str,
    view: str,
    untrusted_pids: List[int],
    untrusted_count: Optional[int] = None,
) -> Dict[str, Any]:
    """A cross-validation checkpoint (the untrusted view is data, so it
    must be recorded — replay cannot re-ask a guest that isn't there)."""
    return {
        "kind": KIND_SCAN,
        "t": int(t_ns),
        "auditor": auditor,
        "view": view,
        "untrusted_pids": [int(p) for p in untrusted_pids],
        "untrusted_count": untrusted_count,
    }


def decode_scan(record: Dict[str, Any]) -> Dict[str, Any]:
    """A scan marker's fields, each checked, never coerced: ``t`` an
    int, ``auditor``/``view`` strings, ``untrusted_pids`` a list of
    ints and ``untrusted_count`` an int or None (no bools anywhere)."""
    if not isinstance(record, dict) or record.get("kind") != KIND_SCAN:
        raise TraceFormatError(f"not a scan marker: {record!r}")
    try:
        scan = {key: record[key] for key, _kind in _SCAN_FIELDS}
    except KeyError as exc:
        raise TraceFormatError(f"bad scan marker: missing {exc}") from exc
    for key, kind in _SCAN_FIELDS:
        _check_type(f"scan {key}", scan[key], kind)
    for pid in scan["untrusted_pids"]:
        _check_type("scan untrusted_pids item", pid, int)
    count = scan["untrusted_count"] = record.get("untrusted_count")
    if count is not None:
        _check_type("scan untrusted_count", count, int)
    scan["untrusted_pids"] = list(scan["untrusted_pids"])
    return scan


# ======================================================================
# Whole traces
# ======================================================================
class Trace:
    """An in-memory trace: header + body items (no header line).

    The body is what the trace readers frame, in order, and what replay
    judges: a record dict, any other JSON value, a ``(t_ns, event,
    task, parent)`` tuple (a btrace fixed-layout record, decoded), or
    the :class:`TraceFormatError` a reader left in place of a record it
    could not parse or resolve.  An in-memory trace passes ``records``
    as its body.

    :attr:`records` derives the record dicts from the body (see
    :func:`record_of`) the first time it is read, and the body then
    becomes those records, so edits to ``records`` are what replay sees.
    """

    def __init__(
        self,
        header: TraceHeader,
        records: Optional[List[Any]] = None,
        body: Optional[List[Any]] = None,
    ) -> None:
        self.header = header
        self._records = records
        self.body: List[Any] = (
            body if body is not None else [] if records is None else records
        )

    @property
    def records(self) -> List[Any]:
        if self._records is None:
            self._records = self.body = [record_of(item) for item in self.body]
        return self._records

    def recount(self) -> Dict[str, int]:
        """Recompute ``header.event_counts`` from the body."""
        counts: Dict[str, int] = {}
        for item in self.body:
            if type(item) is tuple:
                key = item[1].type.value
            elif isinstance(item, dict) and item.get("kind") == KIND_EVENT:
                key = str(item.get("type"))
            else:
                continue
            counts[key] = counts.get(key, 0) + 1
        self.header.event_counts = counts
        return counts


def record_of(item: Any) -> Any:
    """The record a body item stands for: a decoded tuple becomes its
    event record, a JSON value is its own record, and the error a
    reader left in place of a record raises, naming its position."""
    if type(item) is tuple:
        return event_to_record(*item[1:])
    if isinstance(item, TraceFormatError):
        raise item
    return item


# ======================================================================
# Verdict normalization
# ======================================================================
def normalize_alerts(alerts_by_auditor: Dict[str, List[dict]]) -> List[dict]:
    """Canonical, comparable form of auditor verdicts.

    Timestamps (every ``*_ns`` key) and liveness-dependent counters are
    dropped: replay re-derives *what* was detected and on *which*
    vCPU/pid, but its periodic checks fire on a clock whose phase
    differs from the live run by less than one check period.
    """
    normalized = []
    for auditor, alerts in sorted(alerts_by_auditor.items()):
        for alert in alerts:
            entry = {"auditor": auditor}
            for key, value in alert.items():
                if key == "auditor" or key.endswith("_ns"):
                    continue
                if key in _VOLATILE_ALERT_KEYS:
                    continue
                if isinstance(value, (set, frozenset)):
                    value = sorted(value)
                entry[key] = value
            normalized.append(entry)
    normalized.sort(key=lambda e: sorted((k, repr(v)) for k, v in e.items()))
    return normalized
