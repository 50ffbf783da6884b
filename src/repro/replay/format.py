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
  an auditor to cross-validate against an untrusted view (HRKD scans);
* at most one **footer** — authoritative event counts for streams
  whose header was written before the counts were known.

Everything decoding-related raises :class:`~repro.errors.TraceFormatError`
on malformed input; replay treats that as a graceful, counted rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.derive import DerivedTaskInfo
from repro.core.events import GuestEvent
from repro.errors import TraceFormatError

#: Bump on any incompatible record-schema change.
FORMAT_VERSION = 1

#: Record kinds a trace line may carry.
KIND_HEADER = "header"
KIND_EVENT = "event"
KIND_SCAN = "scan"
KIND_FOOTER = "footer"

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
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace format version {version!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        num_vcpus = record.get("num_vcpus", 2)
        if not isinstance(num_vcpus, int) or num_vcpus < 1:
            raise TraceFormatError(f"bad num_vcpus {num_vcpus!r}")
        end_ns = record.get("end_ns")
        if end_ns is not None and not isinstance(end_ns, int):
            raise TraceFormatError(f"bad end_ns {end_ns!r}")
        counts = record.get("event_counts") or {}
        if not isinstance(counts, dict):
            raise TraceFormatError(f"bad event_counts {counts!r}")
        meta = record.get("meta") or {}
        if not isinstance(meta, dict):
            raise TraceFormatError(f"bad meta {meta!r}")
        try:
            return TraceHeader(
                version=version,
                vm_id=str(record.get("vm_id", "vm0")),
                seed=int(record.get("seed", 0)),
                num_vcpus=num_vcpus,
                scenario=str(record.get("scenario", "")),
                start_ns=int(record.get("start_ns", 0)),
                end_ns=end_ns,
                event_counts={str(k): int(v) for k, v in counts.items()},
                meta=meta,
            )
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(f"bad trace header field: {exc}")

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


def decode_event(
    record: Dict[str, Any],
) -> Tuple[GuestEvent, Optional[DerivedTaskInfo], Optional[DerivedTaskInfo]]:
    """Decode an event record back to (event, task, parent).

    Raises :class:`TraceFormatError` on any malformed field.
    """
    if not isinstance(record, dict):
        raise TraceFormatError(f"event record must be a dict: {record!r}")
    if record.get("kind", KIND_EVENT) != KIND_EVENT:
        raise TraceFormatError(f"not an event record: kind={record.get('kind')!r}")
    event = GuestEvent.from_record(record)
    task = record.get("task")
    parent = record.get("parent")
    return (
        event,
        task_from_record(task) if task is not None else None,
        task_from_record(parent) if parent is not None else None,
    )


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
    if not isinstance(record, dict) or record.get("kind") != KIND_SCAN:
        raise TraceFormatError(f"not a scan marker: {record!r}")
    try:
        pids = [int(p) for p in record["untrusted_pids"]]
        count = record.get("untrusted_count")
        return {
            "t": int(record["t"]),
            "auditor": str(record["auditor"]),
            "view": str(record["view"]),
            "untrusted_pids": pids,
            "untrusted_count": int(count) if count is not None else None,
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"bad scan marker: {exc}") from exc


# ======================================================================
# Whole traces
# ======================================================================
class Trace:
    """An in-memory trace: header + raw body records (no header line).

    A binary load also hands over ``body``, already decoded into the
    items replay feeds (see ``BinaryTraceReader.iter_decoded``), and
    ``load_records``, which builds the record dicts from the same
    container the first time :attr:`records` is read.  That read drops
    the decoded body, so edits to ``records`` are what replay sees.
    """

    def __init__(
        self,
        header: TraceHeader,
        records: Optional[List[Dict[str, Any]]] = None,
        body: Optional[List[Any]] = None,
        load_records: Optional[Callable[[], List[Dict[str, Any]]]] = None,
    ) -> None:
        self.header = header
        self._records = [] if records is None and load_records is None else records
        self._body = body
        self._load_records = load_records

    @property
    def records(self) -> List[Dict[str, Any]]:
        if self._records is None:
            self._records = self._load_records()
            self._load_records = None
        self._body = None
        return self._records

    @property
    def body(self) -> List[Any]:
        """What replay feeds, in order: the decoded body when the loader
        kept one, else the record dicts."""
        return self.records if self._body is None else self._body

    def events(self) -> List[GuestEvent]:
        """Decode just the event records (strict: raises on malformed)."""
        return [
            decode_event(r)[0]
            for r in self.records
            if isinstance(r, dict) and r.get("kind") == KIND_EVENT
        ]

    def recount(self) -> Dict[str, int]:
        """Recompute ``header.event_counts`` from the body."""
        counts: Dict[str, int] = {}
        for record in self.records:
            if isinstance(record, dict) and record.get("kind") == KIND_EVENT:
                key = str(record.get("type"))
                counts[key] = counts.get(key, 0) + 1
        self.header.event_counts = counts
        return counts


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
