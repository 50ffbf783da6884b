"""Deterministic exit-event record & replay (the IRIS use case).

HyperTap's auditors are pure consumers of the unified derived-event
stream.  This package makes that stream a first-class artifact:

* :mod:`repro.replay.format` — versioned, schema-checked JSONL codec
  for every :class:`~repro.core.events.GuestEvent` class;
* :mod:`repro.replay.trace_io` — JSONL with optional gzip:
  :func:`save_trace`, the one JSONL writer, and the streaming
  :class:`TraceReader`;
* :mod:`repro.replay.btrace` — the binary format (``save_btrace``, its
  one writer), and ``load_any_trace``, the one whole-trace loader for
  either;
* :mod:`repro.replay.recorder` — a recording auditor plus named
  scenarios that produce replayable traces from live simulations;
* :mod:`repro.replay.source` — a :class:`ReplaySource` that re-audits
  a trace through unmodified auditors, no ``Machine`` required;
* :mod:`repro.replay.mutate` — seeded trace mutations for fuzzing the
  monitoring stack against malformed streams.

CLI: ``python -m repro.replay {record,replay,fuzz,list}``.
"""

from repro.replay.format import (
    FORMAT_VERSION,
    Trace,
    TraceHeader,
    normalize_alerts,
)
from repro.replay.mutate import MUTATION_OPERATORS, TraceMutator
from repro.replay.recorder import (
    SCENARIOS,
    RecordingAuditor,
    record_scenario,
)
from repro.replay.source import ReplayReport, ReplaySource
from repro.replay.trace_io import TraceReader, save_trace

__all__ = [
    "FORMAT_VERSION",
    "MUTATION_OPERATORS",
    "RecordingAuditor",
    "ReplayReport",
    "ReplaySource",
    "SCENARIOS",
    "Trace",
    "TraceHeader",
    "TraceMutator",
    "TraceReader",
    "normalize_alerts",
    "record_scenario",
    "save_trace",
]
