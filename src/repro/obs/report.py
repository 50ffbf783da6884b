"""Registry collection and deterministic JSONL export.

The export format is one JSON object per line, ``sort_keys`` encoded,
rows in the registry's canonical order:

* ``{"kind": "counter", "name": ..., "labels": {...}, "value": N}``
* ``{"kind": "hist", "name": ..., "labels": {...}, "count": N,
  "sum": N, "min": N, "max": N, "buckets": [...]}``
* ``{"kind": "span", "trace": "vm:seq", "vm": ..., "type": ...,
  "t": N, "hops": [...]}``

Because every number is virtual-clock-derived, the same (scenario,
seed) produces byte-identical exports live, replayed from its trace,
and merged across any ``REPRO_JOBS`` fan-out — which is what makes
``repro.obs diff`` a triage tool rather than a noise generator.  The
one live-only span field, the host-hop ``host`` key, is stripped from
every scope except ``all`` to keep that identity.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import TraceFormatError
from repro.obs.metrics import (
    MetricsRegistry,
    merge_snapshots,
    metric_scope,
)

_encode = json.JSONEncoder(sort_keys=True).encode


# ======================================================================
# Export
# ======================================================================
def export_lines(
    snapshot: Dict[str, Any], scope: str = "pipeline"
) -> List[str]:
    """Render a registry snapshot as canonical JSONL lines."""
    want_host = scope in ("host", "all")
    want_pipeline = scope in ("pipeline", "all")

    def wanted(name: str) -> bool:
        return want_host if metric_scope(name) == "host" else want_pipeline

    lines: List[str] = []
    for name, labels, value in snapshot.get("counters", ()):
        if wanted(name):
            lines.append(
                _encode(
                    {
                        "kind": "counter",
                        "name": name,
                        "labels": labels,
                        "value": value,
                    }
                )
            )
    for name, labels, data in snapshot.get("histograms", ()):
        if wanted(name):
            lines.append(
                _encode(
                    {"kind": "hist", "name": name, "labels": labels, **data}
                )
            )
    if want_pipeline:
        for span in snapshot.get("spans", ()):
            if scope != "all" and "host" in span:
                span = {k: v for k, v in span.items() if k != "host"}
            lines.append(_encode({"kind": "span", **span}))
    return lines


# ======================================================================
# Collection: live run, trace replay, seed fan-out
# ======================================================================
def collect_live(scenario: str, seed: int = 0) -> Dict[str, Any]:
    """Run a scenario live and return its registry snapshot."""
    from repro.replay.recorder import record_scenario

    return record_scenario(scenario, seed=seed).metrics


def collect_replay(
    trace: Any, span_sink: Any = None, registry: Optional[MetricsRegistry] = None
) -> Dict[str, Any]:
    """Replay a trace through fresh scenario auditors; snapshot.

    ``span_sink`` (a callable) streams every completed span past the
    registry's ring bound — the full-fidelity capture the trace
    exporter uses.  ``registry`` may already hold rows (the load's
    salvage counts); a fresh one is used otherwise.
    """
    from repro.replay.source import ReplaySource
    from repro.replay.recorder import auditors_for

    if registry is None:
        registry = MetricsRegistry()
    if span_sink is not None:
        registry.set_span_sink(span_sink)
    ReplaySource(trace, auditors_for(trace), metrics=registry).run()
    return registry.snapshot()


def load_trace_observed(
    path: str, registry: MetricsRegistry, data: Optional[bytes] = None
):
    """Load a trace, counting stream truncation instead of raising.

    ``path`` and ``data`` are read as
    :func:`~repro.replay.btrace.load_any_trace` reads them, and the
    trace holds the same body items.  A cut in the stream normally
    raises :class:`TraceFormatError`; here the items before the cut
    are returned and the registry shows exactly where the stream ended:

    * ``trace.records_salvaged{vm}`` — body items recovered before the cut
    * ``flow.dropped{vm, stage=trace-read, reason=truncated-stream}``

    A record that is damaged but framed (a JSONL line that is not JSON,
    a btrace reference that does not resolve) is no cut: it stays in
    the body for replay to count as a ``decode`` rejection.  Open
    errors still raise: a btrace without its trailer is unreadable by
    construction (the interning tables live at EOF), like a JSONL
    trace without a readable header.
    """
    from repro.replay.btrace import load_any_trace

    def salvage(trace) -> None:
        vm_id = trace.header.vm_id
        registry.inc("trace.records_salvaged", n=len(trace.body), vm=vm_id)
        registry.inc(
            "flow.dropped", vm=vm_id, stage="trace-read", reason="truncated-stream"
        )

    return load_any_trace(path, data, on_cut=salvage)


def collect_trace(
    path: str, span_sink: Any = None, data: Optional[bytes] = None
) -> Dict[str, Any]:
    """Replay a trace, read as :func:`load_trace_observed` reads it
    (``-`` reads stdin); truncation becomes counted drops.
    ``span_sink`` streams completed spans past the ring bound (see
    :func:`collect_replay`).
    """
    registry = MetricsRegistry()
    trace = load_trace_observed(path, registry, data)
    return collect_replay(trace, span_sink, registry)


def _collect_task(task: Tuple[str, int, str]) -> Dict[str, Any]:
    """Picklable per-seed entry point for the parallel executor."""
    scenario, seed, source = task
    if source == "live":
        return collect_live(scenario, seed=seed)
    from repro.replay.recorder import record_scenario

    return collect_replay(record_scenario(scenario, seed=seed).trace)


def collect_seeds(
    scenario: str,
    seeds: Iterable[int],
    source: str = "replay",
    jobs: Optional[int] = None,
) -> Dict[str, Any]:
    """Collect one registry per seed and merge them **in seed order**.

    The fan-out runs through :func:`repro.parallel.parallel_map`, whose
    indexed merge makes the result byte-identical at any job count.
    """
    from repro.parallel import parallel_map

    tasks = [(scenario, int(seed), source) for seed in seeds]
    snapshots = parallel_map(_collect_task, tasks, jobs=jobs)
    return merge_snapshots(snapshots).snapshot()


# ======================================================================
# Parsing exports back (top / diff)
# ======================================================================
def parse_export(lines: Iterable[str]) -> List[Dict[str, Any]]:
    rows = []
    for n, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"bad export line {n}: {exc}") from exc
        if not isinstance(row, dict) or "kind" not in row:
            raise TraceFormatError(f"bad export line {n}: not a metric row")
        rows.append(row)
    return rows


def _export_text(data: bytes, name: str) -> Optional[str]:
    """The text of ``data`` when it holds a metrics export: JSONL,
    gzipped or not, whose first non-blank line is no trace header.
    ``None`` for anything else, which is then read as a trace (and a
    stream broken before its first line reported by the trace reader)."""
    from repro.replay.btrace import is_btrace_bytes
    from repro.replay.trace_io import _STREAM_ERRORS, text_stream

    if is_btrace_bytes(data):
        return None
    stream = text_stream(data)
    try:
        first = next((line for line in stream if line.strip()), "")
    except _STREAM_ERRORS:
        return None
    try:
        record = json.loads(first) if first else {}
    except json.JSONDecodeError:
        record = {}
    if isinstance(record, dict) and record.get("kind") == "header":
        return None
    try:
        return first + stream.read()
    except _STREAM_ERRORS as exc:
        raise TraceFormatError(
            f"{name}: corrupt or truncated export: {exc}"
        ) from exc


def rows_for_path(path: str, scope: str = "pipeline") -> List[Dict[str, Any]]:
    """Metric rows for a path that is either an export or a trace.

    Sniffing is by content: a trace is btrace, or JSONL that starts
    with its in-band header record; an export starts with a
    ``counter``/``hist``/``span`` row.  A trace is replayed (through
    :func:`collect_trace`) to produce its rows.  ``-`` reads whichever
    of the two stdin holds (once — at most one argument per invocation
    can be ``-``).
    """
    from repro.replay.trace_io import STDIN_NAME, read_input

    data = read_input(path)
    text = _export_text(data, STDIN_NAME if path == "-" else path)
    if text is not None:
        return parse_export(text.splitlines())
    snapshot = collect_trace(path, data=data)
    return parse_export(export_lines(snapshot, scope=scope))


def _row_key(row: Dict[str, Any]) -> str:
    if row.get("kind") == "span":
        return _encode(
            {"kind": "span", "trace": row.get("trace"), "vm": row.get("vm"),
             "type": row.get("type"), "t": row.get("t")}
        )
    return _encode(
        {"kind": row.get("kind"), "name": row.get("name"),
         "labels": row.get("labels", {})}
    )


def diff_rows(
    a: List[Dict[str, Any]], b: List[Dict[str, Any]]
) -> List[str]:
    """Human-readable differences between two exports; empty = equal."""
    a_map = {_row_key(row): row for row in a}
    b_map = {_row_key(row): row for row in b}
    out: List[str] = []
    for key in sorted(set(a_map) | set(b_map)):
        left = a_map.get(key)
        right = b_map.get(key)
        if left == right:
            continue
        if left is None:
            out.append(f"only in B: {_encode(right)}")
        elif right is None:
            out.append(f"only in A: {_encode(left)}")
        else:
            out.append(f"changed: {key}\n  A: {_encode(left)}\n  B: {_encode(right)}")
    return out


def top_rows(
    rows: List[Dict[str, Any]], limit: int = 10
) -> List[Tuple[int, str]]:
    """The ``limit`` largest counter rows as ``(value, label)`` pairs."""
    counters = [row for row in rows if row.get("kind") == "counter"]
    counters.sort(
        key=lambda row: (-int(row.get("value", 0)), _row_key(row))
    )
    out = []
    for row in counters[:limit]:
        labels = row.get("labels", {})
        rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        out.append((int(row.get("value", 0)), f"{row['name']}{{{rendered}}}"))
    return out
