"""repro.obs — deterministic pipeline telemetry.

Counters, fixed-bucket histograms and event-flow spans for the
EF -> EM -> auditor pipeline, all keyed to the virtual clock so the
same (scenario, seed) yields byte-identical exports live, replayed,
and at any ``REPRO_JOBS``.  See ``python -m repro.obs --help`` for the
report / top / diff CLI and DESIGN.md §5f for the determinism
argument.
"""

from repro.obs.metrics import (
    BUCKET_BOUNDS_NS,
    INFRA_AUDITORS,
    STAGE_COUNTER_LABELS,
    Counter,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    metric_scope,
)
from repro.obs.report import (
    collect_live,
    collect_replay,
    collect_seeds,
    collect_trace,
    diff_rows,
    export_lines,
    load_trace_observed,
    parse_export,
    rows_for_path,
    top_rows,
)

__all__ = [
    "BUCKET_BOUNDS_NS",
    "Counter",
    "Histogram",
    "INFRA_AUDITORS",
    "MetricsRegistry",
    "STAGE_COUNTER_LABELS",
    "collect_live",
    "collect_replay",
    "collect_seeds",
    "collect_trace",
    "diff_rows",
    "export_lines",
    "load_trace_observed",
    "merge_snapshots",
    "metric_scope",
    "parse_export",
    "rows_for_path",
    "top_rows",
]
