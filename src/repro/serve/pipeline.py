"""One stream's monitoring pipeline: admission model + streaming replay.

A :class:`StreamPipeline` is the unit the service demultiplexes into:
its own :class:`~repro.replay.source.ReplaySource` (fresh engine,
fan-out, auditing container, per-stream RHC liveness channel) fed
record-by-record through the deterministic
:class:`~repro.serve.admission.AdmissionModel`.  Streams share nothing,
so the asyncio interleaving of connections cannot influence any
stream's verdicts or metrics; merged exports are assembled in
stream-id order at the end.

:func:`run_stream_spec` is the picklable whole-stream entry point the
service hands to :func:`repro.parallel.parallel_map` when sharding
across workers — the same code path as inline feeding, so results are
identical at any job count.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import TraceFormatError
from repro.obs.metrics import Histogram, MetricsRegistry, merge_snapshots
from repro.obs.report import export_lines
from repro.replay.format import KIND_EVENT, Trace, TraceHeader
from repro.replay.recorder import auditors_for
from repro.replay.source import ReplaySource
from repro.serve.admission import (
    DEFAULT_MAX_WAIT_NS,
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_SERVICE_NS,
    POLICIES,
    AdmissionDecision,
    AdmissionModel,
)
from repro.sim.clock import SECOND

#: The ``stage`` label on serve-side drop accounting.
SERVE_STAGE = "serve-admission"

#: Liveness: a stream pipeline that goes silent for this long (virtual
#: time) raises an RHC channel alert, mirroring live-container liveness.
DEFAULT_RHC_TIMEOUT_NS = 5 * SECOND


@dataclass(frozen=True)
class StreamConfig:
    """Admission knobs for one stream (wire-transportable)."""

    queue_limit: int = DEFAULT_QUEUE_LIMIT
    service_ns: int = DEFAULT_SERVICE_NS
    max_wait_ns: int = DEFAULT_MAX_WAIT_NS
    policy: str = "pace"
    rhc_timeout_ns: Optional[int] = DEFAULT_RHC_TIMEOUT_NS

    def to_payload(self) -> Dict[str, Any]:
        return {
            "queue_limit": self.queue_limit,
            "service_ns": self.service_ns,
            "max_wait_ns": self.max_wait_ns,
            "policy": self.policy,
            "rhc_timeout_ns": self.rhc_timeout_ns,
        }

    @staticmethod
    def from_payload(payload: Optional[Dict[str, Any]]) -> "StreamConfig":
        if not payload:
            return StreamConfig()
        if not isinstance(payload, dict):
            raise TraceFormatError(f"stream config must be a dict: {payload!r}")
        unknown = set(payload) - {
            "queue_limit",
            "service_ns",
            "max_wait_ns",
            "policy",
            "rhc_timeout_ns",
        }
        if unknown:
            raise TraceFormatError(
                f"unknown stream config keys: {sorted(unknown)}"
            )
        for key, value in payload.items():
            if key == "policy" or (key == "rhc_timeout_ns" and value is None):
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise TraceFormatError(
                    f"stream config {key} must be an int, got {value!r}"
                )
            # The ranges AdmissionModel enforces, checked at the wire.
            if key in ("queue_limit", "service_ns") and value < 1:
                raise TraceFormatError(
                    f"stream config {key} must be >= 1, got {value}"
                )
        config = StreamConfig(**payload)
        if config.policy not in POLICIES:
            raise TraceFormatError(f"unknown policy {config.policy!r}")
        return config


@dataclass
class StreamResult:
    """What one closed stream produced (JSON-safe)."""

    stream: str
    scenario: str
    offered: int
    admitted: int
    dropped: Dict[str, int]
    rejected: int
    scans: int
    slowdowns: int
    events_replayed: int
    verdicts: List[dict]
    reproduced: Optional[bool]
    latency: Dict[str, Optional[int]]
    rhc_alarmed: bool
    stalled_channels: List[str]
    stalled_flows: List[str]
    container_failed: bool
    snapshot: Dict[str, Any] = field(repr=False, default_factory=dict)

    def verdict_payload(self) -> Dict[str, Any]:
        """The ``verdict`` frame body (everything but the snapshot)."""
        return {
            "stream": self.stream,
            "scenario": self.scenario,
            "offered": self.offered,
            "admitted": self.admitted,
            "dropped": dict(self.dropped),
            "rejected": self.rejected,
            "scans": self.scans,
            "slowdowns": self.slowdowns,
            "events_replayed": self.events_replayed,
            "verdicts": self.verdicts,
            "reproduced": self.reproduced,
            "latency": dict(self.latency),
            "rhc": {
                "alarmed": self.rhc_alarmed,
                "stalled_channels": self.stalled_channels,
                "stalled_flows": self.stalled_flows,
            },
            "container_failed": self.container_failed,
        }


def _latency_summary(hist: Histogram) -> Dict[str, Optional[int]]:
    return {
        "count": hist.count,
        "p50_ns": hist.percentile(0.50),
        "p99_ns": hist.percentile(0.99),
        "max_ns": hist.max,
    }


class StreamPipeline:
    """Admission-controlled streaming replay for one stream id."""

    def __init__(
        self,
        stream_id: str,
        header: TraceHeader,
        config: Optional[StreamConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.stream_id = str(stream_id)
        self.config = config if config is not None else StreamConfig()
        #: The stream adopts the producer's header but its own identity:
        #: every metric row and alert is labelled by stream id, so
        #: merged exports stay per-stream attributable.
        self.header = copy.deepcopy(header)
        self.header.vm_id = self.stream_id
        self.registry = registry if registry is not None else MetricsRegistry()
        trace = Trace(header=self.header, records=[])
        self.source = ReplaySource(
            trace,
            auditors_for(trace),
            rhc_timeout_ns=self.config.rhc_timeout_ns,
            metrics=self.registry,
        )
        rhc = self.source.rhc
        if rhc is not None:
            rhc.watch(self.stream_id)
            self.source.container.liveness = rhc
            registry_ref = self.registry
            stream_id_ref = self.stream_id
            rhc.watch_flow(
                f"stream:{self.stream_id}",
                lambda: registry_ref.total("flow.published", vm=stream_id_ref),
            )
        self.admission = AdmissionModel(
            queue_limit=self.config.queue_limit,
            service_ns=self.config.service_ns,
            max_wait_ns=self.config.max_wait_ns,
            policy=self.config.policy,
        )
        # Cached metric cells; drop reasons are spelled as literals so
        # the event-coverage static rule can cross-check them against
        # repro.obs.metrics.DROP_REASONS.
        self._admitted_cell = self.registry.counter(
            "serve.admitted", vm=self.stream_id
        )
        self._slowdown_cell = self.registry.counter(
            "serve.slowdowns", vm=self.stream_id
        )
        self._drop_cells = {
            "backpressure": self.registry.counter(
                "flow.dropped",
                vm=self.stream_id,
                stage=SERVE_STAGE,
                reason="backpressure",
            ),
            "overflow": self.registry.counter(
                "flow.dropped",
                vm=self.stream_id,
                stage=SERVE_STAGE,
                reason="overflow",
            ),
        }
        self._wait_hist = self.registry.histogram(
            "serve.queue_wait_ns", vm=self.stream_id
        )
        self._latency_hist = self.registry.histogram(
            "serve.latency.exit_to_verdict_ns", vm=self.stream_id
        )
        self.offered = 0
        self.scans = 0
        self._last_arrival_ns = self.header.start_ns
        self.closed = False
        self.source.stream_begin()

    # ------------------------------------------------------------------
    def feed(
        self, record: Any, arrival_ns: Optional[int] = None
    ) -> Optional[AdmissionDecision]:
        """Offer one record; returns the admission decision.

        Non-event records (scan markers) bypass admission — they are
        rare harness markers, not guest event traffic — and return
        ``None``.  The default arrival time is the record's own event
        timestamp; the load generator stamps explicit (seeded) arrivals
        instead.  Arrivals are clamped non-decreasing so a malformed
        timestamp cannot rewind the queue model.
        """
        if self.closed:
            raise TraceFormatError(
                f"stream {self.stream_id!r} already closed"
            )
        if isinstance(record, dict) and record.get("kind", KIND_EVENT) != KIND_EVENT:
            self.scans += 1
            self.source.stream_feed(record)
            return None
        self.offered += 1
        if arrival_ns is None:
            t = record.get("t") if isinstance(record, dict) else None
            arrival_ns = t if isinstance(t, int) else self._last_arrival_ns
        arrival_ns = max(int(arrival_ns), self._last_arrival_ns)
        self._last_arrival_ns = arrival_ns
        decision = self.admission.arrive(arrival_ns)
        if decision.slowdown:
            self._slowdown_cell.inc()
        if not decision.admitted:
            self._drop_cells[decision.reason].inc()
            return decision
        self._admitted_cell.inc()
        self._wait_hist.observe(decision.wait_ns)
        self._latency_hist.observe(decision.latency_ns)
        self.source.stream_feed(record)
        return decision

    def close(self, end_ns: Optional[int] = None) -> StreamResult:
        """Finish the stream: tail silence, verdicts, SLO summary."""
        if self.closed:
            raise TraceFormatError(f"stream {self.stream_id!r} already closed")
        self.closed = True
        report = self.source.stream_end(end_ns)
        dropped = {
            "backpressure": self.admission.dropped_backpressure,
            "overflow": self.admission.dropped_overflow,
        }
        live_verdicts = self.header.meta.get("live_verdicts")
        reproduced: Optional[bool] = None
        if (
            live_verdicts is not None
            and self.admission.dropped == 0
            and report.events_rejected == 0
        ):
            # Only a lossless stream is comparable against the recorded
            # live run; with drops, divergence is explained load
            # shedding, not a reproduction failure.
            reproduced = report.verdicts == live_verdicts
        rhc = self.source.rhc
        return StreamResult(
            stream=self.stream_id,
            scenario=self.header.scenario,
            offered=self.offered,
            admitted=self.admission.admitted,
            dropped=dropped,
            rejected=report.events_rejected,
            scans=report.scans_run,
            slowdowns=self._slowdown_cell.value,
            events_replayed=report.events_replayed,
            verdicts=report.verdicts,
            reproduced=reproduced,
            latency=_latency_summary(self._latency_hist),
            rhc_alarmed=report.rhc_alarmed,
            stalled_channels=sorted(rhc.stalled_channels) if rhc else [],
            stalled_flows=sorted(rhc.stalled_flows) if rhc else [],
            container_failed=report.container_failed,
            snapshot=self.registry.snapshot(),
        )


# ======================================================================
# Whole-stream task (the parallel_map shard unit)
# ======================================================================
def run_stream_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one buffered stream start to finish; picklable.

    ``spec``: ``{"stream", "header" (header record), "records",
    "arrivals" (optional, parallel to records), "end_ns" (optional),
    "config" (optional payload)}``.  Returns ``{"payload", "snapshot"}``
    — exactly what inline feeding produces, so the service's sharded
    and unsharded paths are interchangeable.
    """
    header = TraceHeader.from_record(spec["header"])
    pipeline = StreamPipeline(
        spec["stream"],
        header,
        config=StreamConfig.from_payload(spec.get("config")),
    )
    arrivals = spec.get("arrivals")
    for i, record in enumerate(spec["records"]):
        arrival = None
        if arrivals is not None and i < len(arrivals):
            arrival = arrivals[i]
        pipeline.feed(record, arrival)
    result = pipeline.close(spec.get("end_ns"))
    return {"payload": result.verdict_payload(), "snapshot": result.snapshot}


def merged_export_lines(
    snapshots: Dict[str, Dict[str, Any]], scope: str = "pipeline"
) -> List[str]:
    """Canonical JSONL export of many per-stream snapshots.

    Merged in sorted stream-id order — *never* completion order — so
    the export is independent of transport interleaving and job count.
    """
    merged = merge_snapshots(
        snapshots[stream] for stream in sorted(snapshots)
    )
    return export_lines(merged.snapshot(), scope=scope)
