"""Deterministic pipeline metrics: counters, histograms, flow spans.

HyperTap monitors guest VMs; ``repro.obs`` monitors HyperTap.  A
:class:`MetricsRegistry` rides along the whole EF -> EM -> auditor
pipeline and counts what each hop saw — VM exits per reason, events
forwarded/suppressed/delivered/dropped, verdicts, and the
exit-to-verdict latency the paper reports as detection latency.

Everything here is keyed to the **virtual clock**: no wall time, no
ambient entropy, no process identity.  That is what makes a registry a
*reproducible artifact* rather than a profiler dump — the same
(scenario, seed) yields byte-identical exports live, replayed, and at
any ``REPRO_JOBS`` (the static determinism rule enforces the time-source
confinement; see ``repro.analysis.rules.determinism``).

Scopes
------
Metric names are partitioned into two scopes:

* ``host`` — hypervisor-side hops that only exist live: raw exit
  dispatch (``exits``), the Event Forwarder (``ef.*``), the Event
  Multiplexer (``em.*``) and heartbeat sampling (``heartbeat.*``);
* ``pipeline`` — the derived-event flow both the live channel and
  ``repro.replay`` drive: ``flow.*``, ``verdicts``, ``latency.*`` and
  ``trace.*``.

The default export covers the pipeline scope only, which is exactly the
slice where a trace replay must reproduce the live run bit-for-bit.

Causal tracing
--------------
Every published event opens a *span*: a trace id minted from
``(vm, seq)`` in publish order, plus one hop per pipeline stage
(``deliver`` per auditor, ``verdict`` per alert) — all timestamped by
the virtual clock, so the same trace replays to byte-identical spans.
The in-registry ring is bounded by ``span_limit``; spans past the
bound are **accounted** under ``trace.spans_dropped{reason=ring-full}``
(never silently lost), and an optional streaming *span sink*
(:meth:`MetricsRegistry.set_span_sink`) receives every completed span
regardless of the ring bound — that is what ``repro.obs trace`` uses
for full exports.  Live-only host-side context (exit/EF/EM hops) rides
in a ``host`` key that the pipeline-scope export strips, preserving
live-vs-replay identity.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.events import EventType
from repro.sim.clock import MICROSECOND, MILLISECOND, SECOND

#: Fixed histogram bucket upper bounds (ns).  Fixed — never derived from
#: the data — so two registries always merge bucket-for-bucket.
BUCKET_BOUNDS_NS: Tuple[int, ...] = (
    1 * MICROSECOND,
    10 * MICROSECOND,
    100 * MICROSECOND,
    1 * MILLISECOND,
    10 * MILLISECOND,
    100 * MILLISECOND,
    1 * SECOND,
    10 * SECOND,
)

#: Infrastructure subscribers (the trace recorder, the fuzzer's
#: coverage probe) are excluded from flow accounting: they ride the
#: fan-out for the harness, not as monitors, and counting them would
#: break live-vs-replay metric identity (replay has no recorder).
INFRA_AUDITORS = frozenset(
    {"replay-recorder", "trace-recorder", "coverage-probe"}
)

#: The stage counter under which every event type is accounted when the
#: unified channel (or a replay source) publishes it.  The
#: event-coverage static rule cross-checks this table against the
#: ``EventType`` enum: an event type missing here would flow through
#: the pipeline without observability, which is how silent drops hide.
STAGE_COUNTER_LABELS: Dict[EventType, str] = {
    EventType.PROCESS_SWITCH: "flow.published",
    EventType.THREAD_SWITCH: "flow.published",
    EventType.SYSCALL: "flow.published",
    EventType.IO: "flow.published",
    EventType.MEM_ACCESS: "flow.published",
    EventType.TSS_INTEGRITY: "flow.published",
    EventType.RAW_EXIT: "flow.published",
}

#: Every ``reason`` label a ``flow.dropped`` increment may carry.  The
#: event-coverage static rule cross-checks this set against the call
#: sites: a drop reason minted ad hoc would fragment triage queries
#: (``obs diff`` keys on exact label rows) and dodge the accounting
#: identity ``delivered + dropped + rejected == published`` that the
#: serve smoke job asserts.
DROP_REASONS = frozenset(
    {
        "crash",
        "quarantined",
        "truncated-stream",
        "backpressure",
        "overflow",
    }
)

#: Every ``reason`` label a ``flow.rejected`` increment may carry.
#: Rejections are the replay decoder's malformed-input bucket; the
#: ``flow.span-pairing`` rule checks each ``flow.rejected`` call site —
#: including ones that forward a reason through a helper like
#: ``ReplaySource._reject`` — against this set, for the same
#: accounting-identity reasons as :data:`DROP_REASONS`.
REJECT_REASONS = frozenset(
    {
        "not-a-record",
        "unknown-kind",
        "decode",
        "bad-scan",
    }
)

#: Every ``reason`` label a ``trace.spans_dropped`` increment may
#: carry: ``ring-full`` (a span past the in-registry ring bound —
#: streamed to the sink when one is attached, dropped otherwise) and
#: ``merge`` (a snapshot span truncated while folding parallel shards).
TRACE_DROP_REASONS = frozenset({"ring-full", "merge"})

#: Name prefixes belonging to the hypervisor-side (live-only) scope.
#: ``transport.`` covers the serve socket layer: bytes/frames/credits
#: are wall-clock-paced and may legitimately differ run to run, so they
#: must not pollute the reproducible pipeline export.
_HOST_PREFIXES = ("exits", "ef.", "em.", "heartbeat.", "transport.")

SCOPES = ("pipeline", "host", "all")


def metric_scope(name: str) -> str:
    """``host`` for hypervisor-side hops, ``pipeline`` for the rest."""
    for prefix in _HOST_PREFIXES:
        if name == prefix or name.startswith(prefix):
            return "host"
    return "pipeline"


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    """Canonical, sortable label identity (values coerced to str)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """One mutable counter cell; holders cache the handle off hot paths."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Fixed-bucket integer histogram (count/sum/min/max + buckets)."""

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        #: One cell per bound plus the overflow cell.
        self.buckets = [0] * (len(BUCKET_BOUNDS_NS) + 1)

    def observe(self, value: int) -> None:
        value = int(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(BUCKET_BOUNDS_NS):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[int]:
        """The ``q``-quantile resolved to a bucket upper bound (ns).

        Returns the smallest bucket bound whose cumulative count covers
        ``ceil(q * count)`` observations, clamped to the recorded
        ``[min, max]`` range; ``None`` when the histogram is empty.
        Because buckets are fixed and summation is commutative, the
        result is identical however per-stream histograms were merged —
        which is what lets a p99 land in the performance ledger as an
        exact-compare column.
        """
        if not self.count:
            return None
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for i, bound in enumerate(BUCKET_BOUNDS_NS):
            cumulative += self.buckets[i]
            if cumulative >= target:
                value = bound
                if self.max is not None:
                    value = min(value, self.max)
                if self.min is not None:
                    value = max(value, self.min)
                return value
        # Overflow bucket: every bound is exceeded; the max is the best
        # (and only deterministic) upper estimate.
        return self.max


class MetricsRegistry:
    """Counter/histogram/span store for one pipeline run.

    Instances are cheap and private to a run (a testbed, a replay
    source, one fuzz iteration); cross-run aggregation goes through
    :meth:`snapshot` + :meth:`merge`, always in a caller-fixed order
    (grid index, seed order) so parallel fan-out cannot reorder it.
    """

    def __init__(self, span_limit: int = 64, tracing: bool = True) -> None:
        self._counters: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Counter] = {}
        self._histograms: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Histogram] = {}
        self.span_limit = int(span_limit)
        #: Span capture switch; ``False`` turns every span/host-hop
        #: method into a no-op (the "tracing off" side of the
        #: ``trace_overhead_pct`` ledger column).
        self.tracing = bool(tracing)
        #: Captured event-flow spans, in publish order (bounded).
        self.spans: List[Dict[str, Any]] = []
        self._open_span: Optional[Dict[str, Any]] = None
        #: Per-VM hot state, ``vm -> [next_seq, ring_full_drop_cell]``.
        #: The seq advances on every publish (captured or not) so trace
        #: ids are stable under any bound; the cached drop cell makes
        #: the steady-state path one dict lookup + two increments.  The
        #: cell is ``None`` until the first ring-full drop for that VM.
        self._span_hot: Dict[str, List[Any]] = {}
        #: Streaming receiver for every *completed* span (ring-bound
        #: exempt); attached by the trace exporter, absent on hot paths.
        self._span_sink: Optional[Callable[[Dict[str, Any]], None]] = None
        #: Cached ``trace.spans_dropped`` cells, keyed (vm, reason).
        self._trace_drop_cells: Dict[Tuple[str, str], Counter] = {}
        #: True once the ring is at capacity (it only ever grows), so
        #: the steady-state path is one attribute check, not a len().
        self._ring_full = self.span_limit <= 0
        #: The combined steady-state predicate — tracing on, ring full,
        #: no sink — folded into one flag so ``span_begin`` pays one
        #: attribute check per publish; re-derived at every transition
        #: (ring fill, sink attach/detach).
        self._discarding = self.tracing and self._ring_full
        #: Reusable open-span buffer for the steady state (ring full,
        #: no sink): the span must still *open* — verdicts raised during
        #: its delivery land on it instead of minting spurious timer
        #: spans — but nothing retains it, so one cleared buffer avoids
        #: a per-event dict build on the hot path.
        self._discard_hops: List[List[Any]] = []
        self._discard_span: Dict[str, Any] = {"hops": self._discard_hops}
        #: Pending live-only host hops (exit/EF/EM), copied into the
        #: next span opened for the exit's derived events.
        self._host_hops: List[List[Any]] = []

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter cell for ``(name, labels)``; created on demand.

        Hot paths should call this once and keep the returned handle —
        ``handle.inc()`` is then a single integer add.
        """
        key = (name, _label_key(labels))
        cell = self._counters.get(key)
        if cell is None:
            cell = Counter()
            self._counters[key] = cell
        return cell

    def inc(self, name: str, n: int = 1, **labels: Any) -> None:
        self.counter(name, **labels).value += n

    def value(self, name: str, **labels: Any) -> int:
        """Exact-row read; 0 when the row does not exist."""
        cell = self._counters.get((name, _label_key(labels)))
        return cell.value if cell is not None else 0

    def total(self, name: str, **labels: Any) -> int:
        """Sum of every ``name`` row whose labels include ``labels``."""
        want = set(_label_key(labels))
        out = 0
        for (row_name, row_labels), cell in self._counters.items():
            if row_name == name and want <= set(row_labels):
                out += cell.value
        return out

    def rows(self, name: Optional[str] = None) -> List[Tuple[str, Dict[str, str], int]]:
        """Sorted ``(name, labels, value)`` counter rows."""
        out = [
            (row_name, dict(row_labels), cell.value)
            for (row_name, row_labels), cell in self._counters.items()
        ]
        out.sort(key=lambda row: (row[0], sorted(row[1].items())))
        if name is not None:
            out = [row for row in out if row[0] == name]
        return out

    def reset(self, name_prefix: Optional[str] = None, **labels: Any) -> int:
        """Drop rows whose labels include ``labels`` (and, when given,
        whose name starts with ``name_prefix``).

        Returns the number of rows removed.  This is how a long-lived
        host component (the Event Multiplexer) starts a re-attached VM
        from zero instead of leaking the previous run's counts — the
        prefix confines the reset to that component's own rows, leaving
        cached handles held by unrelated components live.
        """
        want = set(_label_key(labels))
        removed = 0
        for store in (self._counters, self._histograms):
            stale = [
                key
                for key in store
                if want <= set(key[1])
                and (name_prefix is None or key[0].startswith(name_prefix))
            ]
            for key in stale:
                del store[key]
                removed += 1
        if removed and (name_prefix is None or "trace.".startswith(name_prefix)
                        or name_prefix.startswith("trace.")):
            # Cached drop-cell handles would keep counting into detached
            # cells after their rows were removed; re-resolve lazily.
            # (Trace seqs survive a counter reset — trace ids must stay
            # monotone for the registry's lifetime.)
            self._trace_drop_cells.clear()
            for hot in self._span_hot.values():
                hot[1] = None
        return removed

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------
    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            hist = Histogram()
            self._histograms[key] = hist
        return hist

    def observe(self, name: str, value: int, **labels: Any) -> None:
        self.histogram(name, **labels).observe(value)

    def histogram_rows(self) -> List[Tuple[str, Dict[str, str], Histogram]]:
        out = [
            (row_name, dict(row_labels), hist)
            for (row_name, row_labels), hist in self._histograms.items()
        ]
        out.sort(key=lambda row: (row[0], sorted(row[1].items())))
        return out

    # ------------------------------------------------------------------
    # Flow spans (causal tracing)
    # ------------------------------------------------------------------
    def set_span_sink(
        self, sink: Optional[Callable[[Dict[str, Any]], None]]
    ) -> None:
        """Stream every *completed* span to ``sink`` (``None`` detaches).

        The sink sees spans past the ring bound too — it is the
        full-fidelity path ``repro.obs trace`` exports from — while the
        in-registry ring (and the ``trace.spans_dropped`` accounting)
        stays byte-identical whether or not a sink is attached.
        """
        self._span_sink = sink
        self._discarding = (
            self.tracing and self._ring_full and sink is None
        )

    def _ring_append(self, span: Dict[str, Any]) -> None:
        """Append to the ring, flipping the steady-state flags at the cap."""
        self.spans.append(span)
        if len(self.spans) >= self.span_limit:
            self._ring_full = True
            self._discarding = self.tracing and self._span_sink is None

    def _count_span_drop(self, vm: str, reason: str) -> None:
        cell = self._trace_drop_cells.get((vm, reason))
        if cell is None:
            cell = self.counter("trace.spans_dropped", vm=vm, reason=reason)
            self._trace_drop_cells[(vm, reason)] = cell
        cell.value += 1

    def span_begin(self, event: Any, vm: Optional[str] = None) -> None:
        """Open a span following one published event through the hops.

        Every publish mints a trace id ``vm:seq`` in publish order —
        identical live and replayed.  The in-registry ring is bounded
        by ``span_limit``; a span past the bound is counted under
        ``trace.spans_dropped{reason=ring-full}`` and still streamed to
        the sink when one is attached (never silently lost).

        ``vm`` is the *publisher's* identity (the fanout's vm id), which
        the serve pipeline overrides per stream — so span rows and drop
        counters stay attributable to the serving stream even when every
        producer recorded under the same vm id.  Defaults to the event's
        own vm for callers without a fanout identity.
        """
        if vm is None:
            vm = event.vm_id
        if self._discarding:
            # Steady state (ring full, nobody listening): the span
            # still *opens* — verdicts raised during its delivery must
            # land on it, not mint spurious timer spans — but nothing
            # will retain it, so reuse the discard buffer instead of
            # building a dict per event.  Only rare verdict hops land
            # on it (span_hop skips it), so the clear almost never has
            # work to do.  One dict lookup + two increments per event;
            # a VM not seen before (hot miss) takes the slow path once.
            hot = self._span_hot.get(vm)
            if hot is not None and hot[1] is not None:
                hot[0] += 1
                hot[1].value += 1
                hops = self._discard_hops
                if hops:
                    hops.clear()
                self._open_span = self._discard_span
                return
        if not self.tracing:
            self._open_span = None
            return
        hot = self._span_hot.get(vm)
        if hot is None:
            hot = self._span_hot[vm] = [0, None]
        seq = hot[0]
        hot[0] = seq + 1
        ring_ok = not self._ring_full
        if not ring_ok:
            cell = hot[1]
            if cell is None:
                cell = hot[1] = self.counter(
                    "trace.spans_dropped", vm=vm, reason="ring-full"
                )
            cell.value += 1
        span: Dict[str, Any] = {
            "vm": vm,
            "type": event.type.value,
            "t": event.time_ns,
            "trace": f"{vm}:{seq}",
            "hops": [],
        }
        if self._host_hops:
            span["host"] = list(self._host_hops)
        if ring_ok:
            self._ring_append(span)
        self._open_span = span

    def span_hop(self, stage: str, t_ns: int, *detail: Any) -> None:
        """Append one hop to the currently open span (if any).

        Hops onto the discard buffer are skipped — nothing retains it,
        so building the hop row would be pure steady-state overhead.
        (Verdict hops, which carry accounting semantics, still land on
        it via :meth:`span_verdict`.)
        """
        span = self._open_span
        if span is not None and span is not self._discard_span:
            span["hops"].append([stage, int(t_ns), *detail])

    def span_verdict(
        self,
        vm: str,
        t_ns: int,
        auditor: str,
        kind: str,
        start_ns: Optional[int] = None,
    ) -> None:
        """Record a verdict hop, synthesizing a root span if none is open.

        Event-driven verdicts land on the span the publishing stage
        opened.  Timer-driven verdicts (watchdog expiries) fire outside
        any publish, so this mints a complete ``type="timer"`` root
        span — consuming a trace seq in timer order, which is identical
        live and replayed — keeping the invariant that *every* verdict
        belongs to exactly one root span.  ``start_ns`` anchors that
        span at the last event the auditor saw (when known), so the
        critical-path table attributes the same exit-to-verdict latency
        the histogram records.
        """
        span = self._open_span
        if span is not None:
            span["hops"].append(["verdict", int(t_ns), auditor, kind])
            return
        if not self.tracing:
            return
        hot = self._span_hot.get(vm)
        if hot is None:
            hot = self._span_hot[vm] = [0, None]
        seq = hot[0]
        hot[0] = seq + 1
        span = {
            "vm": vm,
            "type": "timer",
            "t": int(start_ns if start_ns is not None else t_ns),
            "trace": f"{vm}:{seq}",
            "hops": [["verdict", int(t_ns), auditor, kind]],
        }
        if not self._ring_full:
            self._ring_append(span)
        else:
            self._count_span_drop(vm, "ring-full")
        if self._span_sink is not None:
            self._span_sink(span)

    def span_end(self) -> None:
        span = self._open_span
        if span is not None:
            self._open_span = None
            if self._span_sink is not None:
                self._span_sink(span)

    def spans_minted(self, vm: Optional[str] = None) -> int:
        """Trace ids consumed so far (for ``vm``, or in total).

        Every publish and every timer verdict mints exactly one,
        whether or not the span was retained — so
        ``minted == len(ring) + spans_dropped`` holds as a conservation
        law (the drop-accounting tests pin it).
        """
        if vm is not None:
            hot = self._span_hot.get(vm)
            return hot[0] if hot is not None else 0
        return sum(hot[0] for hot in self._span_hot.values())

    # ------------------------------------------------------------------
    # Host-side hop context (live-only; stripped from pipeline exports)
    # ------------------------------------------------------------------
    def host_begin(self, stage: str, t_ns: int, *detail: Any) -> None:
        """Start the host-hop prefix for one VM exit (resets the last)."""
        if not self.tracing:
            return
        self._host_hops = [[stage, int(t_ns), *detail]]

    def host_hop(self, stage: str, t_ns: int, *detail: Any) -> None:
        """Append one host-side hop (EF, EM) to the pending prefix."""
        if self.tracing and self._host_hops:
            self._host_hops.append([stage, int(t_ns), *detail])

    # ------------------------------------------------------------------
    # Snapshot / merge (the parallel-fan-out contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-data, JSON-safe, canonically ordered registry image."""
        counters = [
            [name, dict(label_key), cell.value]
            for (name, label_key), cell in self._counters.items()
        ]
        counters.sort(key=lambda row: (row[0], sorted(row[1].items())))
        histograms = [
            [
                name,
                dict(label_key),
                {
                    "count": hist.count,
                    "sum": hist.sum,
                    "min": hist.min,
                    "max": hist.max,
                    "buckets": list(hist.buckets),
                },
            ]
            for (name, label_key), hist in self._histograms.items()
        ]
        histograms.sort(key=lambda row: (row[0], sorted(row[1].items())))
        return {
            "counters": counters,
            "histograms": histograms,
            "spans": [dict(span) for span in self.spans],
        }

    def merge(self, snapshot: Dict[str, Any]) -> "MetricsRegistry":
        """Fold a snapshot in: counters add, histograms add cell-wise,
        spans concatenate (bounded by ``span_limit``).  Merging is
        commutative on counters/histograms; span order is the merge
        order, which callers fix by grid index."""
        for name, labels, value in snapshot.get("counters", ()):
            self.counter(name, **labels).value += int(value)
        for name, labels, data in snapshot.get("histograms", ()):
            hist = self.histogram(name, **labels)
            hist.count += int(data["count"])
            hist.sum += int(data["sum"])
            for bound in ("min", "max"):
                incoming = data.get(bound)
                if incoming is None:
                    continue
                current = getattr(hist, bound)
                if current is None:
                    setattr(hist, bound, int(incoming))
                elif bound == "min":
                    hist.min = min(current, int(incoming))
                else:
                    hist.max = max(current, int(incoming))
            for i, cell in enumerate(data.get("buckets", ())):
                if i < len(hist.buckets):
                    hist.buckets[i] += int(cell)
        for span in snapshot.get("spans", ()):
            if len(self.spans) >= self.span_limit:
                # Truncation is accounted, not silent: merge order is
                # caller-fixed, so these rows stay deterministic.
                self._count_span_drop(str(span.get("vm", "?")), "merge")
                continue
            self._ring_append(dict(span))
        return self

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, Any]) -> "MetricsRegistry":
        return cls().merge(snapshot)


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> MetricsRegistry:
    """Fold many snapshots into one registry, in the given order.

    This is the aggregation point behind ``run_campaign`` and
    ``fuzz_many``: workers return per-trial snapshots, the parent merges
    them by grid index, and the result is byte-identical to a serial
    run at any ``REPRO_JOBS``.
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        if snapshot:
            registry.merge(snapshot)
    return registry
