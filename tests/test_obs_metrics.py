"""Unit tests for the repro.obs registry, export and diff machinery."""

from __future__ import annotations

import pytest

from repro.core.events import EventType, IOEvent
from repro.hw.exits import GuestStateSnapshot
from repro.errors import TraceFormatError
from repro.obs.metrics import (
    BUCKET_BOUNDS_NS,
    STAGE_COUNTER_LABELS,
    MetricsRegistry,
    merge_snapshots,
    metric_scope,
)
from repro.obs.report import (
    diff_rows,
    export_lines,
    parse_export,
    top_rows,
)
from repro.sim.clock import MICROSECOND, MILLISECOND


class TestCounters:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        reg.inc("exits", vm="vm0", reason="IO")
        reg.inc("exits", n=4, vm="vm0", reason="IO")
        assert reg.value("exits", vm="vm0", reason="IO") == 5
        assert reg.value("exits", vm="vm0", reason="HLT") == 0

    def test_total_sums_matching_rows(self):
        reg = MetricsRegistry()
        reg.inc("exits", vm="vm0", reason="IO")
        reg.inc("exits", vm="vm0", reason="HLT")
        reg.inc("exits", vm="vm1", reason="IO")
        assert reg.total("exits") == 3
        assert reg.total("exits", vm="vm0") == 2
        assert reg.total("exits", reason="IO") == 2

    def test_cached_handle_is_the_same_cell(self):
        reg = MetricsRegistry()
        cell = reg.counter("flow.published", vm="vm0", type="io")
        cell.inc()
        cell.inc(2)
        assert reg.value("flow.published", vm="vm0", type="io") == 3

    def test_label_values_coerced_to_str(self):
        reg = MetricsRegistry()
        reg.inc("exits", vm="vm0", vcpu=1)
        assert reg.value("exits", vm="vm0", vcpu="1") == 1


class TestHistograms:
    def test_bucket_placement(self):
        reg = MetricsRegistry()
        hist = reg.histogram("latency.exit_to_verdict_ns", vm="vm0")
        hist.observe(500)  # below the first bound (1 us)
        hist.observe(5 * MICROSECOND)
        hist.observe(50 * MILLISECOND)
        hist.observe(BUCKET_BOUNDS_NS[-1] * 10)  # overflow cell
        assert hist.count == 4
        assert hist.buckets[0] == 1
        assert hist.buckets[1] == 1
        assert hist.buckets[-1] == 1
        assert hist.min == 500
        assert hist.max == BUCKET_BOUNDS_NS[-1] * 10

    def test_mean(self):
        reg = MetricsRegistry()
        reg.observe("latency.exit_to_verdict_ns", 10, vm="vm0")
        reg.observe("latency.exit_to_verdict_ns", 30, vm="vm0")
        hist = reg.histogram("latency.exit_to_verdict_ns", vm="vm0")
        assert hist.mean == 20.0

    def test_merge_adds_cellwise(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.observe("h", 100, vm="vm0")
        b.observe("h", 2 * MILLISECOND, vm="vm0")
        a.merge(b.snapshot())
        hist = a.histogram("h", vm="vm0")
        assert hist.count == 2
        assert hist.sum == 100 + 2 * MILLISECOND
        assert hist.min == 100
        assert hist.max == 2 * MILLISECOND


class TestSpans:
    def _event(self, t_ns):
        snap = GuestStateSnapshot(
            cr3=0, tr_base=0, rsp=0, rip=0, rax=0, rbx=0, rcx=0,
            rdx=0, rsi=0, rdi=0, cpl=0,
        )
        return IOEvent(
            time_ns=t_ns, vcpu_index=0, vm_id="vm0", hw_state=snap
        )

    def test_span_capture_and_hops(self):
        reg = MetricsRegistry()
        reg.span_begin(self._event(1000))
        reg.span_hop("deliver", 1000, "goshd")
        reg.span_hop("verdict", 1200, "goshd", "hang")
        reg.span_end()
        assert len(reg.spans) == 1
        span = reg.spans[0]
        assert span["type"] == "io"
        assert span["hops"] == [
            ["deliver", 1000, "goshd"],
            ["verdict", 1200, "goshd", "hang"],
        ]

    def test_span_limit_bounds_capture(self):
        reg = MetricsRegistry(span_limit=3)
        for i in range(10):
            reg.span_begin(self._event(i))
            reg.span_hop("deliver", i, "a")
            reg.span_end()
        assert len(reg.spans) == 3
        # Beyond the limit, hops must not attach to stale spans.
        reg.span_hop("deliver", 99, "late")
        assert all(
            hop[1] != 99 for span in reg.spans for hop in span["hops"]
        )


class TestSnapshotMerge:
    def test_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("flow.published", vm="vm0", type="io")
        reg.observe("h", 5, vm="vm0")
        clone = MetricsRegistry.from_snapshot(reg.snapshot())
        assert clone.snapshot() == reg.snapshot()

    def test_merge_snapshots_in_order(self):
        parts = []
        for seed in range(3):
            reg = MetricsRegistry()
            reg.inc("flow.published", n=seed + 1, vm="vm0", type="io")
            parts.append(reg.snapshot())
        merged = merge_snapshots(parts)
        assert merged.value("flow.published", vm="vm0", type="io") == 6

    def test_snapshot_rows_are_canonically_sorted(self):
        reg = MetricsRegistry()
        reg.inc("z", vm="vm1")
        reg.inc("a", vm="vm0")
        names = [row[0] for row in reg.snapshot()["counters"]]
        assert names == sorted(names)


class TestScopesAndCoverage:
    def test_scope_partition(self):
        assert metric_scope("exits") == "host"
        assert metric_scope("ef.forwarded") == "host"
        assert metric_scope("em.submitted") == "host"
        assert metric_scope("heartbeat.sampled") == "host"
        assert metric_scope("flow.published") == "pipeline"
        assert metric_scope("verdicts") == "pipeline"
        assert metric_scope("latency.exit_to_verdict_ns") == "pipeline"
        assert metric_scope("trace.records_salvaged") == "pipeline"

    def test_every_event_type_has_a_stage_counter(self):
        # The static event-coverage rule enforces this from the AST;
        # this is the runtime mirror of the same invariant.
        assert set(STAGE_COUNTER_LABELS) == set(EventType)


class TestExportAndDiff:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.inc("exits", vm="vm0", reason="IO")  # host scope
        reg.inc("flow.published", vm="vm0", type="io")
        reg.observe("latency.exit_to_verdict_ns", 7, vm="vm0", auditor="a")
        return reg.snapshot()

    def test_default_scope_excludes_host_rows(self):
        lines = export_lines(self._snapshot())
        assert not any('"exits"' in line for line in lines)
        assert any('"flow.published"' in line for line in lines)

    def test_all_scope_includes_everything(self):
        lines = export_lines(self._snapshot(), scope="all")
        assert any('"exits"' in line for line in lines)
        assert any('"flow.published"' in line for line in lines)

    def test_parse_export_round_trip(self):
        lines = export_lines(self._snapshot(), scope="all")
        rows = parse_export(lines)
        assert len(rows) == len(lines)
        assert {row["kind"] for row in rows} == {"counter", "hist"}

    def test_parse_export_rejects_garbage(self):
        with pytest.raises(TraceFormatError):
            parse_export(["not json"])
        with pytest.raises(TraceFormatError):
            parse_export(['{"no_kind": 1}'])

    def test_diff_rows_flags_changed_and_missing(self):
        a = parse_export(export_lines(self._snapshot()))
        reg = MetricsRegistry.from_snapshot(self._snapshot())
        reg.inc("flow.published", vm="vm0", type="io")
        reg.inc("verdicts", vm="vm0", auditor="a", kind="hang")
        b = parse_export(export_lines(reg.snapshot()))
        differences = diff_rows(a, b)
        assert any(line.startswith("changed:") for line in differences)
        assert any(line.startswith("only in B:") for line in differences)
        assert diff_rows(a, a) == []

    def test_top_rows_orders_by_value(self):
        reg = MetricsRegistry()
        reg.inc("flow.published", n=5, vm="vm0", type="io")
        reg.inc("flow.delivered", n=9, vm="vm0", auditor="a", type="io")
        rows = parse_export(export_lines(reg.snapshot()))
        top = top_rows(rows, limit=1)
        assert top[0][0] == 9
        assert top[0][1].startswith("flow.delivered")
