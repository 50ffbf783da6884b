"""End-to-end observability: every pipeline hop counts into the shared
registry — KVM exit dispatch, EF forward/suppress, EM submit/deliver,
container delivery and drops, auditor verdicts — plus the RHC's
silent-stall detection and truncated-trace salvage accounting."""

from __future__ import annotations

import gzip
import json

from repro.core.auditor import Auditor
from repro.core.events import EventType
from repro.harness import SharedHost, Testbed, TestbedConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import load_trace_observed
from repro.replay.format import Trace, TraceHeader
from repro.sim.clock import SECOND


class Watcher(Auditor):
    name = "watcher"
    subscriptions = {EventType.THREAD_SWITCH, EventType.SYSCALL}

    def audit(self, event):
        pass


class Alarmist(Auditor):
    name = "alarmist"
    subscriptions = {EventType.SYSCALL}

    def audit(self, event):
        self.raise_alert("test_alarm")


class Crasher(Auditor):
    name = "crasher"
    subscriptions = {EventType.THREAD_SWITCH}

    def audit(self, event):
        raise RuntimeError("auditor bug")


def busy(ctx):
    while True:
        yield ctx.compute(200_000)
        yield ctx.sys_write(1, 8)


def monitored_testbed(auditors, **kwargs):
    tb = Testbed(TestbedConfig(num_vcpus=2, seed=7, **kwargs))
    tb.boot()
    tb.monitor(auditors)
    tb.kernel.spawn_process(busy, "busy", uid=1000)
    return tb


class TestHostHops:
    def test_exit_counters_by_reason(self):
        tb = monitored_testbed([Watcher()])
        tb.run_s(1.0)
        assert tb.metrics.total("exits", vm="vm0") == tb.kvm.handled_exits
        # More than one reason fires in a busy second.
        assert len(tb.metrics.rows("exits")) > 1

    def test_forwarder_splits_forwarded_and_suppressed(self):
        tb = monitored_testbed([Watcher()])
        tb.run_s(1.0)
        forwarder = tb.kvm.event_forwarder
        assert tb.metrics.total("ef.forwarded") == forwarder.forwarded
        assert tb.metrics.total("ef.suppressed") == forwarder.suppressed
        assert forwarder.forwarded > 0 and forwarder.suppressed > 0

    def test_em_counters_match_legacy_properties(self):
        tb = monitored_testbed([Watcher()])
        tb.run_s(1.0)
        em = tb.multiplexer
        assert em.submitted == tb.metrics.total("em.submitted")
        assert em.delivered == tb.metrics.total("em.delivered")
        assert em.submitted > 0


class TestPipelineHops:
    def test_published_and_delivered_flow(self):
        watcher = Watcher()
        tb = monitored_testbed([watcher])
        tb.run_s(1.0)
        published = tb.metrics.total("flow.published", vm="vm0")
        delivered = tb.metrics.total(
            "flow.delivered", vm="vm0", auditor="watcher"
        )
        assert published > 0
        assert delivered == sum(watcher.events_seen.values())

    def test_verdicts_and_latency_histogram(self):
        tb = monitored_testbed([Alarmist()])
        tb.run_s(1.0)
        verdicts = tb.metrics.total(
            "verdicts", vm="vm0", auditor="alarmist", kind="test_alarm"
        )
        assert verdicts == len(tb.hypertap.auditors[0].alerts)
        hist = tb.metrics.histogram(
            "latency.exit_to_verdict_ns", vm="vm0", auditor="alarmist"
        )
        assert hist.count == verdicts

    def test_crash_then_quarantine_drop_reasons(self):
        tb = monitored_testbed([Crasher()])
        tb.run_s(1.0)
        crash = tb.metrics.total(
            "flow.dropped", vm="vm0", auditor="crasher", reason="crash"
        )
        quarantined = tb.metrics.total(
            "flow.dropped", vm="vm0", auditor="crasher",
            reason="quarantined",
        )
        assert crash == 1  # the delivery that tripped the quarantine
        assert quarantined > 0  # everything after it
        assert crash + quarantined == tb.hypertap.container.dropped

    def test_spans_follow_events_through_hops(self):
        tb = monitored_testbed([Watcher()])
        tb.run_s(1.0)
        assert 0 < len(tb.metrics.spans) <= tb.metrics.span_limit
        delivered = [
            span
            for span in tb.metrics.spans
            if any(hop[0] == "deliver" for hop in span["hops"])
        ]
        assert delivered
        for span in delivered:
            for hop in span["hops"]:
                if hop[0] == "deliver":
                    assert hop[2] == "watcher"


class TestSilentStallDetection:
    def test_flatlined_flow_alarms_while_heartbeats_flow(self):
        host = SharedHost(num_vms=2, with_rhc=True)
        host.monitor(0, [Watcher()])
        host.monitor(1, [Watcher()])
        for vm in host.vms:
            vm.kernel.spawn_process(busy, "busy", uid=1000)
        host.run_s(2.0)
        assert not host.rhc.stalled_flows
        # vm1's event flow dies, but vm0 keeps the heartbeat alive —
        # the exact failure a heartbeat alone cannot see.
        host.vms[1].kvm.detach_forwarder()
        host.run_s(8.0)
        assert "vm1.em.submitted" in host.rhc.stalled_flows
        assert "vm0.em.submitted" not in host.rhc.stalled_flows
        assert any(
            flow == "vm1.em.submitted"
            for _t, flow in host.rhc.flow_alerts
        )

    def test_no_flow_alert_when_whole_pipeline_dies(self):
        # Heartbeats stop too: the host-wide alert covers it and the
        # flow probes stay quiet (no double-reporting).
        tb = Testbed(TestbedConfig(num_vcpus=2, seed=7, with_rhc=True))
        tb.boot()
        tb.monitor([Watcher()])
        tb.kernel.spawn_process(busy, "busy", uid=1000)
        tb.run_s(1.0)
        tb.kvm.detach_forwarder()  # everything downstream goes dark
        tb.run_s(10.0)
        assert tb.rhc.alarmed
        assert not tb.rhc.stalled_flows


class TestTruncatedTraceSalvage:
    def _truncated_trace(self, tmp_path, n_records=5000):
        records = [
            {"kind": "event", "type": "io", "t": i * 1000, "vcpu": 0,
             "vm": "vm0", "port": 0x64, "direction": "in", "size": 1}
            for i in range(n_records)
        ]
        trace = Trace(
            header=TraceHeader(end_ns=n_records * 1000),
            records=records,
        )
        lines = [json.dumps(trace.header.to_record())]
        lines += [json.dumps(r) for r in trace.records]
        payload = gzip.compress(("\n".join(lines) + "\n").encode("utf-8"))
        path = tmp_path / "cut.jsonl.gz"
        path.write_bytes(payload[: len(payload) // 2])
        return str(path)

    def test_salvage_counts_surface_in_registry(self, tmp_path):
        path = self._truncated_trace(tmp_path)
        registry = MetricsRegistry()
        trace = load_trace_observed(path, registry)
        salvaged = registry.value("trace.records_salvaged", vm="vm0")
        assert salvaged == len(trace.records)
        assert 0 < salvaged < 5000
        assert (
            registry.value(
                "flow.dropped", vm="vm0", stage="trace-read",
                reason="truncated-stream",
            )
            == 1
        )

    def test_intact_trace_counts_nothing(self, tmp_path):
        records = [
            {"kind": "event", "type": "io", "t": 1000, "vcpu": 0,
             "vm": "vm0", "port": 0x64, "direction": "in", "size": 1}
        ]
        trace = Trace(header=TraceHeader(end_ns=SECOND), records=records)
        lines = [json.dumps(trace.header.to_record())]
        lines += [json.dumps(r) for r in records]
        path = tmp_path / "ok.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        registry = MetricsRegistry()
        loaded = load_trace_observed(str(path), registry)
        assert len(loaded.records) == 1
        assert registry.value("trace.records_salvaged", vm="vm0") == 0
