"""The layer map: which public entry points bound which layer.

One row per wrapped boundary (see :mod:`tracing`).  The module column
is where the *caller* looks the name up: a function imported by name
into another module (``from x import f``) is wrapped in the importing
module too, or calls through that alias would bypass the span.

Layers, the program modules they cover, the end-to-end metrics a
change to the layer should move, and the workloads that exercise it.
On a workload that bypasses a layer the predicted change is none, and
its per-layer metrics read 0.

============  ===========================  ==========================  ====================
layer         modules                      should move                 workloads
============  ===========================  ==========================  ====================
decode        replay.btrace, .trace_io,    events_per_s, peak_rss_mb   replay (heavy),
              replay.format, core.events                               serve (light)
replay        replay.source                events_per_s,               replay, serve
                                           latency_ms_p90
fanout        core.channel                 every throughput/latency    all
container     hypervisor.containers        every throughput/latency    all
auditor       auditors, core.auditor       every throughput/latency    all; hang streams
obs           obs.metrics, obs.report      latency_ms_p90, ops_per_s   serve, campaign
kvm, ef, em   hypervisor.kvm, .event_*     ops_per_s, events_per_s     campaign
interception  core.interception, .derive   ops_per_s, events_per_s     campaign
guest         guest, hw, sim.engine        ops_per_s, events_per_s     campaign
transport     serve.service, .protocol     latency_ms_*, events_per_s  serve
admission     serve.admission              latency_ms_*, events_per_s  serve
pipeline      serve.pipeline               latency_ms_*, events_per_s  serve
parallel      parallel.executor            ops_per_s                   campaign
============  ===========================  ==========================  ====================

``guest`` is timed at ``Engine.run_for``, the live path's entry into
``Engine.run_until``: replay drives ``run_until`` directly for its
timers, and that time belongs to ``replay``.  ``parallel`` has no span;
its figures come from ``parallel_map``'s ``stats=`` accounting.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from tracing import Boundary, Tracer


def _sim_ns(tracer: Tracer, args: tuple, result: Any) -> None:
    # Engine.run_for(self, duration_ns, ...): simulated time advanced.
    tracer.add_sample("guest.sim_ns", float(args[1]))


def _admission(tracer: Tracer, args: tuple, result: Any) -> None:
    if result.admitted:
        tracer.add_sample("admission.wait_ns", float(result.wait_ns))


def _frame_op(tracer: Tracer, args: tuple, result: Any) -> None:
    # Service-side operation id: the stream a decoded frame belongs to.
    stream = result.get("stream")
    if stream is not None:
        tracer.current_op = tracer.op_id(stream)


def _interceptor_rows() -> List[Boundary]:
    from repro.core import interception

    rows = []
    for name, cls in sorted(vars(interception).items()):
        if (
            isinstance(cls, type)
            and issubclass(cls, interception.Interceptor)
            and cls.__module__ == interception.__name__
            and "on_exit" in cls.__dict__
        ):
            rows.append(Boundary("repro.core.interception", f"{name}.on_exit",
                                 "interception"))
    return rows


def _alias_rows(layer: str, name: str, modules: Tuple[str, ...]) -> List[Boundary]:
    return [Boundary(module, name, layer) for module in modules]


def boundaries() -> List[Boundary]:
    """Every boundary, wrapped on every workload: a layer a workload
    bypasses then reads zero because nothing called it, not because it
    was left unwrapped."""
    return [
        # decode
        Boundary("repro.replay.btrace", "load_any_trace", "decode"),
        Boundary("repro.core.events", "GuestEvent.from_record", "decode"),
        Boundary("repro.replay.source", "task_from_record", "decode"),
        # replay
        Boundary("repro.replay.source", "ReplaySource.run", "replay"),
        Boundary("repro.replay.source", "ReplaySource.stream_feed", "replay"),
        Boundary("repro.replay.source", "ReplaySource.stream_end", "replay"),
        # fan-out
        Boundary("repro.core.channel", "EventFanout.publish", "fanout"),
        Boundary("repro.core.channel", "UnifiedChannel.publish", "fanout"),
        # container
        Boundary("repro.hypervisor.containers", "AuditingContainer.deliver",
                 "container"),
        # auditor: intake, cross-validation scans, timer checks
        Boundary("repro.core.auditor", "Auditor.on_event", "auditor"),
        Boundary("repro.auditors.hrkd", "HiddenRootkitDetector.scan_against",
                 "auditor"),
        Boundary("repro.auditors.goshd", "GuestOSHangDetector._check", "auditor"),
        Boundary("repro.core.auditor", "Auditor.raise_alert", "auditor", "count"),
        # obs
        Boundary("repro.obs.metrics", "MetricsRegistry.snapshot", "obs"),
        *_alias_rows("obs", "merge_snapshots", (
            "repro.obs.metrics", "repro.serve.service", "repro.serve.pipeline")),
        *_alias_rows("obs", "export_lines", (
            "repro.obs.report", "repro.serve.service", "repro.serve.pipeline")),
        # live path: VM exit -> KVM -> EF -> EM -> interception
        Boundary("repro.hypervisor.kvm", "KvmHypervisor.handle_exit", "kvm"),
        Boundary("repro.hypervisor.event_forwarder", "EventForwarder.on_vm_exit",
                 "ef"),
        Boundary("repro.hypervisor.event_multiplexer", "EventMultiplexer.submit",
                 "em"),
        Boundary("repro.core.channel", "UnifiedChannel.on_exit", "interception"),
        *_interceptor_rows(),
        Boundary("repro.core.derive", "ArchDeriver.task_info_at", "interception"),
        Boundary("repro.core.derive", "ArchDeriver.task_info_from_rsp0",
                 "interception"),
        Boundary("repro.core.derive", "ArchDeriver.current_task_info",
                 "interception"),
        Boundary("repro.sim.engine", "Engine.run_for", "guest", after=_sim_ns),
        # serve
        Boundary("repro.serve.service", "decode_frame", "transport",
                 after=_frame_op),
        Boundary("repro.serve.service", "encode_frame", "transport"),
        Boundary("repro.serve.admission", "AdmissionModel.arrive", "admission",
                 after=_admission),
        Boundary("repro.serve.pipeline", "StreamPipeline.feed", "pipeline"),
        Boundary("repro.serve.pipeline", "StreamPipeline.close", "pipeline"),
        # one fault-injection trial = one operation (harness time: "other")
        Boundary("repro.faults.campaign", "run_trial", "other", "op"),
    ]


#: Every per-layer metric the traced run prints: name -> (unit, better).
#: A workload that bypasses a layer reports 0 for it.
PER_LAYER = {
    "decode.self_s": ("s", "lower"),
    "decode.records": ("count", "lower"),
    "decode.rejected": ("count", "lower"),
    "replay.self_s": ("s", "lower"),
    "replay.records": ("count", "lower"),
    "fanout.self_s": ("s", "lower"),
    "fanout.publishes": ("count", "lower"),
    "container.self_s": ("s", "lower"),
    "container.deliveries": ("count", "lower"),
    "container.dropped": ("count", "lower"),
    "auditor.self_s": ("s", "lower"),
    "auditor.verdicts": ("count", "higher"),
    "obs.self_s": ("s", "lower"),
    "obs.snapshots": ("count", "lower"),
    "kvm.self_s": ("s", "lower"),
    "kvm.exits": ("count", "lower"),
    "ef.self_s": ("s", "lower"),
    "ef.forwarded": ("count", "lower"),
    "ef.suppressed": ("count", "higher"),
    "em.self_s": ("s", "lower"),
    "em.delivered": ("count", "lower"),
    "interception.self_s": ("s", "lower"),
    "interception.events": ("count", "lower"),
    "guest.self_s": ("s", "lower"),
    "guest.sim_s": ("s", "higher"),
    "transport.self_s": ("s", "lower"),
    "transport.frames": ("count", "lower"),
    "transport.client_s": ("s", "lower"),
    "transport.credit_wait_s": ("s", "lower"),
    "admission.self_s": ("s", "lower"),
    "admission.dropped": ("count", "lower"),
    "admission.queue_wait_ns_p99": ("ns", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "parallel.chunks": ("count", "lower"),
    "parallel.busy_frac": ("ratio", "higher"),
    "parallel.overhead_s": ("s", "lower"),
    "other.self_s": ("s", "lower"),
    "trace.root_s": ("s", "lower"),
    "trace.self_sum_pct": ("%", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans": ("count", "lower"),
    "loadgen.send_lag_ms_p99": ("ms", "lower"),
}


def assemble(values: dict) -> dict:
    """Every :data:`PER_LAYER` metric as ``name -> (value, unit)``;
    names missing from ``values`` read 0 (the layer was bypassed)."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, (unit, _) in PER_LAYER.items()
    }


def counts_from_spans(tracer: Tracer) -> dict:
    """Deterministic call counts the per-layer table names."""
    calls = tracer.span_counts()
    return {
        "decode.records": calls.get("decode:GuestEvent.from_record", 0),
        "fanout.publishes": calls.get("fanout:EventFanout.publish", 0),
        "container.deliveries": calls.get("container:AuditingContainer.deliver", 0),
        "auditor.verdicts": calls.get("auditor:Auditor.raise_alert", 0),
        "obs.snapshots": calls.get("obs:MetricsRegistry.snapshot", 0),
        "kvm.exits": calls.get("kvm:KvmHypervisor.handle_exit", 0),
        "interception.events": calls.get("fanout:UnifiedChannel.publish", 0),
        "transport.frames": (calls.get("transport:decode_frame", 0)
                             + calls.get("transport:encode_frame", 0)),
    }


def snapshot_total(snapshots, name: str, **labels: str) -> int:
    """Sum of counter rows ``name`` whose labels include ``labels``."""
    total = 0
    for snapshot in snapshots:
        for row_name, row_labels, value in snapshot.get("counters", ()):
            if row_name == name and all(row_labels.get(k) == v for k, v in labels.items()):
                total += int(value)
    return total
