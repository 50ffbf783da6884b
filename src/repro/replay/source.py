"""Replay a recorded event stream into unmodified auditors.

No :class:`~repro.hw.machine.Machine`, no guest kernel, no hypervisor:
a :class:`ReplaySource` owns a fresh discrete-event
:class:`~repro.sim.engine.Engine` whose virtual clock is driven by the
recorded timestamps, and re-publishes decoded events through the same
:class:`~repro.core.channel.EventFanout` + auditing-container path the
live pipeline uses.  Auditors cannot tell the difference:

* ``hypertap.machine.clock`` / ``hypertap.engine`` — the replay clock,
  so periodic checks (GOSHD) fire in recorded time;
* ``hypertap.machine.vcpus`` — lightweight stand-ins carrying indexes;
* ``hypertap.deriver`` — serves the record-time deriver annotations
  embedded in the trace, so identity derivations (HRKD, HT-Ninja)
  return exactly what the hardware-rooted chain returned live;
* ``hypertap.count_user_processes()`` — Fig 3A's PDBA count rebuilt
  from the replayed process-switch events themselves.

Malformed records never propagate: decoding failures are counted as
graceful rejections and auditor crashes stay inside the container.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Set

from repro.core.auditor import Auditor
from repro.core.channel import EventFanout
from repro.core.derive import DerivedTaskInfo
from repro.core.events import GuestEvent, ProcessSwitchEvent, ThreadSwitchEvent
from repro.errors import TraceFormatError
from repro.hypervisor.containers import AuditingContainer
from repro.hypervisor.event_multiplexer import HeartbeatSampler
from repro.hypervisor.rhc import RemoteHealthChecker
from repro.obs.metrics import MetricsRegistry
from repro.prof import perf_counter
from repro.replay.format import (
    KIND_EVENT,
    KIND_SCAN,
    Trace,
    decode_scan,
    normalize_alerts,
    task_from_record,
)
from repro.sim.clock import SECOND
from repro.sim.engine import Engine

#: Events timestamped beyond the recorded horizon plus this slack are
#: rejected as malformed (a fuzzer favourite: one huge timestamp would
#: otherwise drag every periodic auditor check across aeons).
HORIZON_SLACK_NS = 120 * SECOND

#: Safety valve on timer callbacks fired per replayed record.
_MAX_TIMER_EVENTS_PER_RECORD = 100_000


class ReplayVcpu:
    """Stand-in for a vCPU: auditors only read ``index`` during replay."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index


class ReplayMachine:
    """The slice of :class:`Machine` the auditor API touches."""

    def __init__(self, num_vcpus: int, clock) -> None:
        self.clock = clock
        self.vcpus = [ReplayVcpu(i) for i in range(num_vcpus)]
        self.vm_paused = False


class ReplayDeriver:
    """Architectural deriver backed by recorded annotations.

    The trace carries, per event, what the live deriver computed from
    guest memory at exit time; replay serves those sightings back by
    rsp0, by task_struct GVA, and by "current task on vCPU".
    """

    def __init__(self) -> None:
        self._by_rsp0: Dict[int, DerivedTaskInfo] = {}
        self._by_gva: Dict[int, DerivedTaskInfo] = {}
        self._current: Dict[int, DerivedTaskInfo] = {}

    def observe(
        self,
        event: GuestEvent,
        task: Optional[DerivedTaskInfo],
        parent: Optional[DerivedTaskInfo],
    ) -> None:
        for info in (task, parent):
            if info is not None:
                self._by_gva[info.task_struct_gva] = info
        if task is not None:
            self._current[event.vcpu_index] = task
            if isinstance(event, ThreadSwitchEvent):
                self._by_rsp0[event.rsp0] = task

    # -- ArchDeriver-compatible surface --------------------------------
    def task_info_from_rsp0(self, rsp0: int) -> Optional[DerivedTaskInfo]:
        return self._by_rsp0.get(rsp0)

    def task_info_at(self, task_gva: int) -> Optional[DerivedTaskInfo]:
        return self._by_gva.get(task_gva)

    def current_task_info(self, vcpu_index: int) -> Optional[DerivedTaskInfo]:
        return self._current.get(vcpu_index)


class ReplayHyperTap:
    """HyperTap-shaped control interface over a replayed stream."""

    def __init__(self, machine: ReplayMachine, engine: Engine) -> None:
        self.machine = machine
        self.engine = engine
        self.deriver = ReplayDeriver()
        self.vm_id = "vm0"
        #: Observability registry auditors adopt at bind time — the
        #: same hook the live HyperTap offers, so replayed verdicts
        #: are accounted identically to live ones.
        self.metrics: Optional[MetricsRegistry] = None
        self._pdbas: Set[int] = set()
        self.pause_requests = 0

    # -- control interface (auditor-visible) ---------------------------
    def pause_vm(self) -> None:
        """There is no guest to freeze; remember the verdict instead."""
        self.machine.vm_paused = True
        self.pause_requests += 1

    def resume_vm(self) -> None:
        self.machine.vm_paused = False

    def count_user_processes(self) -> int:
        """Fig 3A count from the replayed PDBA set (kernel space excluded)."""
        return max(0, len(self._pdbas) - 1)

    # -- stream bookkeeping --------------------------------------------
    def observe(self, event: GuestEvent) -> None:
        if isinstance(event, ProcessSwitchEvent):
            for pdba in (event.new_pdba, event.old_pdba):
                if pdba:
                    self._pdbas.add(pdba)


@dataclass
class ReplayReport:
    """What one replay run produced."""

    scenario: str = ""
    events_replayed: int = 0
    events_rejected: int = 0
    scans_run: int = 0
    scan_errors: int = 0
    events_dropped: int = 0
    alerts: Dict[str, List[dict]] = field(default_factory=dict)
    verdicts: List[dict] = field(default_factory=list)
    container_failed: bool = False
    failure_reason: Optional[str] = None
    rhc_alarmed: bool = False
    sim_span_ns: int = 0
    wall_seconds: float = 0.0

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_replayed / self.wall_seconds

    def matches_live(self, live_verdicts: List[dict]) -> bool:
        """Did replay reproduce the recorded run's verdicts?"""
        return self.verdicts == live_verdicts


class _Scan(NamedTuple):
    """A decoded scan marker bound to the auditor that runs it."""

    auditor: Auditor
    untrusted_pids: List[int]
    view: str
    untrusted_count: Optional[int]


class ReplaySource:
    """Drives recorded events through real auditors in virtual time.

    Every entry point shares one per-record path: :meth:`_decode` turns
    a raw record into a deliverable item (or counts a rejection) and
    :meth:`_feed` hands the item to :meth:`_deliver` — at once, or
    through the engine queue when a schedule perturbation is set.
    :meth:`run` is :meth:`stream_begin`, one feed per record, then
    :meth:`stream_end`.
    """

    def __init__(
        self,
        trace: Trace,
        auditors: Iterable[Auditor],
        rhc_timeout_ns: Optional[int] = None,
        rhc_sample_every: int = 64,
        perturb=None,
        collect_delivery: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.trace = trace
        self.auditors: List[Auditor] = list(auditors)
        header = trace.header
        #: The replay pipeline's registry; pipeline-scope rows come out
        #: byte-identical to the live run that recorded the trace.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Optional seeded SchedulePerturbation: delivery is then routed
        #: through the engine queue (label ``replay-deliver``) so the
        #: policy can reorder same-instant deliveries, delay them, or
        #: drop them — the adversarial-schedule half of repro.testing.
        self.perturb = perturb
        #: When collecting, each non-dropped perturbed delivery is
        #: logged as ``(when, prio, seq, record)`` — sorting that log
        #: materializes the adversarial schedule as a plain trace (see
        #: ``repro.testing``), which shrinks without re-perturbation.
        self.delivery_log: Optional[List[tuple]] = [] if collect_delivery else None
        self.engine = Engine(schedule_policy=perturb)
        self.machine = ReplayMachine(header.num_vcpus, self.engine.clock)
        self.hypertap = ReplayHyperTap(self.machine, self.engine)
        self.hypertap.vm_id = header.vm_id
        self.hypertap.metrics = self.metrics
        self.container = AuditingContainer(header.vm_id, metrics=self.metrics)
        self.fanout = EventFanout(vm_id=header.vm_id, metrics=self.metrics)
        self.rhc: Optional[RemoteHealthChecker] = None
        if rhc_timeout_ns is not None:
            self.rhc = RemoteHealthChecker(self.engine, timeout_ns=rhc_timeout_ns)
        self._sampler = HeartbeatSampler(
            self.rhc, rhc_sample_every, metrics=self.metrics
        )
        for auditor in self.auditors:
            self.container.add_auditor(auditor)
            self.fanout.subscribe(auditor, self.container)
        # Per-run state: armed by stream_begin, cleared by stream_end.
        self._stream_report: Optional[ReplayReport] = None
        self._horizon_ns: Optional[int] = None
        self._stream_wall = 0.0
        # Perturbed runs: records fed (bounds the drain) and the latest
        # scheduled delivery (the drain must reach it).
        self._fed = 0
        self._last_due = 0

    # ------------------------------------------------------------------
    def _advance_to(self, t_ns: int) -> None:
        """Move virtual time forward, firing due auditor timers."""
        engine = self.engine
        if t_ns <= engine.clock.now:
            return
        queue = engine._queue
        if queue and queue[0].when <= t_ns:
            engine.run_until(t_ns, max_events=_MAX_TIMER_EVENTS_PER_RECORD)
        else:
            # Nothing due before the target: just move the clock.
            engine.clock.advance_to(t_ns)

    def _reject(self, reason: str) -> None:
        """Account one graceful rejection (malformed/unreplayable)."""
        self._stream_report.events_rejected += 1
        self.metrics.inc(
            "flow.rejected", vm=self.trace.header.vm_id, reason=reason
        )

    def _decode(self, record: Any) -> Optional[tuple]:
        """The one record decoder.

        A guest event becomes ``(t_ns, event, task, parent)`` and a scan
        marker ``(t_ns, scan)`` bound to its auditor.  A record that
        cannot be replayed is rejected with a pinned reason and yields
        ``None``.
        """
        if type(record) is not dict:
            self._reject("not-a-record")
            return None
        kind = record.get("kind", KIND_EVENT)
        if kind == KIND_EVENT:
            try:
                event = GuestEvent.from_record(record)
                t_ns = event.time_ns
                horizon = self._horizon_ns
                if horizon is not None and t_ns > horizon:
                    raise TraceFormatError(
                        f"timestamp {t_ns} beyond trace horizon"
                    )
                task = record.get("task")
                if task is not None:
                    task = task_from_record(task)
                parent = record.get("parent")
                if parent is not None:
                    parent = task_from_record(parent)
            except TraceFormatError:
                self._reject("decode")
                return None
            return t_ns, event, task, parent
        if kind != KIND_SCAN:
            self._reject("unknown-kind")
            return None
        try:
            scan = decode_scan(record)
        except TraceFormatError:
            self._reject("bad-scan")
            return None
        for auditor in self.auditors:
            if auditor.name == scan["auditor"] and hasattr(auditor, "scan_against"):
                return scan["t"], _Scan(
                    auditor, scan["untrusted_pids"], scan["view"],
                    scan["untrusted_count"],
                )
        self._reject("bad-scan")
        return None

    def _feed(self, record: Any) -> bool:
        """Decode one record and deliver it.

        Unperturbed, the clock advances to the record and it is
        delivered now.  Perturbed, the delivery is scheduled through the
        engine queue, where the policy decides its ordering, latency and
        loss; :meth:`stream_end` drains the queue.
        """
        self._fed += 1
        item = self._decode(record)
        if item is None:
            return False
        t_ns = item[0]
        if self.perturb is None:
            self._advance_to(t_ns)
            self._deliver(*item)
            return True
        engine = self.engine
        handle = engine.schedule_at(
            max(t_ns, engine.clock.now), self._deliver, *item,
            label="replay-scan" if type(item[1]) is _Scan else "replay-deliver",
        )
        if not handle.cancelled:
            # The policy may have delayed the delivery past the
            # recorded horizon; the drain must still reach it.
            self._last_due = max(self._last_due, handle.when)
            if self.delivery_log is not None:
                self.delivery_log.append(
                    (handle.when, handle.prio, handle.seq, record)
                )
        return True

    def _deliver(self, t_ns: int, payload, task=None, parent=None) -> None:
        """Hand one decoded item to the pipeline at the current instant.

        A scan runs inside the container boundary: an auditor crash is
        counted, never propagated.  The heartbeat sampler sees the
        recorded time, or the engine's when the delivery was scheduled.
        """
        report = self._stream_report
        if type(payload) is _Scan:
            try:
                payload.auditor.scan_against(
                    payload.untrusted_pids,
                    payload.view,
                    untrusted_process_count=payload.untrusted_count,
                )
                report.scans_run += 1
            except Exception:  # noqa: BLE001 - the replay container boundary
                report.scan_errors += 1
            return
        self.hypertap.deriver.observe(payload, task, parent)
        self.hypertap.observe(payload)
        self._sampler.observe(
            t_ns if self.perturb is None else self.engine.clock.now
        )
        self.fanout.publish(payload)
        report.events_replayed += 1

    # ------------------------------------------------------------------
    def run(self) -> ReplayReport:
        """Replay the whole trace: begin, feed every record, end."""
        self.stream_begin()
        for record in self.trace.records:
            self._feed(record)
        return self.stream_end()

    def stream_begin(self) -> ReplayReport:
        """Arm the pipeline for incremental feeding.

        Call once, then :meth:`stream_feed` per record, then
        :meth:`stream_end` (the repro.serve entry point).  Mutually
        exclusive with :meth:`run`, which makes the same three calls.
        """
        if self._stream_report is not None:
            raise TraceFormatError("stream_begin called twice")
        header = self.trace.header
        report = ReplayReport(scenario=header.scenario)
        self._stream_report = report
        self._stream_wall = perf_counter()
        # Events timestamped beyond the horizon are rejected.
        self._horizon_ns = (
            None if header.end_ns is None else header.end_ns + HORIZON_SLACK_NS
        )
        # Traces need not start at t=0: move to the recorded origin
        # before anything arms its timers or liveness baselines.
        self._advance_to(header.start_ns)
        self._fed = 0
        self._last_due = self.engine.clock.now
        if self.rhc is not None:
            self.rhc.start()
        for auditor in self.auditors:
            auditor.bind(self.hypertap)
        return report

    def stream_feed(self, record: Any) -> bool:
        """Replay one record; ``False`` means a graceful rejection."""
        if self._stream_report is None:
            raise TraceFormatError("stream_feed before stream_begin")
        return self._feed(record)

    def stream_end(self, end_ns: Optional[int] = None) -> ReplayReport:
        """Close the stream: play out tail silence, finalize verdicts."""
        report = self._stream_report
        if report is None:
            raise TraceFormatError("stream_end before stream_begin")
        target = end_ns if end_ns is not None else self.trace.header.end_ns
        horizon = self._horizon_ns
        if target is not None and horizon is not None:
            target = min(target, horizon)
        if self.perturb is None:
            # Play out the recorded tail so end-of-trace silence is seen
            # by the periodic checkers exactly as the live run saw it.
            if target is not None:
                self._advance_to(target)
        else:
            # Bounded drain: enough for every delivery plus the periodic
            # checks over any sane span, but finite even if a hostile
            # header smuggles in an astronomical horizon.
            deadline = (
                self._last_due if target is None
                else max(target, self._last_due)
            )
            self.engine.run_until(
                deadline, max_events=self._fed + _MAX_TIMER_EVENTS_PER_RECORD
            )
            report.events_dropped = self.engine.events_dropped
        report.wall_seconds = perf_counter() - self._stream_wall
        report.sim_span_ns = max(
            0, self.engine.clock.now - self.trace.header.start_ns
        )
        report.alerts = {a.name: list(a.alerts) for a in self.auditors}
        report.verdicts = normalize_alerts(report.alerts)
        report.container_failed = self.container.failed
        report.failure_reason = self.container.failure_reason
        report.rhc_alarmed = self.rhc.alarmed if self.rhc is not None else False
        self._stream_report = None
        return report
