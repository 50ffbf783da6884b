"""The unified logging channel.

One channel per VM owns the interception algorithms and the auditor
subscription list.  It registers with the Event Multiplexer for the
union of exit reasons its interceptors need — so an exit is trapped,
forwarded and processed once no matter how many auditors consume the
derived events.  That sharing is the paper's core performance claim
(Fig 7: combined overhead ~= slowest individual, not the sum).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.auditor import Auditor
from repro.core.events import EventType, GuestEvent
from repro.obs.metrics import STAGE_COUNTER_LABELS, MetricsRegistry
from repro.core.interception import (
    FastSyscallInterceptor,
    FineGrainedTracer,
    Int80SyscallInterceptor,
    Interceptor,
    IOInterceptor,
    ProcessSwitchInterceptor,
    RawExitInterceptor,
    ThreadSwitchInterceptor,
    TssIntegrityChecker,
)
from repro.hw.cpu import VCPU
from repro.hw.exits import VMExit
from repro.hw.machine import Machine
from repro.hypervisor.containers import AuditingContainer


class EventFanout:
    """Subscription registry + derived-event delivery.

    The fan-out half of the unified channel, factored out so any event
    producer — the live interception pipeline here, or a trace replay
    (``repro.replay.source``) — can deliver derived events to unmodified
    auditors through their containers.

    With a registry attached, every published event is counted under
    its stage counter (:data:`~repro.obs.metrics.STAGE_COUNTER_LABELS`,
    per ``(vm, type)``) and opens a flow span that the container and
    auditor hops append to — the same accounting live and replayed.
    """

    def __init__(
        self,
        vm_id: str = "vm0",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        #: (auditor, container) pairs subscribed to derived events.
        self._subscribers: List[Tuple[Auditor, AuditingContainer]] = []
        #: Event type -> interested (auditor, container) pairs, so the
        #: per-event hot path never scans uninterested subscribers.
        self._by_type: Dict[EventType, List[Tuple[Auditor, AuditingContainer]]]
        self._by_type = {event_type: [] for event_type in EventType}
        self.events_published: Counter = Counter()
        self.vm_id = vm_id
        self.metrics = metrics
        self._stage_cells: Dict[EventType, Any] = {}

    def subscribe(self, auditor: Auditor, container: AuditingContainer) -> None:
        self._subscribers.append((auditor, container))
        for event_type in auditor.subscriptions:
            self._by_type[event_type].append((auditor, container))

    @property
    def subscribers(self) -> List[Tuple[Auditor, AuditingContainer]]:
        return list(self._subscribers)

    def publish(
        self,
        event: GuestEvent,
        blocking_charge: Optional[Callable[[Auditor, GuestEvent], None]] = None,
    ) -> None:
        """Deliver ``event`` to every subscriber.

        ``blocking_charge`` is invoked before delivery to a blocking
        auditor that wants this event synchronously — the live channel
        uses it to charge the exiting vCPU the audit time; replay, which
        has no vCPU, passes nothing.
        """
        event_type = event.type
        self.events_published[event_type] += 1
        subscribers = self._by_type[event_type]
        metrics = self.metrics
        if metrics is None:
            self._deliver(subscribers, event, blocking_charge)
            return
        cell = self._stage_cells.get(event_type)
        if cell is None:
            cell = metrics.counter(
                STAGE_COUNTER_LABELS[event_type],
                vm=self.vm_id,
                type=event_type.value,
            )
            self._stage_cells[event_type] = cell
        cell.value += 1
        metrics.span_begin(event, vm=self.vm_id)
        try:
            if subscribers:  # most replayed events reach no auditor
                self._deliver(subscribers, event, blocking_charge)
        finally:
            # Close the span even when an auditor raises: a leaked span
            # would silently swallow the next publish's hops.
            metrics.span_end()

    def _deliver(
        self,
        subscribers: List[Tuple[Auditor, AuditingContainer]],
        event: GuestEvent,
        blocking_charge: Optional[Callable[[Auditor, GuestEvent], None]],
    ) -> None:
        for auditor, container in subscribers:
            if (
                blocking_charge is not None
                and auditor.blocking
                and auditor.wants_blocking(event)
            ):
                blocking_charge(auditor, event)
            container.deliver(auditor, event)


class UnifiedChannel:
    """Shared logging channel for one VM."""

    def __init__(
        self,
        machine: Machine,
        vm_id: str,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.machine = machine
        self.vm_id = vm_id
        self.interceptors: List[Interceptor] = []
        self.fanout = EventFanout(vm_id=vm_id, metrics=metrics)
        # Named handles for interceptors auditors may query directly.
        self.process_switches: Optional[ProcessSwitchInterceptor] = None
        self.thread_switches: Optional[ThreadSwitchInterceptor] = None
        self.tss_integrity: Optional[TssIntegrityChecker] = None
        self.fast_syscalls: Optional[FastSyscallInterceptor] = None
        self.int80_syscalls: Optional[Int80SyscallInterceptor] = None
        self.io: Optional[IOInterceptor] = None
        self.tracer: Optional[FineGrainedTracer] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build_for_event_types(self, needed: set) -> None:
        """Instantiate interceptors for the requested event types."""
        if EventType.PROCESS_SWITCH in needed or EventType.THREAD_SWITCH in needed:
            self.process_switches = ProcessSwitchInterceptor(
                self.machine, self.vm_id, self.publish
            )
            self.interceptors.append(self.process_switches)
        if EventType.THREAD_SWITCH in needed:
            self.thread_switches = ThreadSwitchInterceptor(
                self.machine, self.vm_id, self.publish
            )
            self.interceptors.append(self.thread_switches)
        if EventType.SYSCALL in needed:
            self.fast_syscalls = FastSyscallInterceptor(
                self.machine, self.vm_id, self.publish
            )
            self.int80_syscalls = Int80SyscallInterceptor(
                self.machine, self.vm_id, self.publish
            )
            self.interceptors.append(self.fast_syscalls)
            self.interceptors.append(self.int80_syscalls)
        if EventType.IO in needed:
            self.io = IOInterceptor(self.machine, self.vm_id, self.publish)
            self.interceptors.append(self.io)
        if EventType.MEM_ACCESS in needed:
            self.tracer = FineGrainedTracer(
                self.machine, self.vm_id, self.publish
            )
            self.interceptors.append(self.tracer)
        if EventType.TSS_INTEGRITY in needed:
            self.tss_integrity = TssIntegrityChecker(
                self.machine, self.vm_id, self.publish
            )
            self.interceptors.append(self.tss_integrity)
        if EventType.RAW_EXIT in needed:
            self.interceptors.append(
                RawExitInterceptor(self.machine, self.vm_id, self.publish)
            )

    def enable_all(self) -> None:
        for interceptor in self.interceptors:
            interceptor.enable()

    @property
    def exit_reasons(self) -> frozenset:
        """Union of exit reasons the interceptor set needs."""
        union = frozenset()
        for interceptor in self.interceptors:
            union |= interceptor.reasons
        return union

    # ------------------------------------------------------------------
    # Subscription and delivery
    # ------------------------------------------------------------------
    def subscribe(self, auditor: Auditor, container: AuditingContainer) -> None:
        self.fanout.subscribe(auditor, container)

    @property
    def events_published(self) -> Counter:
        return self.fanout.events_published

    def on_exit(self, vcpu: VCPU, exit_event: VMExit) -> None:
        """EM consumer entry point: raw exit -> interception -> events."""
        self._current_vcpu = vcpu
        for interceptor in self.interceptors:
            if exit_event.reason in interceptor.reasons:
                interceptor.on_exit(vcpu, exit_event)

    def _charge_blocking(self, auditor: Auditor, event: GuestEvent) -> None:
        vcpu = getattr(self, "_current_vcpu", None)
        if vcpu is not None:
            vcpu.charge(self.machine.costs.blocking_audit_ns)

    def publish(self, event: GuestEvent) -> None:
        """Deliver a derived event to every subscribed auditor."""
        self.fanout.publish(event, blocking_charge=self._charge_blocking)
