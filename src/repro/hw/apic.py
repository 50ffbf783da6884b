"""Local APIC timer.

Each vCPU owns a timer that raises :data:`VECTOR_TIMER` periodically.
Interrupts are queued on the vCPU and serviced at the next guest
instruction boundary (the guest executor polls
``vcpu.pending_interrupts``), which bounds interrupt latency by the
longest primitive operation — the same property real hardware has at
instruction granularity.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.sim.engine import Engine, ScheduledEvent
from repro.hw.vmcs import VECTOR_TIMER

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cpu import VCPU


class LocalApic:
    """Per-vCPU interrupt timer."""

    def __init__(self, vcpu: "VCPU", engine: Engine, period_ns: int) -> None:
        self.vcpu = vcpu
        self.engine = engine
        self.period_ns = period_ns
        self._event: Optional[ScheduledEvent] = None
        self.ticks_fired = 0
        #: Guests can mask interrupts (CLI); the timer still fires but
        #: delivery is deferred by the executor, so we keep queueing.
        self.enabled = False
        #: Schedule label, built once rather than per tick.
        self._label = f"apic-timer-vcpu{vcpu.index}"

    def start(self) -> None:
        if self.enabled:
            return
        self.enabled = True
        self._schedule_next()

    def stop(self) -> None:
        self.enabled = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule_next(self) -> None:
        self._event = self.engine.schedule(
            self.period_ns, self._fire, label=self._label
        )

    def _fire(self) -> None:
        if not self.enabled:
            return
        self.ticks_fired += 1
        self.vcpu.pending_interrupts.append(VECTOR_TIMER)
        self._schedule_next()
