"""Guest OS Hang Detection (GOSHD), Section VII-A.

Failure model: the OS is *hung* when it ceases to schedule tasks.  On a
multiprocessor VM the hang may cover only a subset of vCPUs (a
*partial* hang) — invisible to heartbeats, whose generating thread may
still be scheduled on a healthy vCPU.

Mechanism: the thread-switch interception of Fig 3B guarantees every
context switch produces an event.  GOSHD timestamps the last switch
per vCPU; silence beyond a threshold (twice the profiled maximum
scheduling timeslice — 4 s for the paper's SUSE guest and for ours)
flags that vCPU as hung.  vCPUs are monitored independently, which is
exactly what makes partial-hang detection work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.auditor import Auditor
from repro.core.events import EventType, GuestEvent, ThreadSwitchEvent
from repro.sim.clock import MILLISECOND, SECOND

#: Twice the profiled maximum scheduling timeslice (Section VIII-A1).
DEFAULT_THRESHOLD_NS = 4 * SECOND
DEFAULT_CHECK_PERIOD_NS = 500 * MILLISECOND


class GuestOSHangDetector(Auditor):
    """Per-vCPU hang detector over thread-switch events."""

    name = "goshd"
    subscriptions = {EventType.THREAD_SWITCH}

    def __init__(
        self,
        threshold_ns: int = DEFAULT_THRESHOLD_NS,
        check_period_ns: int = DEFAULT_CHECK_PERIOD_NS,
    ) -> None:
        super().__init__()
        self.threshold_ns = threshold_ns
        self.check_period_ns = check_period_ns
        self._last_switch_ns: Dict[int, int] = {}
        self.hung_vcpus: Set[int] = set()
        self.first_hang_time_ns: Optional[int] = None
        self.full_hang_time_ns: Optional[int] = None

    # ------------------------------------------------------------------
    def on_attach(self) -> None:
        now = self.hypertap.machine.clock.now
        for vcpu in self.hypertap.machine.vcpus:
            self._last_switch_ns[vcpu.index] = now
        self.hypertap.engine.schedule(
            self.check_period_ns, self._check, label="goshd-check"
        )

    # ------------------------------------------------------------------
    def audit(self, event: GuestEvent) -> None:
        if not isinstance(event, ThreadSwitchEvent):
            return
        self._last_switch_ns[event.vcpu_index] = event.time_ns
        if event.vcpu_index in self.hung_vcpus:
            # Scheduling resumed: the hang was transient after all.
            self.hung_vcpus.discard(event.vcpu_index)
            self.raise_alert("vcpu_recovered", vcpu=event.vcpu_index)
            if not self.hung_vcpus:
                self.full_hang_time_ns = None

    def _check(self) -> None:
        machine = self.hypertap.machine
        now = machine.clock.now
        for vcpu in machine.vcpus:
            last = self._last_switch_ns.get(vcpu.index, 0)
            if now - last > self.threshold_ns and vcpu.index not in self.hung_vcpus:
                self.hung_vcpus.add(vcpu.index)
                if self.first_hang_time_ns is None:
                    self.first_hang_time_ns = now
                self.raise_alert(
                    "vcpu_hang",
                    vcpu=vcpu.index,
                    silent_for_ns=now - last,
                    partial=not self.is_full_hang,
                )
        if self.is_full_hang and self.full_hang_time_ns is None:
            self.full_hang_time_ns = now
        self.hypertap.engine.schedule(
            self.check_period_ns, self._check, label="goshd-check"
        )

    # ------------------------------------------------------------------
    @property
    def is_full_hang(self) -> bool:
        total = len(self.hypertap.machine.vcpus) if self.hypertap else 0
        return total > 0 and len(self.hung_vcpus) == total

    @property
    def hang_detected(self) -> bool:
        return bool(self.hung_vcpus)

    def hang_alerts(self) -> List[dict]:
        return [a for a in self.alerts if a["kind"] == "vcpu_hang"]


def profile_hang_threshold(
    testbed,
    duration_s: float = 10.0,
    safety_factor: float = 2.0,
) -> int:
    """Derive the GOSHD threshold the way the paper does (§VIII-A1):
    run the guest failure-free, measure the maximum observed interval
    between context switches on any vCPU, and multiply by a safety
    factor ("twice the profiled time").

    Returns the threshold in nanoseconds.  Run the intended workload
    on the testbed before calling so the profile reflects production
    scheduling behaviour.
    """
    from repro.sim.clock import MILLISECOND, SECOND

    kernel = testbed.kernel
    last = {cpu.index: kernel.machine.clock.now for cpu in kernel.cpus}
    switch_counts = {
        cpu.index: cpu.context_switches for cpu in kernel.cpus
    }
    max_gap = 0
    deadline = testbed.engine.clock.now + int(duration_s * SECOND)
    while testbed.engine.clock.now < deadline:
        testbed.engine.run_for(50 * MILLISECOND)
        now = testbed.engine.clock.now
        for cpu in kernel.cpus:
            if cpu.context_switches != switch_counts[cpu.index]:
                switch_counts[cpu.index] = cpu.context_switches
                last[cpu.index] = cpu.last_switch_ns
            gap = now - last[cpu.index]
            if gap > max_gap:
                max_gap = gap
    return int(max_gap * safety_factor)
