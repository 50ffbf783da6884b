"""Vigilant-style out-of-band failure detection (§VII-D / [21]).

Pelleg et al.'s Vigilant detects guest failures by applying machine
learning to hypervisor-level counters.  The paper notes such detectors
"can benefit greatly from HyperTap's common logging infrastructure and
the counters it provides (e.g., different types of events and states,
which directly reflect the operations of guest VMs)".

This auditor is that integration: it samples per-window feature
vectors from HyperTap's own event stream — thread-switch rate, syscall
rate, IO rate, per-vCPU switch share — learns their healthy ranges
during a training phase (a simple per-feature envelope model with a
tolerance margin: a transparent stand-in for the paper's classifier),
and raises an anomaly when consecutive windows fall outside the
envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.auditor import Auditor
from repro.core.events import (
    EventType,
    GuestEvent,
    IOEvent,
    SyscallEvent,
    ThreadSwitchEvent,
)
from repro.sim.clock import SECOND


@dataclass
class FeatureWindow:
    """Counters accumulated over one sampling window."""

    thread_switches: int = 0
    syscalls: int = 0
    io_events: int = 0
    per_vcpu_switches: Dict[int, int] = field(default_factory=dict)

    def vector(self, num_vcpus: int) -> List[float]:
        switches = [
            float(self.per_vcpu_switches.get(i, 0)) for i in range(num_vcpus)
        ]
        return [
            float(self.thread_switches),
            float(self.syscalls),
            float(self.io_events),
            min(switches) if switches else 0.0,
        ]


FEATURE_NAMES = ("switch_rate", "syscall_rate", "io_rate", "min_vcpu_switches")


@dataclass
class Envelope:
    """Learned [lo, hi] band per feature, widened by a margin."""

    lows: List[float]
    highs: List[float]

    def violations(self, vector: List[float]) -> List[str]:
        out = []
        for name, value, lo, hi in zip(
            FEATURE_NAMES, vector, self.lows, self.highs
        ):
            if value < lo or value > hi:
                out.append(f"{name}={value:.0f} outside [{lo:.0f},{hi:.0f}]")
        return out


class VigilantDetector(Auditor):
    """Learned-envelope failure detector over HyperTap counters."""

    name = "vigilant"
    subscriptions = {
        EventType.THREAD_SWITCH,
        EventType.SYSCALL,
        EventType.IO,
    }

    def __init__(
        self,
        window_ns: int = 1 * SECOND,
        training_windows: int = 10,
        margin: float = 0.5,
        alarm_after: int = 2,
    ) -> None:
        super().__init__()
        self.window_ns = window_ns
        self.training_windows = training_windows
        self.margin = margin
        self.alarm_after = alarm_after
        self._current = FeatureWindow()
        self._training: List[List[float]] = []
        self.envelope: Optional[Envelope] = None
        self._consecutive_bad = 0
        self.windows_seen = 0

    # ------------------------------------------------------------------
    def on_attach(self) -> None:
        self.hypertap.engine.schedule(
            self.window_ns, self._close_window, label="vigilant-window"
        )

    # ------------------------------------------------------------------
    def audit(self, event: GuestEvent) -> None:
        if isinstance(event, ThreadSwitchEvent):
            self._current.thread_switches += 1
            per = self._current.per_vcpu_switches
            per[event.vcpu_index] = per.get(event.vcpu_index, 0) + 1
        elif isinstance(event, SyscallEvent):
            self._current.syscalls += 1
        elif isinstance(event, IOEvent):
            self._current.io_events += 1

    # ------------------------------------------------------------------
    def _close_window(self) -> None:
        num_vcpus = len(self.hypertap.machine.vcpus)
        vector = self._current.vector(num_vcpus)
        self._current = FeatureWindow()
        self.windows_seen += 1

        if self.envelope is None:
            self._training.append(vector)
            if len(self._training) >= self.training_windows:
                self._fit()
        else:
            violations = self.envelope.violations(vector)
            if violations:
                self._consecutive_bad += 1
                if self._consecutive_bad == self.alarm_after:
                    self.raise_alert(
                        "behavioral_anomaly", violations=violations
                    )
            else:
                self._consecutive_bad = 0

        self.hypertap.engine.schedule(
            self.window_ns, self._close_window, label="vigilant-window"
        )

    def _fit(self) -> None:
        dims = len(FEATURE_NAMES)
        lows, highs = [], []
        for d in range(dims):
            column = [v[d] for v in self._training]
            lo, hi = min(column), max(column)
            span = max(hi - lo, 1.0)
            lows.append(max(0.0, lo - self.margin * span))
            highs.append(hi + self.margin * span)
        self.envelope = Envelope(lows=lows, highs=highs)

    @property
    def trained(self) -> bool:
        return self.envelope is not None

    @property
    def anomalies(self):
        return [a for a in self.alerts if a["kind"] == "behavioral_anomaly"]
