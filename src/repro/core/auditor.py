"""Auditor programming model.

An auditor declares the derived event types it needs, receives events
from the unified channel (inside an auditing container), and may use
the framework's control interface (pause/resume the VM) and the
architectural deriver to turn hardware state into OS state.

Audits are non-blocking by default: analysis proceeds in parallel with
the target VM (the event's vCPU pays only logging costs).  A blocking
auditor makes the logging phase synchronous for its events — the vCPU
is charged the audit time — which is how an auditor can guarantee it
checks *before* a monitored operation's effects (Section V-B).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Set, TYPE_CHECKING

from repro.core.events import EventType, GuestEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hypertap import HyperTap
    from repro.obs.metrics import MetricsRegistry


class Auditor:
    """Base class for all RnS auditors."""

    #: Human-readable auditor name.
    name = "auditor"
    #: Derived event types this auditor subscribes to.
    subscriptions: Set[EventType] = set()
    #: If True, audits run synchronously with the trapped operation.
    blocking = False

    def __init__(self) -> None:
        self.hypertap: Optional["HyperTap"] = None
        self.events_seen: Counter = Counter()
        self.alerts: list = []
        #: Shared observability registry, adopted from the framework at
        #: bind time (None when the pipeline runs uninstrumented).
        self.metrics: Optional["MetricsRegistry"] = None
        self._last_event_ns: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, hypertap: "HyperTap") -> None:
        """Called by the framework when monitoring is attached."""
        self.hypertap = hypertap
        self.metrics = getattr(hypertap, "metrics", None)
        self.on_attach()

    def on_attach(self) -> None:
        """Hook for auditors that need setup (timers, baselines)."""

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def on_event(self, event: GuestEvent) -> None:
        """Receive one derived event; subclasses override ``audit``."""
        self.events_seen[event.type] += 1
        self._last_event_ns = event.time_ns
        self.audit(event)

    def audit(self, event: GuestEvent) -> None:
        raise NotImplementedError

    def wants_blocking(self, event: GuestEvent) -> bool:
        """Should *this* event be audited synchronously?

        Blocking auditors may relax to asynchronous delivery for events
        they merely observe (the vCPU then only pays logging costs);
        the default blocks on everything when ``blocking`` is set.
        """
        return self.blocking

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def raise_alert(self, kind: str, **details) -> dict:
        """Record a detection; returns the alert record.

        This is the one place every auditor's verdicts pass through, so
        it is where the framework accounts them: a ``verdicts`` counter
        per ``(vm, auditor, kind)``, the exit-to-verdict latency
        histogram (last triggering event's exit timestamp -> this
        verdict's timestamp, both virtual-clock — identical live and in
        replay because the alert timestamps themselves reproduce), and
        a ``verdict`` hop on the flow span — the open one when the
        alert is raised during delivery, or a synthesized timer root
        span for watchdog verdicts that fire outside any delivery (so
        every verdict has a root span; see
        ``MetricsRegistry.span_verdict``).
        """
        alert = {
            "time_ns": self.hypertap.machine.clock.now if self.hypertap else 0,
            "auditor": self.name,
            "kind": kind,
            **details,
        }
        self.alerts.append(alert)
        metrics = self.metrics
        if metrics is not None:
            vm_id = getattr(self.hypertap, "vm_id", "vm0")
            metrics.inc("verdicts", vm=vm_id, auditor=self.name, kind=kind)
            if self._last_event_ns is not None:
                metrics.observe(
                    "latency.exit_to_verdict_ns",
                    max(0, alert["time_ns"] - self._last_event_ns),
                    vm=vm_id,
                    auditor=self.name,
                )
            metrics.span_verdict(
                vm_id,
                alert["time_ns"],
                self.name,
                kind,
                start_ns=self._last_event_ns,
            )
        return alert

    @property
    def alarmed(self) -> bool:
        return bool(self.alerts)
