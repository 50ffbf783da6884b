"""Auditing containers: LXC-like isolation for auditors.

The paper runs each VM's auditors as user processes inside containers
on the host, arguing three benefits: failure isolation between VMs'
auditors (and from the host), cheap event delivery, and easy
deployment.  Here the container boundary is a fault-containment
wrapper: an auditor that throws is quarantined and its events dropped,
while the EM and every other container keep running.

Delivery outcomes are accounted per ``(vm, auditor, type)`` in the
shared registry (``flow.delivered`` / ``flow.dropped`` with a
``reason`` of ``crash`` for the quarantining delivery itself or
``quarantined`` for everything dropped afterwards).  Infrastructure
riders — the trace recorder, the fuzzer's coverage probe
(:data:`~repro.obs.metrics.INFRA_AUDITORS`) — are excluded so the same
registry rows come out of a live run and a replay of its trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.obs.metrics import INFRA_AUDITORS, Counter, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.auditor import Auditor
    from repro.core.events import EventType, GuestEvent


class AuditingContainer:
    """One container hosting the auditors of one VM."""

    def __init__(
        self,
        vm_id: str,
        liveness=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.vm_id = vm_id
        self.auditors: List["Auditor"] = []
        self.failed = False
        self.failure_reason: Optional[str] = None
        self.delivered = 0
        self.dropped = 0
        #: Duck-typed liveness observer: anything with
        #: ``heartbeat(t_ns, channel=...)`` (the RHC qualifies).  Only
        #: *successful* deliveries beat — a quarantined container goes
        #: silent on its channel, which is exactly the signal a
        #: per-channel health check needs.
        self.liveness = liveness
        self.metrics = metrics
        self._cells: Dict[Tuple[str, str, "EventType"], Counter] = {}

    def add_auditor(self, auditor: "Auditor") -> None:
        self.auditors.append(auditor)

    def _count(self, name: str, auditor_name: str, event: "GuestEvent",
               reason: Optional[str] = None) -> None:
        event_type = event.type
        key = (name, auditor_name, event_type)
        cell = self._cells.get(key) if reason is None else None
        if cell is None:
            labels = {
                "vm": self.vm_id,
                "auditor": auditor_name,
                "type": event_type.value,
            }
            if reason is not None:
                labels["reason"] = reason
            cell = self.metrics.counter(name, **labels)
            if reason is None:
                self._cells[key] = cell
        cell.value += 1

    def deliver(self, auditor: "Auditor", event: "GuestEvent") -> None:
        """Deliver one event; a crash quarantines the whole container
        (its process group dies) without touching the EM."""
        observed = (
            self.metrics is not None and auditor.name not in INFRA_AUDITORS
        )
        if self.failed:
            self.dropped += 1
            if observed:
                self._count(
                    "flow.dropped", auditor.name, event, reason="quarantined"
                )
            return
        try:
            auditor.on_event(event)
            self.delivered += 1
        except Exception as exc:  # noqa: BLE001 - the container boundary
            self.failed = True
            self.failure_reason = f"{type(exc).__name__}: {exc}"
            self.dropped += 1
            if observed:
                self._count(
                    "flow.dropped", auditor.name, event, reason="crash"
                )
            return
        if observed:
            self._count("flow.delivered", auditor.name, event)
            self.metrics.span_hop(
                "deliver", event.time_ns, auditor.name
            )
        if self.liveness is not None:
            self.liveness.heartbeat(
                getattr(event, "time_ns", 0), channel=self.vm_id
            )
