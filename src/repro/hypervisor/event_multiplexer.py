"""Event Multiplexer (EM): fan-out of logged events.

The EM is a host-side module independent of the hypervisor.  It:

* hands each event to the VM's registered consumers (HyperTap unified
  channels, which drive interception algorithms and auditors) as it
  arrives from the EF, so it keeps no event backlog of its own,
* samples every Nth event to the Remote Health Checker so an external
  machine can detect death of the monitoring pipeline itself.

Submission and delivery are accounted per ``(vm, reason)`` in the
shared :class:`~repro.obs.metrics.MetricsRegistry` (``em.submitted`` /
``em.delivered``); the scalar ``submitted`` / ``delivered`` views are
sums over those rows.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.hw.cpu import VCPU
from repro.hw.exits import ExitReason, VMExit
from repro.hypervisor.rhc import RemoteHealthChecker
from repro.obs.metrics import Counter, MetricsRegistry

#: A consumer declares which exit reasons it wants, then receives
#: (vcpu, exit) pairs for those reasons.
Consumer = Callable[[VCPU, VMExit], None]


class HeartbeatSampler:
    """Every-Nth-event heartbeat forwarding to the RHC.

    Factored out of the EM so other event pumps (notably the trace
    replayer in ``repro.replay``) report liveness the exact same way:
    the RHC cannot tell a replayed pipeline from a live one, which is
    what lets replay regression-test the RHC itself.
    """

    def __init__(
        self,
        rhc: Optional[RemoteHealthChecker],
        sample_every: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.rhc = rhc
        self.sample_every = max(1, sample_every)
        self.seen = 0
        self._sampled = (
            metrics.counter("heartbeat.sampled") if metrics is not None else None
        )

    def observe(self, time_ns: int) -> None:
        """Note one pipeline event; forward every Nth to the RHC."""
        self.seen += 1
        if self.rhc is not None and self.seen % self.sample_every == 0:
            self.rhc.heartbeat(time_ns)
            if self._sampled is not None:
                self._sampled.value += 1


class EventMultiplexer:
    """Host-wide event fan-out (one instance per physical host)."""

    def __init__(
        self,
        rhc: Optional[RemoteHealthChecker] = None,
        rhc_sample_every: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._sampler = HeartbeatSampler(
            rhc, rhc_sample_every, metrics=self.metrics
        )
        #: Fan-out index: vm_id -> exit reason -> consumers wanting it,
        #: in registration order.  Precomputed at registration time so
        #: the per-event hot path is a dict hit, not a scan over every
        #: consumer's interest set.
        self._by_reason: Dict[str, Dict[ExitReason, List[Consumer]]] = {}
        #: Cached registry handles per (vm, reason).
        self._submit_cells: Dict[Tuple[str, ExitReason], Counter] = {}
        self._deliver_cells: Dict[Tuple[str, ExitReason], Counter] = {}

    # ------------------------------------------------------------------
    # RHC sampling (delegated to the shared sampler)
    # ------------------------------------------------------------------
    @property
    def rhc(self) -> Optional[RemoteHealthChecker]:
        return self._sampler.rhc

    @rhc.setter
    def rhc(self, rhc: Optional[RemoteHealthChecker]) -> None:
        self._sampler.rhc = rhc

    @property
    def rhc_sample_every(self) -> int:
        return self._sampler.sample_every

    @rhc_sample_every.setter
    def rhc_sample_every(self, every: int) -> None:
        self._sampler.sample_every = max(1, every)

    # ------------------------------------------------------------------
    # Registry-backed accounting
    # ------------------------------------------------------------------
    @property
    def submitted(self) -> int:
        """Exits submitted, summed over every (vm, reason) row."""
        return self.metrics.total("em.submitted")

    @property
    def delivered(self) -> int:
        """Per-consumer deliveries, summed over every (vm, reason) row."""
        return self.metrics.total("em.delivered")

    def _cell(
        self,
        cache: Dict[Tuple[str, ExitReason], Counter],
        name: str,
        vm_id: str,
        reason: ExitReason,
    ) -> Counter:
        key = (vm_id, reason)
        cell = cache.get(key)
        if cell is None:
            cell = self.metrics.counter(name, vm=vm_id, reason=reason.value)
            cache[key] = cell
        return cell

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_consumer(
        self, vm_id: str, reasons: frozenset, consumer: Consumer
    ) -> None:
        """Attach a consumer for ``reasons`` on ``vm_id``'s events."""
        index = self._by_reason.setdefault(vm_id, {})
        for reason in reasons:
            index.setdefault(reason, []).append(consumer)

    def interest_count(self, vm_id: str, reason: ExitReason) -> int:
        """How many consumers want this exit reason (EF filter)."""
        index = self._by_reason.get(vm_id)
        if not index:
            return 0
        return len(index.get(reason, ()))

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def submit(self, vm_id: str, vcpu: VCPU, exit_event: VMExit) -> None:
        self._cell(
            self._submit_cells, "em.submitted", vm_id, exit_event.reason
        ).value += 1
        self.metrics.host_hop("em", exit_event.time_ns)

        self._sampler.observe(exit_event.time_ns)

        index = self._by_reason.get(vm_id)
        if index:
            consumers = index.get(exit_event.reason)
            if consumers:
                for consumer in consumers:
                    consumer(vcpu, exit_event)
                self._cell(
                    self._deliver_cells,
                    "em.delivered",
                    vm_id,
                    exit_event.reason,
                ).value += len(consumers)
