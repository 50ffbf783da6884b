"""Event Forwarder (EF): the in-KVM half of the unified logging channel.

The EF forwards VM Exit events plus the saved guest hardware state to
the Event Multiplexer.  Forwarding is non-blocking by default — the
vCPU pays a small enqueue cost and resumes — but subscribed *blocking*
auditors make the logging phase synchronous for the events they watch
(the paper's "an auditor may pause its target VM during analysis").

Cost accounting implements the ablation of DESIGN.md §5: in
``unified`` mode a shared event is paid for once regardless of how many
monitors consume it; in ``separate`` mode (modelling one trap pipeline
per monitor) every interested monitor charges its own exit-sized cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.hw.cpu import VCPU
from repro.hw.exits import VMExit
from repro.obs.metrics import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.event_multiplexer import EventMultiplexer


class EventForwarder:
    """Forwards relevant exits from the hypervisor to the EM."""

    def __init__(self, multiplexer: "EventMultiplexer", mode: str = "unified"):
        if mode not in ("unified", "separate"):
            raise ConfigurationError(f"unknown forwarding mode {mode!r}")
        self.multiplexer = multiplexer
        self.mode = mode
        self.forwarded = 0
        self.suppressed = 0
        #: Per-(vm, reason) accounting rides the multiplexer's registry;
        #: handles are cached here (forwarders are recreated per attach,
        #: so the cache cannot outlive its rows).
        self._cells: dict = {}

    @property
    def seen(self) -> int:
        """Exits observed by the EF: ``forwarded + suppressed``.

        Conservation invariant: every exit the hypervisor handles while
        this forwarder is attached shows up in exactly one of the two
        counters, so ``seen`` must equal the hypervisor's handled-exit
        count — the check the hut self-consistency oracle enforces.
        """
        return self.forwarded + self.suppressed

    def _cell(self, name: str, vm_id: str, reason) -> Counter:
        key = (name, vm_id, reason)
        cell = self._cells.get(key)
        if cell is None:
            cell = self.multiplexer.metrics.counter(
                name, vm=vm_id, reason=reason.value
            )
            self._cells[key] = cell
        return cell

    def on_vm_exit(self, vm_id: str, vcpu: VCPU, exit_event: VMExit) -> None:
        reason = exit_event.reason
        interested = self.multiplexer.interest_count(vm_id, reason)
        if interested == 0:
            # Most exits end here: count them off the cached cell.
            self.suppressed += 1
            cell = self._cells.get(("ef.suppressed", vm_id, reason))
            if cell is None:
                cell = self._cell("ef.suppressed", vm_id, reason)
            cell.value += 1
            return
        costs = vcpu.machine.costs
        if self.mode == "unified":
            vcpu.charge(costs.ef_forward_ns + costs.em_enqueue_ns)
        else:
            # Separate pipelines: each monitor traps the event itself,
            # paying a full exit roundtrip + forward per monitor beyond
            # the first (whose exit already happened).
            extra = interested - 1
            vcpu.charge(
                interested * (costs.ef_forward_ns + costs.em_enqueue_ns)
                + extra * costs.vm_exit_roundtrip_ns
            )
        self.forwarded += 1
        self._cell("ef.forwarded", vm_id, reason).value += 1
        self.multiplexer.metrics.host_hop("ef", exit_event.time_ns)
        self.multiplexer.submit(vm_id, vcpu, exit_event)
