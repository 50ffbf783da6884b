"""KVM-like hypervisor: the VM Exit dispatch loop.

Each trapped guest operation lands in :meth:`KvmHypervisor.handle_exit`,
which (i) lets the Event Forwarder see the exit — that is HyperTap's
entire intrusion into the hypervisor — and (ii) emulates the operation:
IO goes to the device bus, monitor-induced EPT violations are completed
transparently, everything else is applied as the guest intended.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from repro.hw.cpu import VCPU
from repro.hw.exits import ExitAction, ExitReason, VMExit
from repro.hw.machine import Machine
from repro.hypervisor.event_forwarder import EventForwarder
from repro.obs.metrics import MetricsRegistry


class KvmHypervisor:
    """Hypervisor instance bound to one machine/VM."""

    def __init__(
        self,
        machine: Machine,
        vm_id: str = "vm0",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.machine = machine
        self.vm_id = vm_id
        self.event_forwarder: Optional[EventForwarder] = None
        self.exit_counts: Counter = Counter()
        self.handled_exits = 0
        #: Exit-rate accounting (``exits{vm, reason}``) in the shared
        #: registry; handles cached per reason off the dispatch path.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._exit_cells: dict = {}
        machine.set_exit_dispatcher(self.handle_exit)

    def attach_forwarder(self, forwarder: EventForwarder) -> None:
        """Install the HyperTap Event Forwarder patch."""
        self.event_forwarder = forwarder

    def detach_forwarder(self) -> None:
        self.event_forwarder = None

    def exit_reason_counts(self) -> Dict[str, int]:
        """Handled exits per reason, keyed by reason value (sorted).

        Introspection hook for the hut self-consistency oracle: the sum
        over this map must equal ``handled_exits``, the machine's
        ``total_exits``, and — when a forwarder is attached for the
        whole run — the forwarder's ``seen``.
        """
        return {
            reason.value: count
            for reason, count in sorted(
                self.exit_counts.items(), key=lambda kv: kv[0].value
            )
        }

    # ------------------------------------------------------------------
    def handle_exit(self, vcpu: VCPU, exit_event: VMExit) -> ExitAction:
        reason = exit_event.reason
        self.handled_exits += 1
        self.exit_counts[reason] += 1
        cell = self._exit_cells.get(reason)
        if cell is None:
            cell = self.metrics.counter(
                "exits", vm=self.vm_id, reason=reason.value
            )
            self._exit_cells[reason] = cell
        cell.value += 1
        vcpu.charge(self.machine.costs.exit_emulation_ns)

        # HyperTap hook: forward before the operation is emulated, so
        # auditors see events *before* their effects (active monitoring
        # can veto by pausing the VM).
        forwarder = self.event_forwarder
        if forwarder is not None:
            # Host-hop trace prefix: spans opened for this exit's
            # derived events inherit the exit->EF->EM path (live-only
            # context; the pipeline-scope export strips it).
            metrics = self.metrics
            if metrics.tracing:
                metrics.host_begin("exit", exit_event.time_ns, reason.value)
            forwarder.on_vm_exit(self.vm_id, vcpu, exit_event)

        if reason is ExitReason.IO_INSTRUCTION:
            result = self.machine.io_bus.access(
                vcpu,
                exit_event.qual("port"),
                exit_event.qual("direction"),
                exit_event.qual("value", 0),
            )
            exit_event.qualification["result"] = result
            return ExitAction.EMULATE
        if reason is ExitReason.EPT_VIOLATION:
            # Monitor-narrowed permissions: complete the access on the
            # guest's behalf (write-and-continue emulation).
            return ExitAction.EMULATE
        if reason is ExitReason.EXTERNAL_INTERRUPT:
            return ExitAction.REFLECT
        # CR_ACCESS, WRMSR, EXCEPTION, HLT, APIC_ACCESS: apply as-is.
        return ExitAction.EMULATE
