"""HyperTap framework facade.

Glues together the machine, the KVM hypervisor, the EF/EM pipeline,
the unified channel(s), auditing containers and auditors; exposes the
control interface auditors use (pause/resume, architectural deriver,
process counting).

``mode="unified"`` (default) is the paper's design: one channel, one
trap per event, fan-out after logging.  ``mode="separate"`` exists for
the ablation of DESIGN.md §5 — each auditor gets a private channel and
the EF charges per-monitor trap costs, modelling independently deployed
monitors that cannot share a logging phase.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.auditor import Auditor
from repro.core.channel import UnifiedChannel
from repro.core.derive import ArchDeriver
from repro.errors import ConfigurationError, SimulationError
from repro.hw.machine import Machine
from repro.hypervisor.containers import AuditingContainer
from repro.hypervisor.event_forwarder import EventForwarder
from repro.hypervisor.event_multiplexer import EventMultiplexer
from repro.hypervisor.kvm import KvmHypervisor


class HyperTap:
    """One HyperTap instance protecting one VM."""

    def __init__(
        self,
        machine: Machine,
        hypervisor: KvmHypervisor,
        multiplexer: Optional[EventMultiplexer] = None,
        vm_id: str = "vm0",
        mode: str = "unified",
    ) -> None:
        if mode not in ("unified", "separate"):
            raise ConfigurationError(f"unknown mode {mode!r}")
        self.machine = machine
        self.hypervisor = hypervisor
        self.multiplexer = (
            multiplexer if multiplexer is not None else EventMultiplexer()
        )
        self.vm_id = vm_id
        self.mode = mode
        self.deriver = ArchDeriver(machine)
        #: One registry per pipeline: the EM owns it, every hop shares
        #: it, auditors adopt it at bind time.
        self.metrics = self.multiplexer.metrics
        self.container = AuditingContainer(vm_id, metrics=self.metrics)
        self.auditors: List[Auditor] = []
        self.channels: List[UnifiedChannel] = []
        self.attached = False
        self.engine = machine.engine

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def register_auditor(self, auditor: Auditor) -> None:
        if self.attached:
            raise SimulationError("register auditors before attach()")
        self.auditors.append(auditor)
        self.container.add_auditor(auditor)

    def attach(self) -> None:
        """Configure trapping and start delivering events."""
        if self.attached:
            raise SimulationError("already attached")
        if not self.auditors:
            raise ConfigurationError("no auditors registered")

        if self.mode == "unified":
            needed = set()
            for auditor in self.auditors:
                needed |= set(auditor.subscriptions)
            channel = UnifiedChannel(
                self.machine, self.vm_id, metrics=self.metrics
            )
            channel.build_for_event_types(needed)
            for auditor in self.auditors:
                channel.subscribe(auditor, self.container)
            self.channels = [channel]
        else:
            # One private pipeline per auditor (the ablation baseline).
            self.channels = []
            for auditor in self.auditors:
                channel = UnifiedChannel(
                    self.machine, self.vm_id, metrics=self.metrics
                )
                channel.build_for_event_types(set(auditor.subscriptions))
                channel.subscribe(auditor, self.container)
                self.channels.append(channel)

        forwarder = EventForwarder(self.multiplexer, mode=self.mode)
        self.hypervisor.attach_forwarder(forwarder)
        for channel in self.channels:
            channel.enable_all()
            self.multiplexer.register_consumer(
                self.vm_id, channel.exit_reasons, channel.on_exit
            )
        self.attached = True
        for auditor in self.auditors:
            auditor.bind(self)

    # ------------------------------------------------------------------
    # Control interface for auditors
    # ------------------------------------------------------------------
    def pause_vm(self) -> None:
        """Freeze guest execution (auditor decision, e.g. on attack)."""
        self.machine.vm_paused = True

    def resume_vm(self) -> None:
        self.machine.vm_paused = False

    # ------------------------------------------------------------------
    # Conveniences over channel internals
    # ------------------------------------------------------------------
    @property
    def channel(self) -> UnifiedChannel:
        """The (first) channel — the only one in unified mode."""
        return self.channels[0]

    def count_user_processes(self) -> int:
        """Fig 3A count, excluding the kernel's own address space."""
        counter = None
        for channel in self.channels:
            if channel.process_switches is not None:
                counter = channel.process_switches
                break
        if counter is None:
            raise SimulationError("process-switch interception not enabled")
        total = counter.count_address_spaces()
        # The kernel address space (swapper / init_mm) is not a user
        # process; it is identified architecturally as the PDBA live at
        # the earliest observation... here: the lowest PDBA, which the
        # registry allocates first at boot.
        return max(0, total - 1)

    def stats(self) -> Dict[str, int]:
        out = {
            "exits_handled": self.hypervisor.handled_exits,
            "events_delivered": self.container.delivered,
        }
        for channel in self.channels:
            for event_type, count in channel.events_published.items():
                key = f"published_{event_type.value}"
                out[key] = out.get(key, 0) + count
        return out
