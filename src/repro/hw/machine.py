"""Machine composition: clock, memory, EPT, vCPUs, APICs, devices.

A :class:`Machine` is the physical host of one VM in this reproduction
(the multi-VM host of Fig 2 is modelled by instantiating several
machines that share a host-side event multiplexer).  The hypervisor
registers itself as the machine's *exit dispatcher*; until it does, any
trapped operation is a configuration error.
"""

from __future__ import annotations

import struct  # hypertap: allow(determinism) — guest memory word packing, not trace records
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.hw.apic import LocalApic
from repro.hw.costs import CostModel
from repro.hw.cpu import VCPU
from repro.hw.ept import ExtendedPageTable
from repro.hw.exits import ExitAction, VMExit
from repro.hw.io import ConsoleDevice, DiskDevice, IoBus, NetworkDevice
from repro.hw.memory import PhysicalMemory
from repro.hw.paging import PageTableRegistry
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams

ExitDispatcher = Callable[[VCPU, VMExit], ExitAction]
IrqHandler = Callable[[VCPU, int], None]


@dataclass
class MachineConfig:
    """Hardware shape of the simulated host + VM."""

    num_vcpus: int = 2
    ram_bytes: int = 1024 * 1024 * 1024  # 1 GiB, as in the paper's VM
    seed: int = 0
    costs: CostModel = field(default_factory=CostModel)

    def validate(self) -> None:
        if self.num_vcpus < 1:
            raise ConfigurationError("need at least one vCPU")
        if self.ram_bytes < 16 * 1024 * 1024:
            raise ConfigurationError("need at least 16 MiB of RAM")


class Machine:
    """One simulated physical machine hosting one VM."""

    def __init__(
        self, config: Optional[MachineConfig] = None, engine: Optional[Engine] = None
    ) -> None:
        self.config = config if config is not None else MachineConfig()
        self.config.validate()
        self.engine = engine if engine is not None else Engine()
        self.clock = self.engine.clock
        self.costs = self.config.costs
        self.rng = RandomStreams(self.config.seed)
        self.memory = PhysicalMemory(self.config.ram_bytes)
        self.ept = ExtendedPageTable()
        self.page_registry = PageTableRegistry()
        self.vcpus: List[VCPU] = [
            VCPU(i, self) for i in range(self.config.num_vcpus)
        ]
        self.apics: List[LocalApic] = [
            LocalApic(vcpu, self.engine, self.costs.timer_period_ns)
            for vcpu in self.vcpus
        ]
        self.io_bus = IoBus()
        self.console = ConsoleDevice()
        self.disk = DiskDevice(self)
        self.nic = NetworkDevice(self)
        self.io_bus.attach(self.console)
        self.io_bus.attach(self.disk)
        self.io_bus.attach(self.nic)
        self._exit_dispatcher: Optional[ExitDispatcher] = None
        self._irq_handlers: Dict[int, IrqHandler] = {}
        self._exit_sequence = 0
        self.total_exits = 0
        #: Set by HyperTap's control interface; the guest executor
        #: idles (without running guest code) while this is True.
        self.vm_paused = False

    # ------------------------------------------------------------------
    # Hypervisor attachment
    # ------------------------------------------------------------------
    def set_exit_dispatcher(self, dispatcher: ExitDispatcher) -> None:
        self._exit_dispatcher = dispatcher

    def dispatch_exit(self, vcpu: VCPU, exit_event: VMExit) -> ExitAction:
        if self._exit_dispatcher is None:
            raise SimulationError(
                "VM Exit with no hypervisor attached "
                f"(reason={exit_event.reason.value})"
            )
        self.total_exits += 1
        return self._exit_dispatcher(vcpu, exit_event)

    def next_exit_sequence(self) -> int:
        self._exit_sequence += 1
        return self._exit_sequence

    # ------------------------------------------------------------------
    # IRQ routing (guest kernel registers its handlers)
    # ------------------------------------------------------------------
    def register_irq_handler(self, vector: int, handler: IrqHandler) -> None:
        self._irq_handlers[vector] = handler

    def irq_handler(self, vector: int) -> Optional[IrqHandler]:
        return self._irq_handlers.get(vector)

    # ------------------------------------------------------------------
    # Host-side memory helpers (used by hypervisor / VMI / HyperTap)
    # ------------------------------------------------------------------
    def host_read_u64_gpa(self, gpa: int) -> int:
        return self.memory.read_u64(self.ept.translate_nofault(gpa))

    def host_write_u64_gpa(self, gpa: int, value: int) -> None:
        self.memory.write_u64(self.ept.translate_nofault(gpa), value)

    def host_read_gva(self, pdba: int, gva: int, length: int) -> bytes:
        """Read guest-virtual memory by walking the guest page tables.

        This is the introspection primitive: it relies on the paging
        structures (an architectural object), not on any guest-OS API.
        """
        gpa = self.page_registry.gva_to_gpa(pdba, gva)
        if gpa < 0:
            raise SimulationError(f"host read of unmapped GVA {gva:#x}")
        return self.memory.read_bytes(self.ept.translate_nofault(gpa), length)

    def host_read_u64_gva(self, pdba: int, gva: int) -> int:
        gpa = self.page_registry.gva_to_gpa(pdba, gva)
        if gpa < 0:
            raise SimulationError(f"host read of unmapped GVA {gva:#x}")
        return self.memory.read_u64(self.ept.translate_nofault(gpa))

    def host_write_u64_gva(self, pdba: int, gva: int, value: int) -> None:
        gpa = self.page_registry.gva_to_gpa(pdba, gva)
        if gpa < 0:
            raise SimulationError(f"host write of unmapped GVA {gva:#x}")
        hpa = self.ept.translate_nofault(gpa)
        if type(value) is int and 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            self.memory.write_u64(hpa, value)
        else:
            # Unlike ``write_u64`` this never masks: anything that is
            # not a u64 raises ``struct.error``, as it always has.
            self.memory.write_bytes(hpa, struct.pack("<Q", value))

    # ------------------------------------------------------------------
    # Power control
    # ------------------------------------------------------------------
    def start_timers(self) -> None:
        for apic in self.apics:
            apic.start()

    def stop_timers(self) -> None:
        for apic in self.apics:
            apic.stop()

