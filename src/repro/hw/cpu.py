"""Virtual CPU with guest/host mode and trap-and-emulate semantics.

Every architectural side effect a guest can cause goes through a
``guest_*`` method here; each method consults the VMCS execution
controls and, when the operation is restricted, fires a VM Exit before
(or instead of) applying the effect.  This is the enforcement point for
the paper's claim that software inside the VM cannot tamper with the
hardware invariants: there is simply no other door.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from typing import Any, Deque, Dict, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.hw.ept import EptViolationSignal
from repro.hw.exits import ExitAction, ExitReason, MemAccess, VMExit
from repro.hw.msr import MsrFile
from repro.hw.registers import RegisterFile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.machine import Machine


class CpuMode(enum.Enum):
    GUEST = "guest"
    HOST = "host"


class VCPU:
    """One virtual processor of the guest VM."""

    def __init__(self, index: int, machine: "Machine") -> None:
        self.index = index
        self.machine = machine
        self.regs = RegisterFile()
        self.msrs = MsrFile()
        from repro.hw.vmcs import Vmcs  # local import avoids cycle

        self.vmcs = Vmcs()
        self.mode = CpuMode.GUEST
        #: Interrupt vectors waiting to be serviced at the next
        #: instruction boundary.
        self.pending_interrupts: Deque[int] = deque()
        #: Nanoseconds of work accrued since the guest executor last
        #: collected charges (exit roundtrips, emulation, forwarding).
        self._pending_charge_ns = 0
        self.exit_counts: Counter = Counter()
        #: Guest-local time: total ns this vCPU has executed.
        self.local_time_ns = 0
        self.online = True

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def charge(self, ns: int) -> None:
        """Accrue ``ns`` of work against this vCPU."""
        if ns < 0:
            raise SimulationError("negative charge")
        self._pending_charge_ns += ns

    def collect_charges(self) -> int:
        """Return and reset the accrued work (guest executor hook)."""
        ns = self._pending_charge_ns
        self._pending_charge_ns = 0
        return ns

    # ------------------------------------------------------------------
    # VM Exit machinery
    # ------------------------------------------------------------------
    def _vm_exit(
        self, reason: ExitReason, qualification: Dict[str, Any]
    ) -> VMExit:
        """Transition to host mode, dispatch the exit, return to guest."""
        machine = self.machine
        # Positional: reason, vcpu_index, time_ns, qualification,
        # guest_state, sequence.
        exit_event = VMExit(
            reason,
            self.index,
            machine.clock.now + self._pending_charge_ns,
            qualification,
            self.regs.snapshot(),
            machine.next_exit_sequence(),
        )
        self.vmcs.record_exit(exit_event)
        self.exit_counts[reason] += 1
        self.mode = CpuMode.HOST
        self.charge(machine.costs.vm_exit_roundtrip_ns)
        action = machine.dispatch_exit(self, exit_event)
        self.mode = CpuMode.GUEST
        if action is not None:
            exit_event.qualification.setdefault("action", action)
        return exit_event

    # ------------------------------------------------------------------
    # Control registers
    # ------------------------------------------------------------------
    def guest_write_cr3(self, value: int) -> None:
        """MOV CR3, value — the process-switch instruction."""
        if self.vmcs.controls.cr3_load_exiting:
            self._vm_exit(
                ExitReason.CR_ACCESS, {"cr": 3, "value": value, "op": "write"}
            )
        self.regs.cr3 = int(value)

    def guest_load_tr(self, base: int, selector: int = 0x40) -> None:
        """LTR — performed once per vCPU at guest boot."""
        self.regs.tr_base = int(base)
        self.regs.tr_selector = selector

    # ------------------------------------------------------------------
    # MSRs
    # ------------------------------------------------------------------
    def guest_wrmsr(self, index: int, value: int) -> None:
        if not self.msrs.known(index):
            raise SimulationError(f"guest WRMSR to unknown MSR {index:#x}")
        if self.vmcs.controls.msr_write_exiting:
            self._vm_exit(ExitReason.WRMSR, {"msr": index, "value": value})
        self.msrs.host_write(index, value)

    def guest_rdmsr(self, index: int) -> int:
        return self.msrs.read(index)

    # ------------------------------------------------------------------
    # Memory (always via guest page tables + EPT)
    # ------------------------------------------------------------------
    def _translate(self, gva: int, access: str) -> int:
        return self.machine.page_registry.translate_or_fault(
            self.regs.cr3, gva, access
        )

    def _access_checked(
        self, gpa: int, access: MemAccess, gva: int, value: Optional[int]
    ) -> Optional[int]:
        """Run an EPT-checked access; handles violation exits.

        Returns the host physical address to use, or ``None`` when the
        hypervisor told us to skip the operation.
        """
        try:
            return self.machine.ept.translate(gpa, access)
        except EptViolationSignal:
            qual: Dict[str, Any] = {
                "gpa": gpa,
                "gva": gva,
                "access": access.value,
            }
            if value is not None:
                qual["value"] = value
            exit_event = self._vm_exit(ExitReason.EPT_VIOLATION, qual)
            action = exit_event.qualification.get("action", ExitAction.EMULATE)
            if action is ExitAction.SKIP:
                return None
            # EMULATE: the hypervisor sanctioned the access; complete it
            # bypassing the (intentionally narrowed) EPT permissions.
            return self.machine.ept.translate_nofault(gpa)

    def guest_mem_write_u64(self, gva: int, value: int) -> None:
        gpa = self._translate(gva, "w")
        hpa = self._access_checked(gpa, MemAccess.WRITE, gva, value)
        if hpa is not None:
            self.machine.memory.write_u64(hpa, value)

    def guest_mem_read_u64(self, gva: int) -> int:
        gpa = self._translate(gva, "r")
        hpa = self._access_checked(gpa, MemAccess.READ, gva, None)
        if hpa is None:
            return 0
        return self.machine.memory.read_u64(hpa)

    def guest_exec(self, gva: int) -> None:
        """Instruction fetch at ``gva`` (EPT execute check applies)."""
        gpa = self._translate(gva, "x")
        self._access_checked(gpa, MemAccess.EXECUTE, gva, None)
        self.regs.rip = gva

    # ------------------------------------------------------------------
    # Interrupts and exceptions
    # ------------------------------------------------------------------
    def guest_software_interrupt(self, vector: int) -> None:
        """INT imm8 — the legacy syscall gate among other uses."""
        if vector in self.vmcs.controls.exception_bitmap:
            self._vm_exit(
                ExitReason.EXCEPTION,
                {"ex_type": "SOFTWARE_INT", "vector": vector},
            )

    def accept_external_interrupt(self, vector: int) -> None:
        """Hardware interrupt arrival while in guest mode."""
        if self.vmcs.controls.external_interrupt_exiting:
            self._vm_exit(ExitReason.EXTERNAL_INTERRUPT, {"vector": vector})
        self.charge(self.machine.costs.irq_delivery_ns)

    def guest_hlt(self) -> None:
        if self.vmcs.controls.hlt_exiting:
            self._vm_exit(ExitReason.HLT, {})

    # ------------------------------------------------------------------
    # Port IO
    # ------------------------------------------------------------------
    def guest_io(
        self, port: int, direction: str, size: int = 4, value: int = 0
    ) -> int:
        """IN/OUT instruction; the hypervisor emulates the device."""
        if direction not in ("in", "out"):
            raise SimulationError(f"bad IO direction {direction!r}")
        qual: Dict[str, Any] = {
            "port": port,
            "direction": direction,
            "size": size,
            "value": value,
        }
        if self.vmcs.controls.io_exiting:
            exit_event = self._vm_exit(ExitReason.IO_INSTRUCTION, qual)
            return int(exit_event.qualification.get("result", 0))
        # Without IO exiting the access would hit real hardware; the
        # simulated platform has none, so reads return all-ones.
        return 0xFFFFFFFF if direction == "in" else 0

    # ------------------------------------------------------------------
    # Ring transitions (used by the guest kernel's syscall paths)
    # ------------------------------------------------------------------
    def enter_kernel_mode(self) -> None:
        """User->kernel transition: hardware loads RSP from TSS.RSP0.

        TR.base is a linear (guest-virtual) address; the hardware walks
        the current paging structures to reach the TSS bytes.
        """
        from repro.hw.tss import RSP0_OFFSET

        tss_gpa = self._translate(self.regs.tr_base, "r")
        hpa = self.machine.ept.translate_nofault(tss_gpa + RSP0_OFFSET)
        self.regs.rsp = self.machine.memory.read_u64(hpa)
        self.regs.cpl = 0

    def return_to_user_mode(self) -> None:
        self.regs.cpl = 3
