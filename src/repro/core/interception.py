"""The interception algorithms of Fig 3 and Section VI.

Each interceptor consumes raw VM Exits and emits derived events through
an ``emit`` callback supplied by the unified channel.  Interceptors are
stateful (PDBA sets, protected-page maps, saved TR values) and operate
purely on exit-time hardware state + EPT configuration — never on
guest cooperation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.core.events import (
    GuestEvent,
    IOEvent,
    MemoryAccessEvent,
    ProcessSwitchEvent,
    RawExitEvent,
    SyscallEvent,
    ThreadSwitchEvent,
    TssIntegrityAlert,
)
from repro.guest.layouts import KNOWN_KERNEL_GVA
from repro.hw.cpu import VCPU
from repro.hw.exits import ExitReason, VMExit
from repro.hw.machine import Machine
from repro.hw.msr import IA32_SYSENTER_EIP
from repro.hw.paging import UNMAPPED_GVA
from repro.hw.tss import RSP0_OFFSET
from repro.hw.vmcs import VECTOR_SOFTWARE_INT_LINUX, VECTOR_SOFTWARE_INT_WINDOWS

Emit = Callable[[GuestEvent], None]


class Interceptor:
    """Base class: lifecycle + exit filtering."""

    #: Exit reasons this interceptor wants to see.
    reasons: frozenset = frozenset()

    def __init__(self, machine: Machine, vm_id: str, emit: Emit) -> None:
        self.machine = machine
        self.vm_id = vm_id
        self.emit = emit

    def enable(self) -> None:
        """Configure VMCS/EPT so the needed exits occur."""

    def on_exit(self, vcpu: VCPU, exit_event: VMExit) -> None:
        raise NotImplementedError

    # Helper shared by several interceptors: translate a kernel GVA
    # using any live address space (kernel mappings are shared).
    def _kernel_gva_to_gpa(self, gva: int) -> Optional[int]:
        registry = self.machine.page_registry
        for space in registry.live_spaces():
            gpa = registry.gva_to_gpa(space.pdba, gva)
            if gpa != UNMAPPED_GVA:
                return gpa
        return None


# ======================================================================
# Fig 3A — Process switch interception + process counting
# ======================================================================
class ProcessSwitchInterceptor(Interceptor):
    """CR3 writes -> ProcessSwitchEvent; maintains the PDBA set."""

    reasons = frozenset({ExitReason.CR_ACCESS})

    def __init__(self, machine: Machine, vm_id: str, emit: Emit) -> None:
        super().__init__(machine, vm_id, emit)
        #: Fig 3A's ``PDBA_set``: every page-directory base observed
        #: being loaded into CR3.
        self.pdba_set: Set[int] = set()
        self.switch_count = 0

    def enable(self) -> None:
        for vcpu in self.machine.vcpus:
            vcpu.vmcs.controls.cr3_load_exiting = True
            # A booted guest already has a PDBA loaded.
            if vcpu.regs.cr3:
                self.pdba_set.add(vcpu.regs.cr3)

    def on_exit(self, vcpu: VCPU, exit_event: VMExit) -> None:
        if exit_event.qual("cr") != 3 or exit_event.qual("op") != "write":
            return
        new_pdba = exit_event.qual("value")
        old_pdba = exit_event.guest_state.cr3 if exit_event.guest_state else 0
        self.pdba_set.add(new_pdba)
        self.switch_count += 1
        self.emit(
            ProcessSwitchEvent(
                time_ns=exit_event.time_ns,
                vcpu_index=vcpu.index,
                vm_id=self.vm_id,
                hw_state=exit_event.guest_state,
                new_pdba=new_pdba,
                old_pdba=old_pdba,
            )
        )

    # ------------------------------------------------------------------
    def count_address_spaces(self) -> int:
        """Fig 3A's ``Count the Virtual Address Spaces``.

        Literally: save CR3, load each remembered PDBA, probe a known
        GVA; evict PDBAs whose paging structures no longer translate
        (the process died); restore CR3.
        """
        vcpu = self.machine.vcpus[0]
        saved_cr3 = vcpu.regs.cr3
        registry = self.machine.page_registry
        dead: List[int] = []
        for pdba in self.pdba_set:
            vcpu.regs.cr3 = pdba  # host-side load (Step 1)
            gpa = registry.gva_to_gpa(vcpu.regs.cr3, KNOWN_KERNEL_GVA)
            if gpa == UNMAPPED_GVA:  # Step 2 failed: stale PDBA
                dead.append(pdba)
        vcpu.regs.cr3 = saved_cr3
        for pdba in dead:
            self.pdba_set.discard(pdba)
        return len(self.pdba_set)


# ======================================================================
# Fig 3B — Thread switch interception (TSS write-protection)
# ======================================================================
class ThreadSwitchInterceptor(Interceptor):
    """EPT write-protects each vCPU's TSS; RSP0 writes -> events."""

    reasons = frozenset({ExitReason.CR_ACCESS, ExitReason.EPT_VIOLATION})

    def __init__(self, machine: Machine, vm_id: str, emit: Emit) -> None:
        super().__init__(machine, vm_id, emit)
        #: vcpu index -> GPA of its TSS.RSP0 field.
        self._rsp0_gpas: Dict[int, int] = {}
        self._protected = False
        self.switch_count = 0

    def enable(self) -> None:
        # CR3 exiting doubles as our bootstrap trigger (Fig 3B waits
        # for the first CR_ACCESS); if the guest is already up we can
        # protect immediately.
        for vcpu in self.machine.vcpus:
            vcpu.vmcs.controls.cr3_load_exiting = True
        self._try_protect()

    def _try_protect(self) -> None:
        """Write-protect every vCPU's TSS page once TR is valid."""
        if self._protected:
            return
        pending: Dict[int, int] = {}
        for vcpu in self.machine.vcpus:
            if vcpu.regs.tr_base == 0:
                return  # guest not far enough into boot yet
            gpa = self._kernel_gva_to_gpa(vcpu.regs.tr_base)
            if gpa is None:
                return
            pending[vcpu.index] = gpa + RSP0_OFFSET
        for vcpu_index, rsp0_gpa in pending.items():
            self.machine.ept.set_permissions(rsp0_gpa, write=False)
            self._rsp0_gpas[vcpu_index] = rsp0_gpa
        self._protected = True

    def on_exit(self, vcpu: VCPU, exit_event: VMExit) -> None:
        if exit_event.reason is ExitReason.CR_ACCESS:
            self._try_protect()
            return
        if not self._protected:
            return
        if exit_event.qual("access") != "w":
            return
        rsp0_gpa = self._rsp0_gpas.get(vcpu.index)
        if rsp0_gpa is None or exit_event.qual("gpa") != rsp0_gpa:
            return
        value = exit_event.qual("value")
        if value is None:
            return
        self.switch_count += 1
        self.emit(
            ThreadSwitchEvent(
                time_ns=exit_event.time_ns,
                vcpu_index=vcpu.index,
                vm_id=self.vm_id,
                hw_state=exit_event.guest_state,
                rsp0=value,
            )
        )


# ======================================================================
# Fig 3C — TSS integrity checking
# ======================================================================
class TssIntegrityChecker(Interceptor):
    """Alerts if TR ever moves after boot (TSS relocation attack)."""

    reasons = frozenset(set(ExitReason))

    def __init__(self, machine: Machine, vm_id: str, emit: Emit) -> None:
        super().__init__(machine, vm_id, emit)
        self._saved_tr: Dict[int, int] = {}
        self.alerts = 0

    def enable(self) -> None:
        for vcpu in self.machine.vcpus:
            if vcpu.regs.tr_base:
                self._saved_tr[vcpu.index] = vcpu.regs.tr_base

    def on_exit(self, vcpu: VCPU, exit_event: VMExit) -> None:
        saved = self._saved_tr.get(vcpu.index)
        current = vcpu.regs.tr_base
        if saved is None:
            if current:
                self._saved_tr[vcpu.index] = current
            return
        if current != saved:
            self.alerts += 1
            self.emit(
                TssIntegrityAlert(
                    time_ns=exit_event.time_ns,
                    vcpu_index=vcpu.index,
                    vm_id=self.vm_id,
                    hw_state=exit_event.guest_state,
                    saved_tr=saved,
                    current_tr=current,
                )
            )
            self._saved_tr[vcpu.index] = current  # alert once per move


# ======================================================================
# Fig 3D — Interrupt-based system call interception
# ======================================================================
class Int80SyscallInterceptor(Interceptor):
    """Software interrupts 0x80/0x2E -> SyscallEvent."""

    reasons = frozenset({ExitReason.EXCEPTION})

    def __init__(self, machine: Machine, vm_id: str, emit: Emit) -> None:
        super().__init__(machine, vm_id, emit)
        self.syscall_count = 0

    def enable(self) -> None:
        for vcpu in self.machine.vcpus:
            vcpu.vmcs.controls.exception_bitmap.add(VECTOR_SOFTWARE_INT_LINUX)
            vcpu.vmcs.controls.exception_bitmap.add(
                VECTOR_SOFTWARE_INT_WINDOWS
            )

    def on_exit(self, vcpu: VCPU, exit_event: VMExit) -> None:
        if exit_event.qual("ex_type") != "SOFTWARE_INT":
            return
        vector = exit_event.qual("vector")
        if vector not in (
            VECTOR_SOFTWARE_INT_LINUX,
            VECTOR_SOFTWARE_INT_WINDOWS,
        ):
            return
        state = exit_event.guest_state
        self.syscall_count += 1
        self.emit(
            SyscallEvent(
                time_ns=exit_event.time_ns,
                vcpu_index=vcpu.index,
                vm_id=self.vm_id,
                hw_state=state,
                number=state.rax,
                args=(state.rbx, state.rcx, state.rdx),
                mechanism="int80",
            )
        )


# ======================================================================
# Fig 3E — Fast system call interception
# ======================================================================
class FastSyscallInterceptor(Interceptor):
    """WRMSR reveals the SYSENTER target; execute-protecting its page
    turns each fast syscall into an EPT violation."""

    reasons = frozenset({ExitReason.WRMSR, ExitReason.EPT_VIOLATION})

    def __init__(self, machine: Machine, vm_id: str, emit: Emit) -> None:
        super().__init__(machine, vm_id, emit)
        self.syscall_entry: Optional[int] = None
        self.syscall_count = 0

    def enable(self) -> None:
        # If the guest already programmed the MSR (attach-after-boot),
        # read it from the (host-visible) MSR file.
        for vcpu in self.machine.vcpus:
            entry = vcpu.msrs.read(IA32_SYSENTER_EIP)
            if entry:
                self._protect_entry(entry)
                break

    def _protect_entry(self, entry_gva: int) -> None:
        gpa = self._kernel_gva_to_gpa(entry_gva)
        if gpa is None:
            return
        self.syscall_entry = entry_gva
        self.machine.ept.set_permissions(gpa, execute=False)

    def on_exit(self, vcpu: VCPU, exit_event: VMExit) -> None:
        if exit_event.reason is ExitReason.WRMSR:
            if exit_event.qual("msr") == IA32_SYSENTER_EIP:
                # Fig 3E: the guest's own SYSENTER_EIP write names the
                # page to execute-protect; acting on it only ever
                # *narrows* EPT permissions, so a lying guest can at
                # worst trap its own syscall entry (fail-safe).
                # hypertap: allow(flow.guest-taint) — fail-safe Fig 3E crossing, see above
                self._protect_entry(exit_event.qual("value"))
            return
        if exit_event.qual("access") != "x":
            return
        if (
            self.syscall_entry is None
            or exit_event.qual("gva") != self.syscall_entry
        ):
            return
        state = exit_event.guest_state
        self.syscall_count += 1
        self.emit(
            SyscallEvent(
                time_ns=exit_event.time_ns,
                vcpu_index=vcpu.index,
                vm_id=self.vm_id,
                hw_state=state,
                number=state.rax,
                args=(state.rbx, state.rcx, state.rdx),
                mechanism="sysenter",
            )
        )


# ======================================================================
# Section VI-C — IO access interception
# ======================================================================
class IOInterceptor(Interceptor):
    """PIO, IO interrupts, and APIC accesses -> IOEvent."""

    reasons = frozenset(
        {
            ExitReason.IO_INSTRUCTION,
            ExitReason.EXTERNAL_INTERRUPT,
            ExitReason.APIC_ACCESS,
        }
    )

    def __init__(self, machine: Machine, vm_id: str, emit: Emit) -> None:
        super().__init__(machine, vm_id, emit)
        self.io_count = 0

    def on_exit(self, vcpu: VCPU, exit_event: VMExit) -> None:
        if exit_event.reason is ExitReason.IO_INSTRUCTION:
            kind = "pio"
            detail = {
                "port": exit_event.qual("port"),
                "direction": exit_event.qual("direction"),
            }
        elif exit_event.reason is ExitReason.EXTERNAL_INTERRUPT:
            kind = "interrupt"
            detail = {"vector": exit_event.qual("vector")}
        else:
            kind = "apic"
            detail = dict(exit_event.qualification)
        self.io_count += 1
        self.emit(
            IOEvent(
                time_ns=exit_event.time_ns,
                vcpu_index=vcpu.index,
                vm_id=self.vm_id,
                hw_state=exit_event.guest_state,
                kind=kind,
                detail=detail,
            )
        )


# ======================================================================
# Section VI-D — Fine-grained interception
# ======================================================================
class FineGrainedTracer(Interceptor):
    """Watch selected guest pages at single-access granularity.

    Expensive by design; the paper advises using it only for selective
    critical protection.  Pages are watched by GPA.
    """

    reasons = frozenset({ExitReason.EPT_VIOLATION})

    def __init__(self, machine: Machine, vm_id: str, emit: Emit) -> None:
        super().__init__(machine, vm_id, emit)
        self._watched_pages: Set[int] = set()
        self.access_count = 0

    def watch_gpa(
        self, gpa: int, read: bool = False, write: bool = True,
        execute: bool = False,
    ) -> None:
        """Narrow permissions so the selected access kinds trap."""
        from repro.hw.memory import page_base

        self._watched_pages.add(page_base(gpa))
        self.machine.ept.set_permissions(
            gpa,
            read=False if read else None,
            write=False if write else None,
            execute=False if execute else None,
        )

    def on_exit(self, vcpu: VCPU, exit_event: VMExit) -> None:
        from repro.hw.memory import page_base

        gpa = exit_event.qual("gpa")
        if gpa is None or page_base(gpa) not in self._watched_pages:
            return
        self.access_count += 1
        self.emit(
            MemoryAccessEvent(
                time_ns=exit_event.time_ns,
                vcpu_index=vcpu.index,
                vm_id=self.vm_id,
                hw_state=exit_event.guest_state,
                gva=exit_event.qual("gva", 0),
                gpa=gpa,
                access=exit_event.qual("access", "w"),
            )
        )


# ======================================================================
# Raw exit pass-through
# ======================================================================
class RawExitInterceptor(Interceptor):
    """Publishes every exit as a RawExitEvent (firehose consumers)."""

    reasons = frozenset(set(ExitReason))

    def on_exit(self, vcpu: VCPU, exit_event: VMExit) -> None:
        self.emit(
            RawExitEvent(
                time_ns=exit_event.time_ns,
                vcpu_index=vcpu.index,
                vm_id=self.vm_id,
                hw_state=exit_event.guest_state,
                reason=exit_event.reason,
                qualification=dict(exit_event.qualification),
            )
        )
