"""VM Exit taxonomy and exit records.

The exit reasons mirror the subset of Intel VT-x exit reasons HyperTap
uses (Table I of the paper): ``CR_ACCESS``, ``EPT_VIOLATION``,
``EXCEPTION``, ``WRMSR``, ``IO_INSTRUCTION``, ``EXTERNAL_INTERRUPT`` and
``APIC_ACCESS``.  Every exit carries a qualification (reason-specific
details, like VT-x's exit qualification field) and a snapshot of the
guest's architectural state taken *by the hardware* at exit time — this
snapshot is the root of trust the monitors build on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class ExitReason(enum.Enum):
    """Why the processor transferred control from guest to host mode."""

    EXCEPTION = "EXCEPTION"
    EXTERNAL_INTERRUPT = "EXTERNAL_INTERRUPT"
    CR_ACCESS = "CR_ACCESS"
    WRMSR = "WRMSR"
    IO_INSTRUCTION = "IO_INSTRUCTION"
    EPT_VIOLATION = "EPT_VIOLATION"
    APIC_ACCESS = "APIC_ACCESS"
    HLT = "HLT"
    VMCALL = "VMCALL"

    # Members are singletons, so identity hash is equivalent to the
    # default name hash — but it runs in C.  The live exit path keys
    # per-exit counters on this enum (``VCPU._vm_exit``,
    # ``KvmHypervisor.handle_exit``); Python-level ``Enum.__hash__`` was
    # a large share of each exit's bookkeeping there.
    __hash__ = object.__hash__


class ExitAction(enum.Enum):
    """What the hypervisor tells the hardware to do after handling."""

    #: Apply the trapped operation (emulate it) and resume the guest.
    EMULATE = "EMULATE"
    #: Skip the trapped operation entirely and resume the guest.
    SKIP = "SKIP"
    #: Reflect the event back into the guest (e.g. deliver exception).
    REFLECT = "REFLECT"


class MemAccess(enum.Enum):
    """Access type recorded in an EPT violation qualification."""

    READ = "r"
    WRITE = "w"
    EXECUTE = "x"


@dataclass(frozen=True)
class GuestStateSnapshot:
    """Architectural state saved into the VMCS guest-state area at exit.

    Only fields the monitors consume are modelled; adding more is
    mechanical.  The snapshot is immutable: software inside the guest
    cannot retroactively alter what the hardware saved.
    """

    cr3: int
    tr_base: int
    rsp: int
    rip: int
    rax: int
    rbx: int
    rcx: int
    rdx: int
    rsi: int
    rdi: int
    cpl: int


@dataclass
class VMExit:
    """One guest-to-host transition, as seen by the hypervisor."""

    reason: ExitReason
    vcpu_index: int
    time_ns: int
    qualification: Dict[str, Any] = field(default_factory=dict)
    guest_state: Optional[GuestStateSnapshot] = None
    #: Monotone per-machine sequence number (useful for the RHC).
    sequence: int = 0

    def qual(self, key: str, default: Any = None) -> Any:
        """Shorthand accessor into the qualification dictionary."""
        return self.qualification.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VMExit({self.reason.value}, vcpu={self.vcpu_index}, "
            f"t={self.time_ns}, qual={self.qualification})"
        )
