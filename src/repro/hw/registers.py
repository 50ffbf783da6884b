"""Per-vCPU architectural register file.

The fields the paper's invariants rest on are here: ``CR3`` (Page
Directory Base Register), ``TR`` (Task Register, pointing at the TSS),
and ``RSP``.  General-purpose registers carry system-call numbers and
parameters, exactly as the interception algorithms of Fig 3 read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.hw.exits import GuestStateSnapshot

GPR_NAMES = (
    "rax",
    "rbx",
    "rcx",
    "rdx",
    "rsi",
    "rdi",
    "rbp",
    "r8",
    "r9",
    "r10",
    "r11",
    "r12",
    "r13",
    "r14",
    "r15",
)


@dataclass
class RegisterFile:
    """Architectural registers of one virtual CPU."""

    cr0: int = 0x8005003B  # PE|PG etc.; value is cosmetic
    cr3: int = 0
    cr4: int = 0x000006F8
    #: Task register: base linear address of the current TSS.
    tr_base: int = 0
    tr_selector: int = 0
    rsp: int = 0
    rip: int = 0
    #: Current privilege level (ring); 0 = kernel, 3 = user.
    cpl: int = 0
    gprs: Dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in GPR_NAMES}
    )
    #: One-entry snapshot cache: the values the last snapshot saved
    #: (in ``GuestStateSnapshot`` field order) and that snapshot.
    _saved: Tuple[int, ...] = field(
        default=(), init=False, repr=False, compare=False
    )
    _last_snapshot: Optional[GuestStateSnapshot] = field(
        default=None, init=False, repr=False, compare=False
    )

    def write_gpr(self, name: str, value: int) -> None:
        if name not in self.gprs:
            raise KeyError(f"unknown register {name!r}")
        self.gprs[name] = int(value) & 0xFFFFFFFFFFFFFFFF

    def snapshot(self) -> GuestStateSnapshot:
        """Immutable copy of the monitor-relevant state (exit-time save).

        Most exits save the same state as the exit before them on this
        vCPU, so the last snapshot is kept with its saved values and
        handed out again while they are unchanged.  Snapshots are frozen
        values: sharing one between exits is invisible to anything that
        reads them.
        """
        g = self.gprs
        saved = (
            self.cr3, self.tr_base, self.rsp, self.rip,
            g["rax"], g["rbx"], g["rcx"], g["rdx"], g["rsi"], g["rdi"],
            self.cpl,
        )
        if saved == self._saved:
            return self._last_snapshot
        snap = GuestStateSnapshot(*saved)
        self._saved = saved
        self._last_snapshot = snap
        return snap
