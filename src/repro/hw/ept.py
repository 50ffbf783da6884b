"""Extended Page Tables: GPA -> HPA with R/W/X permissions.

The hypervisor identity-maps guest frames at VM creation.  HyperTap's
interception algorithms then *narrow* permissions on selected guest
frames (write-protecting TSS pages, execute-protecting the SYSENTER
entry page); any guest access violating the narrowed permissions raises
an EPT violation that the vCPU turns into an ``EPT_VIOLATION`` VM Exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.hw.exits import MemAccess
from repro.hw.memory import PAGE_OFFSET_MASK, PAGE_SHIFT, page_number, page_offset


@dataclass
class EptEntry:
    """Mapping and permissions for one guest frame."""

    hfn: int
    read: bool = True
    write: bool = True
    execute: bool = True

    def allows(self, access: MemAccess) -> bool:
        if access is MemAccess.READ:
            return self.read
        if access is MemAccess.WRITE:
            return self.write
        return self.execute


class EptViolationSignal(Exception):
    """Internal control-flow signal raised by the EPT walker.

    The vCPU catches this and synthesizes an ``EPT_VIOLATION`` VM Exit;
    it never escapes the hardware layer.
    """

    def __init__(self, gpa: int, access: MemAccess) -> None:
        # The message is formatted only if someone asks for it: the
        # vCPU catches every signal on the guest's memory path.
        super().__init__(gpa, access)
        self.gpa = gpa
        self.access = access

    def __str__(self) -> str:
        return f"EPT violation at GPA {self.gpa:#x} ({self.access.value})"


class ExtendedPageTable:
    """Per-VM second-level address translation."""

    def __init__(self) -> None:
        self._entries: Dict[int, EptEntry] = {}
        self.violations = 0

    def _entry(self, gfn: int) -> EptEntry:
        entry = self._entries.get(gfn)
        if entry is None:
            # Lazily identity-map with full permissions, like a simple
            # KVM memslot configuration.
            entry = EptEntry(hfn=gfn)
            self._entries[gfn] = entry
        return entry

    # ------------------------------------------------------------------
    # Hypervisor-facing configuration
    # ------------------------------------------------------------------
    def set_permissions(
        self,
        gpa: int,
        read: Optional[bool] = None,
        write: Optional[bool] = None,
        execute: Optional[bool] = None,
    ) -> None:
        """Adjust permissions on the frame containing ``gpa``."""
        entry = self._entry(page_number(gpa))
        if read is not None:
            entry.read = read
        if write is not None:
            entry.write = write
        if execute is not None:
            entry.execute = execute

    def permissions(self, gpa: int) -> Tuple[bool, bool, bool]:
        entry = self._entry(page_number(gpa))
        return (entry.read, entry.write, entry.execute)

    def remap(self, gpa: int, hfn: int) -> None:
        """Point a guest frame at a different host frame (not used by
        HyperTap itself, but part of a complete EPT model)."""
        if hfn < 0:
            raise SimulationError("negative host frame")
        self._entry(page_number(gpa)).hfn = hfn

    # ------------------------------------------------------------------
    # Introspection (used by self-consistency oracles, never by the
    # guest path: nothing here counts violations or materializes state)
    # ------------------------------------------------------------------
    def entries(self) -> List[Tuple[int, int, bool, bool, bool]]:
        """Sorted ``(gfn, hfn, r, w, x)`` snapshot of materialized entries."""
        return sorted(
            (gfn, e.hfn, e.read, e.write, e.execute)
            for gfn, e in self._entries.items()
        )

    def probe(self, gpa: int, access: MemAccess) -> Tuple[bool, int]:
        """Non-mutating walk: ``(allowed, hpa)``.

        Unlike :meth:`translate` this neither increments ``violations``
        nor lazily materializes an entry, so an oracle can re-walk the
        table without perturbing the state it is checking.
        """
        entry = self._entries.get(page_number(gpa))
        if entry is None:
            return True, gpa
        return entry.allows(access), (entry.hfn << PAGE_SHIFT) | page_offset(gpa)

    def check_consistency(self) -> List[str]:
        """Cross-check the walker against the permission map.

        For every materialized entry the permission-map view
        (:meth:`permissions`) and the walker view (:meth:`probe`,
        :meth:`translate_nofault`) must agree — two independent paths
        over the same state.  Returns human-readable problem strings;
        empty means consistent.
        """
        problems: List[str] = []
        for gfn in sorted(self._entries):
            entry = self._entries[gfn]
            gpa = gfn << PAGE_SHIFT
            perms = self.permissions(gpa)
            if perms != (entry.read, entry.write, entry.execute):
                problems.append(
                    f"gfn {gfn:#x}: permissions() disagrees with entry"
                )
            for access, allowed in (
                (MemAccess.READ, entry.read),
                (MemAccess.WRITE, entry.write),
                (MemAccess.EXECUTE, entry.execute),
            ):
                probe_allowed, probe_hpa = self.probe(gpa, access)
                if probe_allowed != allowed:
                    problems.append(
                        f"gfn {gfn:#x}: probe({access.value}) says "
                        f"{probe_allowed}, entry says {allowed}"
                    )
                if probe_hpa != self.translate_nofault(gpa):
                    problems.append(
                        f"gfn {gfn:#x}: probe hpa {probe_hpa:#x} != "
                        f"translate_nofault {self.translate_nofault(gpa):#x}"
                    )
        return problems

    # ------------------------------------------------------------------
    # Hardware-facing translation
    # ------------------------------------------------------------------
    def translate(self, gpa: int, access: MemAccess) -> int:
        """GPA -> HPA, enforcing permissions.

        Raises :class:`EptViolationSignal` on a disallowed access.
        """
        gfn = gpa >> PAGE_SHIFT
        entry = self._entries.get(gfn)
        if entry is None:
            entry = self._entry(gfn)
        if not entry.allows(access):
            self.violations += 1
            raise EptViolationSignal(gpa, access)
        return (entry.hfn << PAGE_SHIFT) | (gpa & PAGE_OFFSET_MASK)

    def translate_nofault(self, gpa: int) -> int:
        """Permission-free translation for hypervisor emulation paths."""
        gfn = gpa >> PAGE_SHIFT
        entry = self._entries.get(gfn)
        if entry is None:
            entry = self._entry(gfn)
        return (entry.hfn << PAGE_SHIFT) | (gpa & PAGE_OFFSET_MASK)
