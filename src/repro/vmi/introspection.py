"""OS-invariant introspection: task-list walking from outside the VM.

``OsInvariantView`` needs only what real VMI tools need: a symbol map
(the address of ``init_task``) and structure layouts.  Everything else
comes from reading guest physical memory through the paging structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.guest.layouts import KNOWN_KERNEL_GVA, PF_KTHREAD, TASK_STRUCT
from repro.hw.machine import Machine
from repro.hw.paging import UNMAPPED_GVA


@dataclass(frozen=True)
class KernelSymbolMap:
    """The System.map subset a VMI tool compiles in."""

    init_task: int

    @classmethod
    def from_kernel(cls, kernel) -> "KernelSymbolMap":
        """Build the map the way deployments do: from the debug info of
        the *pristine* kernel build (not by asking the running guest)."""
        return cls(init_task=kernel.init_task_gva)


class OsInvariantView:
    """Out-of-VM view of guest processes via OS data structures.

    Trust analysis (the paper's point): the *code* runs on the host,
    but every pointer followed lives in guest memory.  An in-guest
    attacker with kernel write access controls what this view sees.
    """

    def __init__(self, machine: Machine, symbols: KernelSymbolMap) -> None:
        self.machine = machine
        self.symbols = symbols

    # ------------------------------------------------------------------
    def _kernel_pdba(self) -> Optional[int]:
        for space in self.machine.page_registry.live_spaces():
            if space.translate(KNOWN_KERNEL_GVA) is not None:
                return space.pdba
        return None

    def _read_u64(self, pdba: int, gva: int) -> int:
        return self.machine.host_read_u64_gva(pdba, gva)

    def _read_str(self, pdba: int, gva: int, size: int) -> str:
        raw = self.machine.host_read_gva(pdba, gva, size)
        end = raw.find(b"\x00")
        return raw[: end if end >= 0 else size].decode("ascii", errors="replace")

    # ------------------------------------------------------------------
    def list_processes(self, max_tasks: int = 65536) -> List[Dict[str, Any]]:
        """Walk ``init_task.tasks``; returns one dict per task found.

        This is the view DKOM defeats: unlinked tasks simply are not on
        the list anymore.
        """
        pdba = self._kernel_pdba()
        if pdba is None:
            return []
        head = self.symbols.init_task
        off_next = TASK_STRUCT.offset("tasks_next")
        out: List[Dict[str, Any]] = []
        cur = self._read_u64(pdba, head + off_next)
        steps = 0
        while cur not in (head, 0) and steps < max_tasks:
            entry = self._decode_task(pdba, cur)
            out.append(entry)
            cur = self._read_u64(pdba, cur + off_next)
            steps += 1
        return out

    def _decode_task(self, pdba: int, task_gva: int) -> Dict[str, Any]:
        def u64(field: str) -> int:
            return self._read_u64(pdba, task_gva + TASK_STRUCT.offset(field))

        def string(field: str) -> str:
            spec = TASK_STRUCT.spec(field)
            return self._read_str(pdba, task_gva + spec.offset, spec.size)

        return {
            "task_struct_gva": task_gva,
            "pid": u64("pid"),
            "uid": u64("uid"),
            "euid": u64("euid"),
            "comm": string("comm"),
            "exe": string("exe"),
            "is_kthread": bool(u64("flags") & PF_KTHREAD),
            "parent_gva": u64("parent"),
        }

    def decode_task_at(self, task_gva: int) -> Optional[Dict[str, Any]]:
        """Decode a task_struct at a caller-supplied address (used by
        cross-view validation; address may come from HyperTap)."""
        pdba = self._kernel_pdba()
        if pdba is None:
            return None
        if self.machine.page_registry.gva_to_gpa(pdba, task_gva) == UNMAPPED_GVA:
            return None
        return self._decode_task(pdba, task_gva)
