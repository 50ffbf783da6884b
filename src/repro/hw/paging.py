"""Guest page tables: GVA -> GPA translation.

Each process owns an :class:`AddressSpace` whose root (the Page
Directory Base Address, PDBA) is a real guest-physical frame; the CR3
register holds that PDBA while the process runs.  A machine-wide
:class:`PageTableRegistry` lets host-side software walk *any* address
space given only a PDBA — this is exactly what the paper's process
counting algorithm (Fig 3A) needs for its ``gva_to_gpa(known_gva)``
validity test, and what VMI needs to decode kernel structures.

Kernel mappings are shared between all address spaces (one kernel page
table referenced by every root), mirroring how Linux shares the kernel
half of the address space.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.errors import GuestPageFault, SimulationError
from repro.hw.memory import PAGE_OFFSET_MASK, PAGE_SHIFT, page_number

#: Sentinel returned by host-side translation when a GVA is unmapped.
UNMAPPED_GVA = -1


class KernelPageTable:
    """The shared kernel half of every address space."""

    def __init__(self) -> None:
        self._map: Dict[int, int] = {}  # vpn -> gpn

    def map_page(self, gva: int, gpa: int) -> None:
        self._map[gva >> PAGE_SHIFT] = gpa >> PAGE_SHIFT

    def lookup(self, gva: int) -> Optional[int]:
        gpn = self._map.get(gva >> PAGE_SHIFT)
        if gpn is None:
            return None
        return (gpn << PAGE_SHIFT) | (gva & PAGE_OFFSET_MASK)

    def __len__(self) -> int:
        return len(self._map)


class AddressSpace:
    """One process's virtual address space.

    ``pdba`` is the guest-physical address of the root paging structure
    — the value loaded into CR3 whenever a thread of this process runs.
    """

    def __init__(self, pdba: int, kernel: KernelPageTable) -> None:
        self.pdba = pdba
        self.kernel = kernel
        self._user_map: Dict[int, int] = {}  # vpn -> gpn
        self.live = True

    def map_user_page(self, gva: int, gpa: int) -> None:
        if not self.live:
            raise SimulationError("mapping into a destroyed address space")
        self._user_map[page_number(gva)] = page_number(gpa)

    def translate(self, gva: int) -> Optional[int]:
        """GVA -> GPA, or ``None`` if unmapped."""
        if not self.live:
            return None
        gpn = self._user_map.get(gva >> PAGE_SHIFT)
        if gpn is not None:
            return (gpn << PAGE_SHIFT) | (gva & PAGE_OFFSET_MASK)
        return self.kernel.lookup(gva)


class PageTableRegistry:
    """Machine-wide view of all live paging structures, keyed by PDBA."""

    def __init__(self) -> None:
        self.kernel = KernelPageTable()
        self._spaces: Dict[int, AddressSpace] = {}
        self._next_pdba_frame = 0x3000_0  # frames reserved for page dirs

    def create_address_space(self) -> AddressSpace:
        """Allocate a fresh root frame and register the address space."""
        pdba = self._next_pdba_frame << PAGE_SHIFT
        self._next_pdba_frame += 1
        space = AddressSpace(pdba, self.kernel)
        self._spaces[pdba] = space
        return space

    def destroy_address_space(self, space: AddressSpace) -> None:
        """Tear down a process's paging structures (exit path)."""
        space.live = False
        self._spaces.pop(space.pdba, None)

    def lookup(self, pdba: int) -> Optional[AddressSpace]:
        return self._spaces.get(pdba)

    def gva_to_gpa(self, pdba: int, gva: int) -> int:
        """Walk the paging structure rooted at ``pdba``.

        Returns :data:`UNMAPPED_GVA` when the root is stale or the GVA
        has no mapping — the signal Fig 3A uses to evict dead PDBAs.
        """
        space = self._spaces.get(pdba)
        if space is None:
            return UNMAPPED_GVA
        gpa = space.translate(gva)
        return UNMAPPED_GVA if gpa is None else gpa

    def translate_or_fault(self, pdba: int, gva: int, access: str) -> int:
        """Translation used by the vCPU's MMU; raises on failure."""
        gpa = self.gva_to_gpa(pdba, gva)
        if gpa == UNMAPPED_GVA:
            raise GuestPageFault(gva, access)
        return gpa

    def live_spaces(self) -> Iterator[AddressSpace]:
        return iter(self._spaces.values())

    def __len__(self) -> int:
        return len(self._spaces)
