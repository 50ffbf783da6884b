"""Task-State Segment.

The x86 architecture requires TR to point at the running task's TSS and
loads the ring-0 stack pointer from ``TSS.RSP0`` on each user-to-kernel
transition.  The paper's thread-switch interception (Fig 3B) rests on
two facts modelled here:

* the TSS lives in ordinary guest memory, so writes to it can be
  trapped by write-protecting its frame in the EPT, and
* ``TSS.RSP0`` is unique per thread (it is the top of that thread's
  kernel stack), so its value identifies the scheduled-in thread.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import SimulationError
from repro.hw.memory import PhysicalMemory

#: Offset of the RSP0 field inside the 64-bit TSS (matches hardware).
RSP0_OFFSET = 4
#: Size of the 64-bit TSS in bytes (without IO bitmap).
TSS_SIZE = 104

#: Architectural fields of the 64-bit TSS: name -> (offset, size).
#: Everything not listed is reserved and must stay zero; the layout
#: matches the hardware structure (SDM Vol. 3, Fig 8-11).
TSS_FIELDS: Dict[str, Tuple[int, int]] = {
    "rsp0": (4, 8),
    "rsp1": (12, 8),
    "rsp2": (20, 8),
    "ist1": (36, 8),
    "ist2": (44, 8),
    "ist3": (52, 8),
    "ist4": (60, 8),
    "ist5": (68, 8),
    "ist6": (76, 8),
    "ist7": (84, 8),
    "iomap_base": (102, 2),
}


def encode_tss(fields: Dict[str, int]) -> bytes:
    """Pack named fields into the 104-byte TSS image.

    Unknown field names and out-of-range values raise — a field codec
    that silently truncated would hide exactly the emulation bugs the
    hut property tests exist to catch.
    """
    image = bytearray(TSS_SIZE)
    for name, value in fields.items():
        if name not in TSS_FIELDS:
            raise SimulationError(f"unknown TSS field {name!r}")
        offset, size = TSS_FIELDS[name]
        value = int(value)
        if value < 0 or value >> (8 * size):
            raise SimulationError(
                f"TSS field {name!r} value {value:#x} out of range"
            )
        image[offset : offset + size] = value.to_bytes(size, "little")
    return bytes(image)


def decode_tss(data: bytes) -> Dict[str, int]:
    """Unpack a 104-byte TSS image into its named fields."""
    if len(data) != TSS_SIZE:
        raise SimulationError(
            f"TSS image must be {TSS_SIZE} bytes, got {len(data)}"
        )
    return {
        name: int.from_bytes(data[offset : offset + size], "little")
        for name, (offset, size) in TSS_FIELDS.items()
    }


class TssView:
    """Typed accessor over a TSS stored at a guest-physical address.

    Host-side components use this to locate RSP0 and to set it without
    consulting the EPT; the *guest* writes it through normal memory
    writes so that EPT protection applies.
    """

    def __init__(self, memory: PhysicalMemory, base_gpa: int) -> None:
        self.memory = memory
        self.base_gpa = base_gpa

    @property
    def rsp0_gpa(self) -> int:
        """Guest-physical address of the RSP0 field."""
        return self.base_gpa + RSP0_OFFSET

    def host_write_rsp0(self, value: int) -> None:
        """Hypervisor-side write (EPT is not consulted)."""
        self.memory.write_u64(self.rsp0_gpa, value)
