"""Byte-addressable physical memory backed by sparse 4 KiB frames.

This single store plays the role of host physical memory; guest
physical frames are mapped onto it by the EPT (identity-mapped by the
hypervisor at VM creation, like KVM does for a simple memslot layout).
All guest kernel data structures — task structs, the TSS, page
directories — live here as real bytes, so both traditional VMI and the
rootkits that defeat it operate on genuine memory contents.
"""

from __future__ import annotations

import struct  # hypertap: allow(determinism) — packs guest physical-memory words, not trace records
from typing import Dict

from repro.errors import SimulationError

PAGE_SIZE = 4096
PAGE_SHIFT = 12
#: ``addr & PAGE_OFFSET_MASK`` is ``page_offset(addr)``; hot paths
#: inline the page arithmetic instead of calling the helpers.
PAGE_OFFSET_MASK = PAGE_SIZE - 1

_U64 = struct.Struct("<Q")
#: Highest frame offset at which a whole u64 still fits in the frame.
_LAST_U64_OFFSET = PAGE_SIZE - 8


def page_number(addr: int) -> int:
    """Frame number containing ``addr``."""
    return addr >> PAGE_SHIFT


def page_offset(addr: int) -> int:
    """Offset of ``addr`` within its frame."""
    return addr & PAGE_OFFSET_MASK


def page_base(addr: int) -> int:
    """Base address of the frame containing ``addr``."""
    return addr & ~(PAGE_SIZE - 1)


class PhysicalMemory:
    """Sparse physical memory; frames materialize on first touch."""

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0 or size_bytes % PAGE_SIZE:
            raise SimulationError("memory size must be a positive page multiple")
        self.size_bytes = size_bytes
        self.num_frames = size_bytes // PAGE_SIZE
        self._frames: Dict[int, bytearray] = {}

    # ------------------------------------------------------------------
    # Frame management
    # ------------------------------------------------------------------
    def frame(self, pfn: int) -> bytearray:
        """Return (allocating if needed) the backing store for ``pfn``."""
        if pfn < 0 or pfn >= self.num_frames:
            raise SimulationError(
                f"physical frame {pfn:#x} outside RAM "
                f"({self.num_frames:#x} frames)"
            )
        fr = self._frames.get(pfn)
        if fr is None:
            fr = bytearray(PAGE_SIZE)
            self._frames[pfn] = fr
        return fr

    # ------------------------------------------------------------------
    # Raw byte access (physical addresses)
    # ------------------------------------------------------------------
    def read_bytes(self, addr: int, length: int) -> bytes:
        out = bytearray()
        remaining = length
        cursor = addr
        while remaining > 0:
            fr = self.frame(cursor >> PAGE_SHIFT)
            off = cursor & PAGE_OFFSET_MASK
            chunk = min(remaining, PAGE_SIZE - off)
            out += fr[off : off + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        remaining = len(data)
        cursor = addr
        src = 0
        while remaining > 0:
            fr = self.frame(cursor >> PAGE_SHIFT)
            off = cursor & PAGE_OFFSET_MASK
            chunk = min(remaining, PAGE_SIZE - off)
            fr[off : off + chunk] = data[src : src + chunk]
            cursor += chunk
            src += chunk
            remaining -= chunk

    # ------------------------------------------------------------------
    # Word helpers (little-endian, like x86)
    # ------------------------------------------------------------------
    # A word inside one resident frame is read or written in place;
    # every other word (crossing a frame, in a frame not yet touched,
    # outside RAM) takes the byte path, which materializes and bounds-
    # checks frames.  Only valid frame numbers are ever resident.
    def read_u64(self, addr: int) -> int:
        off = addr & PAGE_OFFSET_MASK
        if off <= _LAST_U64_OFFSET:
            fr = self._frames.get(addr >> PAGE_SHIFT)
            if fr is not None:
                return _U64.unpack_from(fr, off)[0]
        return _U64.unpack(self.read_bytes(addr, 8))[0]

    def write_u64(self, addr: int, value: int) -> None:
        value &= 0xFFFFFFFFFFFFFFFF
        off = addr & PAGE_OFFSET_MASK
        if off <= _LAST_U64_OFFSET:
            fr = self._frames.get(addr >> PAGE_SHIFT)
            if fr is not None:
                _U64.pack_into(fr, off, value)
                return
        self.write_bytes(addr, _U64.pack(value))
