"""Tests for physical memory and page helpers."""

import pytest

from repro.errors import SimulationError
from repro.hw.memory import (
    PAGE_SIZE,
    PhysicalMemory,
    page_base,
    page_number,
    page_offset,
)


class TestPageHelpers:
    def test_page_number(self):
        assert page_number(0) == 0
        assert page_number(PAGE_SIZE) == 1
        assert page_number(PAGE_SIZE - 1) == 0

    def test_page_offset(self):
        assert page_offset(PAGE_SIZE + 7) == 7

    def test_page_base(self):
        assert page_base(PAGE_SIZE + 7) == PAGE_SIZE


class TestPhysicalMemory:
    def test_sparse_allocation(self):
        mem = PhysicalMemory(1024 * 1024)
        assert len(mem._frames) == 0
        mem.write_u64(0, 5)
        assert len(mem._frames) == 1

    def test_u64_roundtrip(self):
        mem = PhysicalMemory(1024 * 1024)
        mem.write_u64(128, 0xDEADBEEFCAFEBABE)
        assert mem.read_u64(128) == 0xDEADBEEFCAFEBABE

    def test_u64_little_endian(self):
        mem = PhysicalMemory(1024 * 1024)
        mem.write_u64(0, 0x0102030405060708)
        assert mem.read_bytes(0, 1) == b"\x08"

    def test_cross_page_write(self):
        mem = PhysicalMemory(1024 * 1024)
        addr = PAGE_SIZE - 4
        mem.write_u64(addr, 0xAABBCCDDEEFF0011)
        assert mem.read_u64(addr) == 0xAABBCCDDEEFF0011
        assert len(mem._frames) == 2

    def test_out_of_range_frame(self):
        mem = PhysicalMemory(PAGE_SIZE * 4)
        with pytest.raises(SimulationError):
            mem.read_u64(PAGE_SIZE * 4)

    def test_bad_size_rejected(self):
        with pytest.raises(SimulationError):
            PhysicalMemory(100)
        with pytest.raises(SimulationError):
            PhysicalMemory(0)

    def test_fresh_memory_is_zero(self):
        mem = PhysicalMemory(1024 * 1024)
        assert mem.read_u64(512) == 0


class TestU64InPlace:
    """``read_u64``/``write_u64`` work in place on a word inside one
    resident frame; every other word must behave as the byte path does."""

    @pytest.mark.parametrize("off", range(PAGE_SIZE - 8, PAGE_SIZE))
    @pytest.mark.parametrize("resident", [False, True])
    def test_words_up_to_the_frame_end(self, off, resident):
        mem = PhysicalMemory(PAGE_SIZE * 4)
        if resident:
            mem.write_bytes(PAGE_SIZE, b"\xff" * (2 * PAGE_SIZE))
        addr = PAGE_SIZE + off
        value = 0x0102030405060708
        mem.write_u64(addr, value)
        assert mem.read_u64(addr) == value
        assert mem.read_bytes(addr, 8) == value.to_bytes(8, "little")
        # A word past offset 4088 spills into the next frame.
        crosses = off > PAGE_SIZE - 8
        assert len(mem._frames) == (2 if resident or crosses else 1)
        if resident:
            assert mem.read_bytes(addr - 1, 1) == b"\xff"
            assert mem.read_bytes(addr + 8, 1) == b"\xff"

    def test_read_of_an_untouched_frame_materializes_it(self):
        mem = PhysicalMemory(PAGE_SIZE * 4)
        mem.write_u64(0, 1)
        assert mem.read_u64(2 * PAGE_SIZE + 16) == 0
        assert len(mem._frames) == 2
        assert mem.read_u64(2 * PAGE_SIZE + 24) == 0
        assert len(mem._frames) == 2

    @pytest.mark.parametrize("addr", [
        PAGE_SIZE * 4, PAGE_SIZE * 4 + 8, PAGE_SIZE * 4 - 4, PAGE_SIZE * 9, -8,
    ])
    def test_words_past_ram_still_raise(self, addr):
        mem = PhysicalMemory(PAGE_SIZE * 4)
        mem.write_bytes(0, b"\x00" * (4 * PAGE_SIZE))  # every frame resident
        with pytest.raises(SimulationError):
            mem.read_u64(addr)
        with pytest.raises(SimulationError):
            mem.write_u64(addr, 1)

    @pytest.mark.parametrize("value, stored", [
        (2**64, 0),
        (2**64 + 5, 5),
        (2**70 + 2**64 - 1, 2**64 - 1),
        (-1, 2**64 - 1),
        (-(2**64) - 3, 2**64 - 3),
    ])
    @pytest.mark.parametrize("addr", [64, PAGE_SIZE - 4])
    def test_values_are_masked(self, value, stored, addr):
        for resident in (False, True):
            mem = PhysicalMemory(PAGE_SIZE * 4)
            if resident:
                mem.write_u64(addr, 7)
            mem.write_u64(addr, value)
            assert mem.read_u64(addr) == stored
