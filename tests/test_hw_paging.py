"""Tests for guest page tables and the page-table registry."""

import pytest

from repro.errors import GuestPageFault, SimulationError
from repro.hw.memory import PAGE_SIZE
from repro.hw.paging import PageTableRegistry, UNMAPPED_GVA


@pytest.fixture
def registry():
    return PageTableRegistry()


class TestAddressSpace:
    def test_unique_pdbas(self, registry):
        a = registry.create_address_space()
        b = registry.create_address_space()
        assert a.pdba != b.pdba

    def test_user_mapping(self, registry):
        space = registry.create_address_space()
        space.map_user_page(0x400000, 0x10000)
        assert space.translate(0x400123) == 0x10123

    def test_kernel_mapping_shared(self, registry):
        a = registry.create_address_space()
        b = registry.create_address_space()
        registry.kernel.map_page(0xFFFF_8880_0000_0000, 0x2000)
        assert a.translate(0xFFFF_8880_0000_0008) == 0x2008
        assert b.translate(0xFFFF_8880_0000_0008) == 0x2008

    def test_user_mappings_private(self, registry):
        a = registry.create_address_space()
        b = registry.create_address_space()
        a.map_user_page(0x400000, 0x10000)
        assert b.translate(0x400000) is None

    def test_mapping_into_destroyed_space_fails(self, registry):
        space = registry.create_address_space()
        registry.destroy_address_space(space)
        with pytest.raises(SimulationError):
            space.map_user_page(0x400000, 0x10000)


class TestRegistry:
    def test_gva_to_gpa_via_pdba(self, registry):
        space = registry.create_address_space()
        space.map_user_page(0x400000, 0x30000)
        assert registry.gva_to_gpa(space.pdba, 0x400010) == 0x30010

    def test_stale_pdba_is_unmapped(self, registry):
        """The eviction signal Fig 3A's validity probe relies on."""
        space = registry.create_address_space()
        space.map_user_page(0x400000, 0x30000)
        pdba = space.pdba
        registry.destroy_address_space(space)
        assert registry.gva_to_gpa(pdba, 0x400000) == UNMAPPED_GVA

    def test_unknown_pdba_is_unmapped(self, registry):
        assert registry.gva_to_gpa(0xDEAD000, 0x400000) == UNMAPPED_GVA

    def test_translate_or_fault(self, registry):
        space = registry.create_address_space()
        with pytest.raises(GuestPageFault):
            registry.translate_or_fault(space.pdba, 0x400000, "r")

    def test_live_spaces_iteration(self, registry):
        spaces = [registry.create_address_space() for _ in range(3)]
        registry.destroy_address_space(spaces[1])
        assert len(list(registry.live_spaces())) == 2
        assert len(registry) == 2

    def test_offset_preserved(self, registry):
        space = registry.create_address_space()
        space.map_user_page(0x400000, 0x30000)
        for off in (0, 1, PAGE_SIZE - 1):
            assert registry.gva_to_gpa(space.pdba, 0x400000 + off) == 0x30000 + off
