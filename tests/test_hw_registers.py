"""Tests for the register file's exit-time snapshot."""

import dataclasses

import pytest

from repro.hw.exits import GuestStateSnapshot
from repro.hw.registers import RegisterFile

SNAPSHOT_FIELDS = [f.name for f in dataclasses.fields(GuestStateSnapshot)]
GPRS = {"rax", "rbx", "rcx", "rdx", "rsi", "rdi"}


def write(regs: RegisterFile, name: str, value: int) -> None:
    if name in GPRS:
        regs.write_gpr(name, value)
    else:
        setattr(regs, name, value)


def fresh(regs: RegisterFile) -> GuestStateSnapshot:
    """The snapshot built field by field, with no reuse."""
    return GuestStateSnapshot(
        **{name: regs.gprs[name] if name in GPRS else getattr(regs, name)
           for name in SNAPSHOT_FIELDS}
    )


def test_the_snapshot_covers_the_eleven_saved_fields():
    assert len(SNAPSHOT_FIELDS) == 11
    assert GPRS < set(SNAPSHOT_FIELDS)


def test_unchanged_state_gives_an_equal_snapshot():
    regs = RegisterFile()
    first = regs.snapshot()
    assert regs.snapshot() == first == fresh(regs)


@pytest.mark.parametrize("name", SNAPSHOT_FIELDS)
def test_every_saved_field_write_shows_in_the_next_snapshot(name):
    regs = RegisterFile()
    for other in SNAPSHOT_FIELDS:
        write(regs, other, 0x1000 + SNAPSHOT_FIELDS.index(other))
    before = regs.snapshot()
    write(regs, name, 0xABCDEF)
    after = regs.snapshot()
    assert after is not before
    assert getattr(after, name) == 0xABCDEF
    assert after == fresh(regs)
    for other in SNAPSHOT_FIELDS:
        if other != name:
            assert getattr(after, other) == getattr(before, other)
    # Writing the old value back gives the old state again.
    write(regs, name, getattr(before, name))
    assert regs.snapshot() == before


@pytest.mark.parametrize("name", ["r8", "r15"])
def test_a_gpr_the_snapshot_does_not_save_changes_nothing(name):
    regs = RegisterFile()
    before = regs.snapshot()
    regs.write_gpr(name, 99)
    assert regs.snapshot() == before


def test_a_control_register_the_snapshot_does_not_save_changes_nothing():
    regs = RegisterFile()
    before = regs.snapshot()
    regs.cr0 = 0x1
    regs.cr4 = 0x2
    regs.tr_selector = 0x48
    assert regs.snapshot() == before


def test_the_snapshot_stays_frozen():
    regs = RegisterFile()
    snap = regs.snapshot()
    regs.snapshot()
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap.rax = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap.cr3 = 1


def test_the_cache_is_not_part_of_the_register_file_value():
    a, b = RegisterFile(), RegisterFile()
    a.snapshot()
    assert a == b
    assert "_saved" not in repr(a)
