"""Tests for event-model details and exit snapshots."""

import dataclasses

import pytest

from repro.core.events import (
    EVENT_CLASSES,
    EventType,
    REQUIRED_EXIT_REASONS,
    SyscallEvent,
)
from repro.hw.exits import ExitReason, GuestStateSnapshot


class TestSnapshots:
    def test_snapshot_immutable(self):
        snapshot = GuestStateSnapshot(
            cr3=1, tr_base=2, rsp=3, rip=4, rax=5, rbx=6, rcx=7, rdx=8,
            rsi=9, rdi=10, cpl=3,
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshot.cr3 = 99

    def test_snapshot_is_a_copy(self, testbed):
        """Guest register changes after the exit must not retro-edit
        saved state (the hardware-save property monitors rely on)."""
        vcpu = testbed.machine.vcpus[0]
        vcpu.regs.write_gpr("rax", 111)
        snapshot = vcpu.regs.snapshot()
        vcpu.regs.write_gpr("rax", 222)
        assert snapshot.rax == 111


class TestEventModel:
    def test_every_event_type_has_exit_requirements(self):
        for event_type in EventType:
            assert event_type in REQUIRED_EXIT_REASONS
            assert REQUIRED_EXIT_REASONS[event_type]

    def test_syscall_requirements_cover_both_mechanisms(self):
        reasons = REQUIRED_EXIT_REASONS[EventType.SYSCALL]
        assert ExitReason.EXCEPTION in reasons  # int80
        assert ExitReason.WRMSR in reasons  # sysenter setup
        assert ExitReason.EPT_VIOLATION in reasons  # sysenter entry

    def test_event_type_property(self):
        event = SyscallEvent(
            time_ns=0, vcpu_index=0, vm_id="vm0", hw_state=None, number=1
        )
        assert event.type is EventType.SYSCALL

    @pytest.mark.parametrize("value", sorted(EVENT_CLASSES))
    def test_type_is_a_class_attribute_not_a_field(self, value):
        # Not a field, so to_record, equality and repr stay as they were.
        cls = EVENT_CLASSES[value]
        assert cls.type.value == value
        assert "type" not in {f.name for f in dataclasses.fields(cls)}
        assert "type=" not in repr(cls(time_ns=0, vcpu_index=0, vm_id="vm0", hw_state=None))


class TestExitRecords:
    def test_qualification_accessor(self, testbed):
        testbed.run_s(0.1)
        vcpu = testbed.machine.vcpus[0]
        exit_event = vcpu.vmcs.last_exit
        assert exit_event is not None
        assert exit_event.qual("not-there", "default") == "default"

    def test_exit_sequence_numbers_monotonic(self, testbed):
        testbed.run_s(0.5)
        ring_before = testbed.machine._exit_sequence
        testbed.run_s(0.5)
        assert testbed.machine._exit_sequence > ring_before

    def test_exit_counts_by_reason(self, testbed):
        testbed.run_s(1.0)
        counts = testbed.kvm.exit_counts
        assert counts[ExitReason.EXTERNAL_INTERRUPT] > 0
        assert counts[ExitReason.IO_INSTRUCTION] >= 0
