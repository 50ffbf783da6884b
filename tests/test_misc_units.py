"""Unit tests for smaller surfaces: errors, layouts, kalloc, vmcs,
devices, harness helpers, auditor base."""

import pytest

from repro.core.auditor import Auditor
from repro.core.events import EventType
from repro.errors import (
    AuditorCrash,
    ConfigurationError,
    GuestPageFault,
    MonitorError,
    ReproError,
    SimulationError,
)
from repro.guest.kalloc import KernelAllocator
from repro.guest.layouts import (
    StructLayout,
    TASK_STRUCT,
    direct_map_gpa,
    direct_map_gva,
)
from repro.harness import Testbed, TestbedConfig
from repro.hw.machine import Machine, MachineConfig
from repro.hw.memory import PAGE_SIZE
from repro.hw.vmcs import ExecutionControls, Vmcs


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(SimulationError, ReproError)
        assert issubclass(ConfigurationError, SimulationError)
        assert issubclass(AuditorCrash, MonitorError)
        assert issubclass(GuestPageFault, ReproError)

    def test_page_fault_carries_details(self):
        fault = GuestPageFault(0x1234, "w")
        assert fault.gva == 0x1234
        assert fault.access == "w"
        assert "0x1234" in str(fault)


class TestLayouts:
    def test_direct_map_roundtrip(self):
        gpa = 0x0250_0000
        assert direct_map_gpa(direct_map_gva(gpa)) == gpa

    def test_direct_map_rejects_low_gva(self):
        with pytest.raises(SimulationError):
            direct_map_gpa(0x1000)

    def test_struct_layout_packing(self):
        layout = StructLayout("s", {"a": (8, "u64"), "b": (16, "str")})
        assert layout.offset("a") == 0
        assert layout.offset("b") == 8
        assert layout.size == 24

    def test_struct_ref_type_checks(self, testbed):
        init = testbed.kernel.find_task(1)
        ref = testbed.kernel.task_ref(init)
        with pytest.raises(SimulationError):
            ref.read("comm")  # string field via int reader
        with pytest.raises(SimulationError):
            ref.write_str("pid", "x")  # int field via str writer

    def test_task_struct_has_linux_essentials(self):
        for field in ("pid", "uid", "euid", "comm", "tasks_next",
                      "tasks_prev", "mm", "stack", "parent"):
            assert field in TASK_STRUCT.fields


class TestKernelAllocator:
    def _machine(self):
        return Machine(MachineConfig(num_vcpus=1, ram_bytes=64 * 1024 * 1024))

    def test_alignment(self):
        allocator = KernelAllocator(self._machine())
        a = allocator.alloc(10, align=64)
        assert direct_map_gpa(a) % 64 == 0

    def test_page_alloc_aligned(self):
        allocator = KernelAllocator(self._machine())
        allocator.alloc(10)
        page = allocator.alloc_page()
        assert direct_map_gpa(page) % PAGE_SIZE == 0

    def test_allocations_disjoint(self):
        allocator = KernelAllocator(self._machine())
        a = allocator.alloc(100)
        b = allocator.alloc(100)
        assert b >= a + 100

    def test_mapped_in_kernel_table(self):
        machine = self._machine()
        allocator = KernelAllocator(machine)
        gva = allocator.alloc(8)
        assert machine.page_registry.kernel.lookup(gva) is not None

    def test_zero_size_rejected(self):
        with pytest.raises(SimulationError):
            KernelAllocator(self._machine()).alloc(0)

    def test_exhaustion(self):
        machine = Machine(MachineConfig(num_vcpus=1, ram_bytes=64 * 1024 * 1024))
        allocator = KernelAllocator(machine, start_gpa=0)
        with pytest.raises(SimulationError):
            allocator.alloc(machine.memory.size_bytes + PAGE_SIZE)

    def test_stats(self):
        allocator = KernelAllocator(self._machine())
        allocator.alloc(100)
        allocator.alloc(50)
        assert allocator.allocations == 2
        assert allocator.allocated_bytes == 150


class TestVmcs:
    def test_default_controls_match_kvm(self):
        controls = ExecutionControls()
        assert controls.cr3_load_exiting is False  # EPT: no CR3 traps
        assert controls.io_exiting is True
        assert controls.external_interrupt_exiting is True
        assert controls.exception_bitmap == set()

    def test_record_exit(self):
        from repro.hw.exits import ExitReason, VMExit

        vmcs = Vmcs()
        exit_event = VMExit(ExitReason.HLT, 0, 0)
        vmcs.record_exit(exit_event)
        assert vmcs.last_exit is exit_event
        assert vmcs.exit_count == 1


class TestDevices:
    def test_nic_counts(self, testbed):
        nic = testbed.machine.nic
        before = nic.packets_received
        testbed.kernel.deliver_packet(128)
        assert nic.packets_received == before + 1

    def test_disk_counters_via_workload(self, testbed):
        def io_prog(ctx):
            yield ctx.sys_disk_write(3)
            yield ctx.exit(0)

        testbed.kernel.spawn_process(io_prog, "io", uid=1000)
        testbed.run_s(1.0)
        assert testbed.machine.disk.blocks_written >= 3

    def test_console_text(self, testbed):
        for byte in b"ok":
            testbed.machine.io_bus.access(
                testbed.machine.vcpus[0], 0x3F8, "out", byte
            )
        assert testbed.machine.console.text().endswith("ok")


class TestHarness:
    def test_build_testbed_boots(self):
        testbed = Testbed(TestbedConfig(seed=77))
        testbed.boot()
        assert testbed.kernel.booted
        assert testbed.hypertap is None

    def test_build_testbed_with_auditors(self):
        class Quiet(Auditor):
            name = "quiet"
            subscriptions = {EventType.THREAD_SWITCH}

            def audit(self, event):
                pass

        testbed = Testbed(TestbedConfig(seed=77))
        testbed.boot()
        testbed.monitor([Quiet()])
        assert testbed.hypertap is not None
        assert testbed.hypertap.attached

    def test_now_s(self):
        testbed = Testbed(TestbedConfig(seed=1))
        testbed.boot()
        testbed.run_ms(1500)
        assert testbed.now_s == pytest.approx(1.5)


class TestAuditorBase:
    def test_audit_is_abstract(self):
        auditor = Auditor()
        with pytest.raises(NotImplementedError):
            auditor.audit(object())

    def test_alert_recording_without_bind(self):
        class A(Auditor):
            subscriptions = set()

            def audit(self, event):
                pass

        a = A()
        alert = a.raise_alert("test", detail=1)
        assert a.alarmed
        assert alert["detail"] == 1
        assert alert["time_ns"] == 0  # unbound: no clock

    def test_wants_blocking_default(self):
        class B(Auditor):
            blocking = True
            subscriptions = set()

            def audit(self, event):
                pass

        assert B().wants_blocking(object()) is True
