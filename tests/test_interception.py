"""Tests for the Fig 3 interception algorithms."""


from repro.core.auditor import Auditor
from repro.core.events import (
    EventType,
    ProcessSwitchEvent,
    SyscallEvent,
    ThreadSwitchEvent,
)
from repro.guest.syscalls import SYSCALL_NUMBERS
from repro.guest.task import TaskState
from repro.harness import Testbed, TestbedConfig


class Recorder(Auditor):
    """Collects every event it subscribes to."""

    name = "recorder"

    def __init__(self, *types):
        super().__init__()
        self.subscriptions = set(types)
        self.events = []

    def audit(self, event):
        self.events.append(event)


def worker(ctx):
    while True:
        yield ctx.compute(300_000)
        yield ctx.sys_write(1, 32)


class TestProcessSwitchInterception:
    def test_cr3_writes_become_events(self, testbed):
        recorder = Recorder(EventType.PROCESS_SWITCH)
        testbed.monitor([recorder])
        testbed.kernel.spawn_process(worker, "w", uid=1000)
        testbed.run_s(1.0)
        assert any(isinstance(e, ProcessSwitchEvent) for e in recorder.events)

    def test_pdba_set_tracks_processes(self, testbed):
        recorder = Recorder(EventType.PROCESS_SWITCH)
        ht = testbed.monitor([recorder])
        tasks = [
            testbed.kernel.spawn_process(worker, f"w{i}", uid=1000)
            for i in range(3)
        ]
        testbed.run_s(1.0)
        counter = ht.channel.process_switches
        for task in tasks:
            assert task.mm.pgd in counter.pdba_set

    def test_count_evicts_dead_processes(self, testbed):
        """Fig 3A's validity probe removes stale PDBAs."""
        recorder = Recorder(EventType.PROCESS_SWITCH)
        ht = testbed.monitor([recorder])

        def short(ctx):
            yield ctx.compute(50_000_000)
            yield ctx.exit(0)

        task = testbed.kernel.spawn_process(short, "short", uid=1000)
        testbed.run_s(0.2)
        counter = ht.channel.process_switches
        assert task.mm.pgd in counter.pdba_set
        while task.state is not TaskState.ZOMBIE:
            testbed.run_ms(50)
        count_before = len(counter.pdba_set)
        counter.count_address_spaces()
        assert task.mm.pgd not in counter.pdba_set
        assert len(counter.pdba_set) < count_before

    def test_count_preserves_cr3(self, testbed):
        recorder = Recorder(EventType.PROCESS_SWITCH)
        ht = testbed.monitor([recorder])
        testbed.run_s(0.5)
        vcpu = testbed.machine.vcpus[0]
        saved = vcpu.regs.cr3
        ht.channel.process_switches.count_address_spaces()
        assert vcpu.regs.cr3 == saved

    def test_user_process_count(self, testbed):
        recorder = Recorder(EventType.PROCESS_SWITCH)
        ht = testbed.monitor([recorder])
        for i in range(3):
            testbed.kernel.spawn_process(worker, f"w{i}", uid=1000)
        testbed.run_s(1.0)
        # 3 workers + init = 4 user address spaces
        assert ht.count_user_processes() == 4


class TestThreadSwitchInterception:
    def test_thread_switch_events_carry_rsp0(self, testbed):
        recorder = Recorder(EventType.THREAD_SWITCH)
        testbed.monitor([recorder])
        task = testbed.kernel.spawn_process(worker, "w", uid=1000)
        testbed.run_s(1.0)
        rsp0s = {
            e.rsp0 for e in recorder.events if isinstance(e, ThreadSwitchEvent)
        }
        assert task.rsp0 in rsp0s

    def test_kernel_thread_switches_seen(self, testbed):
        """kthreads share address spaces (no CR3 write) but still show
        up via TSS.RSP0 — the paper's point about thread granularity."""
        recorder = Recorder(EventType.THREAD_SWITCH)
        testbed.monitor([recorder])
        testbed.run_s(3.0)
        kflushd = next(
            t for t in testbed.kernel.tasks.values() if t.comm.startswith("kflushd")
        )
        rsp0s = {
            e.rsp0 for e in recorder.events if isinstance(e, ThreadSwitchEvent)
        }
        assert kflushd.rsp0 in rsp0s

    def test_tss_pages_write_protected(self, testbed):
        recorder = Recorder(EventType.THREAD_SWITCH)
        ht = testbed.monitor([recorder])
        testbed.run_s(0.2)
        interceptor = ht.channel.thread_switches
        assert interceptor._protected
        for rsp0_gpa in interceptor._rsp0_gpas.values():
            _r, w, _x = testbed.machine.ept.permissions(rsp0_gpa)
            assert not w


class TestSyscallInterception:
    def test_sysenter_interception(self, testbed):
        recorder = Recorder(EventType.SYSCALL)
        testbed.monitor([recorder])
        testbed.kernel.spawn_process(worker, "w", uid=1000)
        testbed.run_s(0.5)
        syscalls = [e for e in recorder.events if isinstance(e, SyscallEvent)]
        assert syscalls
        assert all(e.mechanism == "sysenter" for e in syscalls)
        numbers = {e.number for e in syscalls}
        assert SYSCALL_NUMBERS["write"] in numbers

    def test_int80_interception(self):
        tb = Testbed(TestbedConfig(syscall_mechanism="int80"))
        tb.boot()
        recorder = Recorder(EventType.SYSCALL)
        tb.monitor([recorder])
        tb.kernel.spawn_process(worker, "w", uid=1000)
        tb.run_s(0.5)
        syscalls = [e for e in recorder.events if isinstance(e, SyscallEvent)]
        assert syscalls
        assert all(e.mechanism == "int80" for e in syscalls)

    def test_syscall_args_from_registers(self, testbed):
        recorder = Recorder(EventType.SYSCALL)
        testbed.monitor([recorder])

        def prog(ctx):
            yield ctx.sys_write(7, 99)
            yield ctx.exit(0)

        testbed.kernel.spawn_process(prog, "p", uid=1000)
        testbed.run_s(0.5)
        writes = [
            e
            for e in recorder.events
            if isinstance(e, SyscallEvent)
            and e.number == SYSCALL_NUMBERS["write"]
        ]
        assert writes
        assert writes[0].args[0] == 7  # fd in RBX
        assert writes[0].args[1] == 99  # nbytes in RCX

    def test_attach_after_boot_still_intercepts(self, testbed):
        """HyperTap attached to an already-running guest reads the
        SYSENTER MSR instead of waiting for a WRMSR exit."""
        testbed.run_s(1.0)  # guest long since booted
        recorder = Recorder(EventType.SYSCALL)
        testbed.monitor([recorder])
        testbed.kernel.spawn_process(worker, "w", uid=1000)
        testbed.run_s(0.5)
        assert any(isinstance(e, SyscallEvent) for e in recorder.events)


class TestIOInterception:
    def test_io_events(self, testbed):
        recorder = Recorder(EventType.IO)
        testbed.monitor([recorder])

        def io_prog(ctx):
            while True:
                yield ctx.sys_disk_read(1)

        testbed.kernel.spawn_process(io_prog, "io", uid=1000)
        testbed.run_s(1.0)
        kinds = {e.kind for e in recorder.events}
        assert "pio" in kinds
        assert "interrupt" in kinds


class TestTssIntegrity:
    def test_no_alert_in_normal_operation(self, testbed):
        recorder = Recorder(EventType.TSS_INTEGRITY)
        testbed.monitor([recorder])
        testbed.run_s(2.0)
        assert recorder.events == []

    def test_tss_relocation_alert(self, testbed):
        """Fig 3C: moving TR (TSS relocation) raises an alert."""
        recorder = Recorder(EventType.TSS_INTEGRITY)
        testbed.monitor([recorder])
        testbed.run_s(0.5)
        vcpu = testbed.machine.vcpus[0]
        vcpu.guest_load_tr(vcpu.regs.tr_base + 0x1000)  # attacker LTR
        testbed.run_s(0.5)
        assert recorder.events
        alert = recorder.events[0]
        assert alert.current_tr == alert.saved_tr + 0x1000


class TestFineGrainedTracer:
    def test_watched_page_produces_access_events(self, testbed):
        recorder = Recorder(EventType.MEM_ACCESS)
        ht = testbed.monitor([recorder])
        task = testbed.kernel.spawn_process(worker, "w", uid=1000)
        # watch the page holding the worker's task_struct
        gpa = testbed.machine.page_registry.gva_to_gpa(
            testbed.kernel.kernel_pdba, task.task_struct_gva
        )
        ht.channel.tracer.watch_gpa(gpa, write=True)
        testbed.run_s(1.0)
        # utime updates by the timer tick handler write to task_struct
        # ... via host writes; guest writes come from context switches
        # on thread_info. Watch instead: TSS is guest-written; here we
        # assert the plumbing by doing an explicit guest write.
        vcpu = testbed.machine.vcpus[0]
        vcpu.guest_mem_write_u64(task.task_struct_gva, 0)
        assert any(e.gpa // 4096 == gpa // 4096 for e in recorder.events)
