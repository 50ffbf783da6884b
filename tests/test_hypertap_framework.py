"""Tests for the HyperTap facade: modes, lifecycle, control interface."""

import pytest

from repro.core.auditor import Auditor
from repro.core.events import EventType
from repro.errors import ConfigurationError, SimulationError
from repro.harness import Testbed, TestbedConfig


class SwitchWatcher(Auditor):
    name = "switch-watcher"
    subscriptions = {EventType.THREAD_SWITCH}

    def audit(self, event):
        pass


class SyscallWatcher(Auditor):
    name = "syscall-watcher"
    subscriptions = {EventType.SYSCALL}

    def audit(self, event):
        pass


def busy(ctx):
    while True:
        yield ctx.compute(200_000)
        yield ctx.sys_write(1, 8)


class TestLifecycle:
    def test_attach_requires_auditors(self, testbed):
        from repro.core.hypertap import HyperTap

        hypertap = HyperTap(testbed.machine, testbed.kvm)
        with pytest.raises(ConfigurationError):
            hypertap.attach()

    def test_double_attach_rejected(self, testbed):
        hypertap = testbed.monitor([SwitchWatcher()])
        with pytest.raises(SimulationError):
            hypertap.attach()

    def test_register_after_attach_rejected(self, testbed):
        hypertap = testbed.monitor([SwitchWatcher()])
        with pytest.raises(SimulationError):
            hypertap.register_auditor(SyscallWatcher())

    def test_stats(self, testbed):
        hypertap = testbed.monitor([SwitchWatcher()])
        testbed.run_s(1.0)
        stats = hypertap.stats()
        assert stats["exits_handled"] > 0
        assert stats["events_delivered"] > 0
        assert stats.get("published_thread_switch", 0) > 0


class TestPauseResume:
    def test_pause_freezes_guest(self, testbed):
        hypertap = testbed.monitor([SwitchWatcher()])
        testbed.kernel.spawn_process(busy, "b", uid=1000)
        testbed.run_s(0.5)
        hypertap.pause_vm()
        switches = [c.context_switches for c in testbed.kernel.cpus]
        syscalls = testbed.kernel.syscall_count
        testbed.run_s(2.0)
        assert [c.context_switches for c in testbed.kernel.cpus] == switches
        assert testbed.kernel.syscall_count == syscalls

    def test_resume_continues(self, testbed):
        hypertap = testbed.monitor([SwitchWatcher()])
        testbed.kernel.spawn_process(busy, "b", uid=1000)
        testbed.run_s(0.5)
        hypertap.pause_vm()
        testbed.run_s(1.0)
        hypertap.resume_vm()
        syscalls = testbed.kernel.syscall_count
        testbed.run_s(1.0)
        assert testbed.kernel.syscall_count > syscalls


class TestUnifiedVsSeparate:
    """The DESIGN.md §5 ablation at unit scale: shared events cost the
    guest once in unified mode, once *per monitor* in separate mode."""

    def _run(self, mode):
        testbed = Testbed(
            TestbedConfig(num_vcpus=2, seed=7, monitoring_mode=mode)
        )
        testbed.boot()
        # Two auditors sharing the THREAD_SWITCH event stream.
        testbed.monitor([SwitchWatcher(), SwitchWatcher()])
        from repro.workloads.unixbench import run_microbench

        return run_microbench(
            testbed, "context-switch", overrides={"iterations": 300}
        )

    def test_separate_mode_slower(self):
        unified = self._run("unified")
        separate = self._run("separate")
        assert separate > unified

    def test_bad_mode_rejected(self, testbed):
        from repro.core.hypertap import HyperTap

        with pytest.raises(ConfigurationError):
            HyperTap(testbed.machine, testbed.kvm, mode="psychic")

    def test_separate_mode_still_delivers_to_all(self):
        testbed = Testbed(
            TestbedConfig(num_vcpus=2, seed=7, monitoring_mode="separate")
        )
        testbed.boot()
        a, b = SwitchWatcher(), SwitchWatcher()
        testbed.monitor([a, b])
        testbed.kernel.spawn_process(busy, "b", uid=1000)
        testbed.run_s(0.5)
        assert sum(a.events_seen.values()) > 0
        assert sum(b.events_seen.values()) > 0
