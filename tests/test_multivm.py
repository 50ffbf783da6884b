"""Tests for multi-VM hosting (Fig 2's deployment shape)."""

import pytest

from repro.auditors.goshd import GuestOSHangDetector
from repro.auditors.ht_ninja import HTNinja
from repro.core.auditor import Auditor
from repro.core.events import EventType
from repro.guest.programs import KCompute, LockAcquire
from repro.harness import SharedHost, TestbedConfig


class Crasher(Auditor):
    name = "crasher"
    subscriptions = {EventType.THREAD_SWITCH}

    def audit(self, event):
        raise RuntimeError("bug")


class Counter(Auditor):
    name = "counter"
    subscriptions = {EventType.THREAD_SWITCH}

    def audit(self, event):
        pass


def busy(ctx):
    while True:
        yield ctx.compute(300_000)
        yield ctx.sys_write(1, 8)


@pytest.fixture
def host():
    return SharedHost(num_vms=2, base_config=TestbedConfig(seed=31))


class TestSharedHost:
    def test_both_guests_run_on_one_timeline(self, host):
        host.run_s(2.0)
        for vm in host.vms:
            assert vm.kernel.syscall_count > 0
            assert sum(c.context_switches for c in vm.kernel.cpus) > 0

    def test_events_routed_by_vm(self, host):
        counters = []
        for index, vm in enumerate(host.vms):
            counter = Counter()
            counters.append(counter)
            host.monitor(index, [counter])
        # Load only vm0.
        host.vms[0].kernel.spawn_process(busy, "b", uid=1000)
        host.run_s(2.0)
        vm0_events = sum(counters[0].events_seen.values())
        vm1_events = sum(counters[1].events_seen.values())
        assert vm0_events > vm1_events

    def test_container_isolation_between_vms(self, host):
        crasher = Crasher()
        counter = Counter()
        host.monitor(0, [crasher])
        host.monitor(1, [counter])
        for vm in host.vms:
            vm.kernel.spawn_process(busy, "b", uid=1000)
        host.run_s(2.0)
        assert host.vms[0].hypertap.container.failed
        assert not host.vms[1].hypertap.container.failed
        assert sum(counter.events_seen.values()) > 0

    def test_independent_detections(self, host):
        """A hang in vm0 must not alarm vm1's GOSHD, and vice versa."""
        goshd0 = GuestOSHangDetector()
        goshd1 = GuestOSHangDetector()
        host.monitor(0, [goshd0])
        host.monitor(1, [goshd1])
        host.run_s(1.0)

        kernel0 = host.vms[0].kernel
        kernel0.locks.get("test_driver_lock").leak()

        def spinner(kernel, task):
            yield LockAcquire("test_driver_lock")
            yield KCompute(1)

        kernel0.spawn_kthread(spinner, "wedge", cpu=0)
        host.run_s(8.0)
        assert goshd0.hang_detected
        assert not goshd1.hang_detected

    def test_shared_rhc(self):
        host = SharedHost(
            num_vms=2,
            base_config=TestbedConfig(seed=3, rhc_timeout_s=3),
            with_rhc=True,
        )
        host.monitor(0, [Counter()])
        host.monitor(1, [Counter()])
        for vm in host.vms:
            vm.kernel.spawn_process(busy, "b", uid=1000)
        host.run_s(4.0)
        assert host.rhc.heartbeats > 0
        assert not host.rhc.alarmed

    def test_attack_on_one_vm_detected_there_only(self, host):
        from repro.attacks.strategies import TransientAttack
        from repro.attacks.exploits import ExploitPlan

        ninja0 = HTNinja()
        ninja1 = HTNinja()
        host.monitor(0, [ninja0])
        host.monitor(1, [ninja1])
        host.run_s(0.5)
        TransientAttack(
            host.vms[0].kernel, ExploitPlan(exit_after=False)
        ).launch()
        host.run_s(1.0)
        assert ninja0.detected
        assert not ninja1.detected
