"""Tests for Guest OS Hang Detection (§VII-A)."""

import pytest

from repro.auditors.goshd import GuestOSHangDetector
from repro.guest.programs import KCompute, LockAcquire
from repro.sim.clock import SECOND


def wedge_vcpu(testbed, cpu=0, lock="test_driver_lock"):
    """Leak a lock and spin a kthread on it, hanging one vCPU."""
    testbed.kernel.locks.get(lock).leak()

    def spinner(kernel, task):
        yield LockAcquire(lock)
        yield KCompute(1)  # never reached

    return testbed.kernel.spawn_kthread(spinner, "wedge", cpu=cpu)


@pytest.fixture
def goshd(testbed):
    detector = GuestOSHangDetector(threshold_ns=4 * SECOND)
    testbed.monitor([detector])
    return detector


class TestHealthyOperation:
    def test_no_false_alarms(self, testbed, goshd):
        testbed.run_s(20.0)
        assert not goshd.hang_detected
        assert goshd.alerts == []


class TestPartialHang:
    def test_single_vcpu_hang_detected(self, testbed, goshd):
        testbed.run_s(1.0)
        wedge_vcpu(testbed, cpu=0)
        testbed.run_s(8.0)
        assert goshd.hang_detected
        assert goshd.hung_vcpus == {0}
        assert not goshd.is_full_hang

    def test_partial_hang_alert_flagged_partial(self, testbed, goshd):
        testbed.run_s(1.0)
        wedge_vcpu(testbed, cpu=1)
        testbed.run_s(8.0)
        (alert,) = goshd.hang_alerts()
        assert alert["vcpu"] == 1
        assert alert["partial"] is True

    def test_other_vcpu_still_monitored_healthy(self, testbed, goshd):
        testbed.run_s(1.0)
        wedge_vcpu(testbed, cpu=0)
        testbed.run_s(10.0)
        assert 1 not in goshd.hung_vcpus


class TestFullHang:
    def test_both_vcpus_hang(self, testbed, goshd):
        testbed.run_s(1.0)
        wedge_vcpu(testbed, cpu=0, lock="test_driver_lock")
        wedge_vcpu(testbed, cpu=1, lock="test_driver_lock")
        testbed.run_s(10.0)
        assert goshd.is_full_hang
        assert goshd.full_hang_time_ns is not None

    def test_full_hang_preceded_by_partial(self, testbed, goshd):
        """All full hangs begin as partial hangs (§VII-A1)."""
        testbed.run_s(1.0)
        wedge_vcpu(testbed, cpu=0, lock="test_lock_a")
        testbed.run_s(6.0)
        first = goshd.first_hang_time_ns
        wedge_vcpu(testbed, cpu=1, lock="test_lock_b")
        testbed.run_s(6.0)
        assert goshd.is_full_hang
        assert goshd.full_hang_time_ns > first


class TestDetectionLatency:
    def test_latency_close_to_threshold(self, testbed, goshd):
        testbed.run_s(1.0)
        t_wedge = testbed.engine.clock.now
        wedge_vcpu(testbed, cpu=0)
        testbed.run_s(10.0)
        latency = goshd.first_hang_time_ns - t_wedge
        # minimal latency is the threshold (4s); checks run every 500ms
        assert 4 * SECOND <= latency <= 6 * SECOND


class TestRecovery:
    def test_transient_stall_recovers(self, testbed):
        """A long-but-finite critical section trips GOSHD, then the
        recovery event fires when scheduling resumes."""
        goshd = GuestOSHangDetector(threshold_ns=2 * SECOND)
        testbed.monitor([goshd])
        testbed.run_s(1.0)

        def long_section(kernel, task):
            from repro.guest.programs import BlockOn, LockRelease

            yield LockAcquire("dcache_lock")
            yield KCompute(5 * SECOND)
            yield LockRelease("dcache_lock")
            while True:  # well-behaved afterwards: sleeps voluntarily
                yield BlockOn("slow-idle", timeout_ns=100_000_000)

        testbed.kernel.spawn_kthread(long_section, "slow", cpu=0)
        testbed.run_s(4.0)
        assert 0 in goshd.hung_vcpus
        testbed.run_s(6.0)
        assert 0 not in goshd.hung_vcpus
        assert any(a["kind"] == "vcpu_recovered" for a in goshd.alerts)


class TestHeartbeatComparison:
    def test_heartbeat_blind_to_partial_hang(self, testbed, goshd):
        """§VIII-A3: the SSH probe stays healthy through a partial hang
        on the other vCPU — exactly why heartbeats are insufficient."""
        from repro.workloads.common import SshProbe

        probe = SshProbe(testbed.kernel)
        probe.start()
        testbed.run_s(2.0)
        # Hang the vCPU the probe is NOT pinned to.
        sshd_cpu = probe.task.cpu
        wedge_vcpu(testbed, cpu=1 - sshd_cpu)
        testbed.run_s(10.0)
        # GOSHD sees it: one vCPU hung, not all.
        assert goshd.hung_vcpus and not goshd.is_full_hang
        assert not probe.reports_dead  # the heartbeat does not
