"""Tests for the Vigilant-style learned failure detector (§VII-D)."""

from repro.auditors.vigilant import (
    Envelope,
    FEATURE_NAMES,
    FeatureWindow,
    VigilantDetector,
)
from repro.guest.programs import KCompute, LockAcquire
from repro.workloads.common import start_workload


def attach_vigilant(testbed, **kwargs):
    detector = VigilantDetector(
        window_ns=500_000_000, training_windows=6, **kwargs
    )
    testbed.monitor([detector])
    return detector


class TestFeatureModel:
    def test_feature_vector_shape(self):
        window = FeatureWindow(
            thread_switches=10,
            syscalls=5,
            io_events=2,
            per_vcpu_switches={0: 6, 1: 4},
        )
        vector = window.vector(num_vcpus=2)
        assert len(vector) == len(FEATURE_NAMES)
        assert vector[0] == 10.0
        assert vector[3] == 4.0  # min per-vCPU switches

    def test_missing_vcpu_counts_as_zero(self):
        window = FeatureWindow(per_vcpu_switches={0: 6})
        assert window.vector(num_vcpus=2)[3] == 0.0

    def test_envelope_violations(self):
        envelope = Envelope(lows=[0, 0, 0, 1], highs=[10, 10, 10, 10])
        assert envelope.violations([5, 5, 5, 5]) == []
        bad = envelope.violations([20, 5, 5, 0])
        assert len(bad) == 2
        assert any("switch_rate" in v for v in bad)
        assert any("min_vcpu_switches" in v for v in bad)


class TestVigilantDetection:
    def test_trains_on_healthy_run(self, testbed):
        detector = attach_vigilant(testbed)
        start_workload(testbed.kernel, "make-j2")
        testbed.run_s(5.0)
        assert detector.trained
        assert detector.anomalies == []

    def test_no_false_alarms_on_steady_load(self, testbed):
        detector = attach_vigilant(testbed)
        start_workload(testbed.kernel, "http")
        testbed.run_s(12.0)
        assert detector.trained
        assert detector.anomalies == []

    def test_detects_hang_as_anomaly(self, testbed):
        """A vCPU hang zeroes the min-per-vCPU-switch feature."""
        detector = attach_vigilant(testbed)
        start_workload(testbed.kernel, "make-j2")
        testbed.run_s(5.0)
        assert detector.trained
        testbed.kernel.locks.get("test_driver_lock").leak()

        def spinner(kernel, task):
            yield LockAcquire("test_driver_lock")
            yield KCompute(1)

        testbed.kernel.spawn_kthread(spinner, "wedge", cpu=0)
        testbed.run_s(5.0)
        assert detector.anomalies
        violations = detector.anomalies[0]["violations"]
        assert any("min_vcpu_switches" in v for v in violations)

    def test_detects_syscall_storm(self, testbed):
        detector = attach_vigilant(testbed)
        testbed.run_s(4.0)  # train on a quiet guest
        assert detector.trained

        def storm(ctx):
            while True:
                yield ctx.sys_getpid()

        testbed.kernel.spawn_process(storm, "storm", uid=1000)
        testbed.run_s(3.0)
        assert detector.anomalies
        assert any(
            "syscall_rate" in v
            for a in detector.anomalies
            for v in a["violations"]
        )

    def test_alarm_needs_consecutive_windows(self, testbed):
        detector = attach_vigilant(testbed, alarm_after=4)
        testbed.run_s(4.0)
        assert detector.trained
        # One anomalous window (a brief burst) must not alarm.
        def brief_burst(ctx):
            for _ in range(400):
                yield ctx.sys_getpid()
            yield ctx.exit(0)

        testbed.kernel.spawn_process(brief_burst, "burst", uid=1000)
        testbed.run_s(0.6)
        testbed.run_s(3.0)
        assert detector.anomalies == []
