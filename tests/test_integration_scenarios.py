"""End-to-end scenarios tying whole subsystems together.

Each test here is a miniature of one of the paper's headline results,
run at reduced scale so the suite stays fast; the results themselves
are the ``repro.experiments`` runners, checked in
``tests/test_paper_results.py``.
"""


from repro.attacks.exploits import ExploitPlan
from repro.attacks.rootkits import build_rootkit
from repro.attacks.strategies import RootkitCombinedAttack, SpammingAttack
from repro.auditors.goshd import GuestOSHangDetector
from repro.auditors.hrkd import HiddenRootkitDetector
from repro.auditors.ht_ninja import HTNinja
from repro.auditors.o_ninja import ONinja
from repro.faults.campaign import Outcome, TrialConfig, run_trial
from repro.faults.injector import InjectionMode
from repro.faults.sites import FaultClass, build_site_catalog
from repro.harness import Testbed, TestbedConfig
from repro.sim.clock import SECOND
from repro.vmi.introspection import KernelSymbolMap, OsInvariantView


class TestRnSUnification:
    """GOSHD (reliability) + HRKD (security) + PED share one channel."""

    def test_all_three_auditors_coexist(self):
        testbed = Testbed(TestbedConfig(seed=3))
        testbed.boot()
        goshd = GuestOSHangDetector()
        hrkd = HiddenRootkitDetector()
        ninja = HTNinja()
        hypertap = testbed.monitor([goshd, hrkd, ninja])
        hrkd.set_vmi_view(
            OsInvariantView(
                testbed.machine, KernelSymbolMap.from_kernel(testbed.kernel)
            )
        )

        # A busy guest with an attack AND a hidden process.
        def busy(ctx):
            while True:
                yield ctx.compute(300_000)
                yield ctx.sys_write(1, 16)

        victim = testbed.kernel.spawn_process(
            busy, "malware", uid=0, exe="/tmp/.m"
        )
        testbed.run_s(1.0)
        build_rootkit("SucKIT", testbed.kernel).hide_process(victim.pid)
        RootkitCombinedAttack(testbed.kernel).launch()
        testbed.run_s(2.0)

        # Security: both detectors fired...
        assert ninja.detected
        assert hrkd.scan_vmi().rootkit_detected
        # ...reliability: no hang, no false alarm...
        assert not goshd.hang_detected
        # ...and the single logging channel served all three:
        assert len(hypertap.channels) == 1
        assert hypertap.container.delivered > 0

    def test_shared_event_consumed_by_reliability_and_security(self):
        """One context-switch event stream feeds both GOSHD and HRKD —
        the unification argument of §I."""
        testbed = Testbed(TestbedConfig(seed=4))
        testbed.boot()
        goshd = GuestOSHangDetector()
        hrkd = HiddenRootkitDetector()
        testbed.monitor([goshd, hrkd])
        testbed.run_s(2.0)
        from repro.core.events import EventType

        assert goshd.events_seen[EventType.THREAD_SWITCH] > 0
        assert hrkd.events_seen[EventType.THREAD_SWITCH] > 0
        # Exactly one interception pipeline produced them.
        published = testbed.hypertap.channel.events_published[
            EventType.THREAD_SWITCH
        ]
        assert goshd.events_seen[EventType.THREAD_SWITCH] == published


class TestFig4Miniature:
    def test_outcome_mix_over_small_grid(self):
        """A 12-trial slice of the Fig 4 campaign shows the expected
        outcome diversity (hangs present, detection working)."""
        catalog = build_site_catalog()
        picks = [
            s
            for s in catalog
            if s.activation_pass == 1
            and s.fault_class is FaultClass.MISSING_RELEASE
        ][:6]
        config_kwargs = dict(
            warmup_ns=1 * SECOND,
            detect_window_ns=10 * SECOND,
            classify_window_ns=6 * SECOND,
        )
        outcomes = []
        for site in picks:
            result = run_trial(
                site,
                TrialConfig(
                    workload="make-j2",
                    mode=InjectionMode.PERSISTENT,
                    **config_kwargs,
                ),
            )
            outcomes.append(result.outcome)
        hangs = [
            o
            for o in outcomes
            if o in (Outcome.PARTIAL_HANG, Outcome.FULL_HANG)
        ]
        assert hangs, f"no hangs in {outcomes}"
        # Every detected hang had latency >= the GOSHD threshold.


class TestNinjaShootoutMiniature:
    def test_active_beats_passive_head_to_head(self):
        """Same attack, same guest: O-Ninja misses, HT-Ninja detects."""
        testbed = Testbed(TestbedConfig(seed=5))
        testbed.boot()
        ht_ninja = HTNinja()
        testbed.monitor([ht_ninja])
        o_ninja = ONinja(testbed.kernel, interval_ns=0)
        o_ninja.install()
        testbed.run_s(0.5)

        attack = SpammingAttack(
            testbed.kernel,
            idle_processes=100,
            inner=RootkitCombinedAttack(
                testbed.kernel, plan=ExploitPlan(exit_after=True)
            ),
        )
        attack.spam()
        testbed.run_s(0.3)
        attack.launch()
        testbed.run_s(1.0)

        assert attack.result.escalated
        assert ht_ninja.detected
        assert not o_ninja.detected


class TestMonitoringRobustness:
    def test_monitoring_survives_guest_hang(self):
        """A hung guest must not hang the monitor: GOSHD keeps running
        and reports, HRKD still answers scans."""
        testbed = Testbed(TestbedConfig(seed=6))
        testbed.boot()
        goshd = GuestOSHangDetector()
        hrkd = HiddenRootkitDetector()
        testbed.monitor([goshd, hrkd])
        testbed.run_s(1.0)
        testbed.kernel.locks.get("tasklist_lock").leak()

        def toucher(ctx):  # everyone piles onto the leaked lock
            while True:
                yield ctx.sys_proc_list()

        for i in range(2):
            testbed.kernel.spawn_process(toucher, f"t{i}", uid=1000)
        testbed.run_s(10.0)
        assert goshd.hang_detected
        assert isinstance(hrkd.trusted_pids(), set)  # still responsive

    def test_seed_determinism(self):
        """Same seed => bit-identical simulation outcomes."""

        def run_once():
            testbed = Testbed(TestbedConfig(seed=99))
            testbed.boot()
            goshd = GuestOSHangDetector()
            testbed.monitor([goshd])
            from repro.workloads.common import start_workload

            start_workload(testbed.kernel, "make-j2")
            testbed.run_s(3.0)
            return (
                testbed.kernel.syscall_count,
                tuple(c.context_switches for c in testbed.kernel.cpus),
                testbed.kvm.handled_exits,
            )

        assert run_once() == run_once()

    def test_different_seeds_diverge_at_device_level(self):
        """Seeds perturb device-latency jitter streams (visible at the
        device level; executor step quantization may hide it end to
        end, which is fine — determinism per seed is what matters)."""

        def latencies(seed):
            testbed = Testbed(TestbedConfig(seed=seed))
            return [
                testbed.machine.rng.jitter_ns("disk-latency", 140_000, 0.15)
                for _ in range(8)
            ]

        assert latencies(1) != latencies(2)
        assert latencies(3) == latencies(3)
