"""Tests for exploits, attack strategies, and the /proc side channel."""

import pytest

from repro.attacks.exploits import (
    CVE_2010_3847,
    CVE_2013_1763,
    ExploitPlan,
)
from repro.attacks.sidechannel import IntervalEstimate, ProcSideChannel
from repro.attacks.strategies import (
    RootkitCombinedAttack,
    SpammingAttack,
    TransientAttack,
)
from repro.auditors.o_ninja import ONinja
from repro.sim.clock import MILLISECOND, SECOND
from tests.conftest import guest_view_status


class TestExploits:
    def test_transient_attack_escalates_and_exits(self, testbed):
        attack = TransientAttack(testbed.kernel)
        attack.launch()
        testbed.run_s(1.0)
        result = attack.result
        assert result.escalated
        assert result.acted_ns is not None
        assert result.acted_ns >= result.escalated_ns
        # attacker process is gone
        assert result.attacker_pid not in testbed.kernel.guest_view_pids()

    def test_attacker_parent_is_unprivileged_shell(self, testbed):
        attack = TransientAttack(testbed.kernel, ExploitPlan(exit_after=False))
        attack.launch()
        testbed.run_s(0.5)
        entry = guest_view_status(testbed.kernel, attack.result.attacker_pid)
        assert entry["euid"] == 0  # escalated
        parent = guest_view_status(testbed.kernel, attack.shell.pid)
        assert parent["uid"] == 1000
        assert entry["parent_gva"] == attack.shell.task_struct_gva

    def test_visible_window_measured(self, testbed):
        attack = TransientAttack(
            testbed.kernel, ExploitPlan(post_escalation_ns=2_000_000)
        )
        attack.launch()
        testbed.run_s(1.0)
        window = attack.result.visible_window_ns(testbed.engine.clock.now)
        assert 0 < window < 50 * MILLISECOND

    def test_both_cves_supported(self, testbed):
        for cve in (CVE_2013_1763, CVE_2010_3847):
            attack = TransientAttack(testbed.kernel, ExploitPlan(cve=cve))
            attack.launch()
        testbed.run_s(1.0)
        cves = {entry[2] for entry in testbed.kernel.exploit_log}
        assert cves == {CVE_2013_1763, CVE_2010_3847}


class TestRootkitCombined:
    def test_rootkit_installed_right_after_escalation(self, testbed):
        attack = RootkitCombinedAttack(testbed.kernel)
        attack.launch()
        testbed.run_s(1.0)
        result = attack.result
        assert result.rootkit_installed_ns is not None
        assert result.rootkit_installed_ns >= result.escalated_ns
        assert attack.rootkit is not None
        assert result.attacker_pid in attack.rootkit.hidden_pids

    def test_visible_window_shrinks_with_rootkit(self, testbed):
        """Hiding caps the window at escalation->install, not exit."""
        attack = RootkitCombinedAttack(
            testbed.kernel,
            plan=ExploitPlan(exit_after=False, post_escalation_ns=10_000_000),
        )
        attack.launch()
        testbed.run_s(1.0)
        window = attack.result.visible_window_ns(testbed.engine.clock.now)
        assert window < 5 * MILLISECOND


class TestSpamming:
    def test_spam_populates_process_list(self, testbed):
        spam = SpammingAttack(testbed.kernel, idle_processes=50)
        spam.spam()
        testbed.run_s(0.3)
        assert len(testbed.kernel.guest_view_pids()) >= 50

    def test_launch_spams_if_not_done(self, testbed):
        spam = SpammingAttack(testbed.kernel, idle_processes=10)
        spam.launch()
        assert len(spam.spawned) == 10


class TestSideChannel:
    def test_interval_estimate_statistics(self):
        estimate = IntervalEstimate(samples=[1.0, 1.1, 0.9])
        assert estimate.mean == pytest.approx(1.0)
        assert estimate.minimum == 0.9
        assert estimate.maximum == 1.1
        assert estimate.stdev == pytest.approx(0.1)

    def test_measures_oninja_interval(self, testbed):
        """Table III: the predicted interval matches the configured one
        to sub-millisecond accuracy."""
        oninja = ONinja(testbed.kernel, interval_ns=1 * SECOND)
        oninja.install()

        def idle(ctx):  # a realistic process population (paper: 31)
            while True:
                yield ctx.sys_nanosleep(400 * MILLISECOND)

        for i in range(25):
            testbed.kernel.spawn_process(idle, f"svc{i}", uid=1000)
        testbed.run_s(0.3)
        channel = ProcSideChannel(
            testbed.kernel, oninja.pid, poll_period_ns=300_000
        )
        channel.launch()
        testbed.run_s(8.0)
        estimate = channel.estimate()
        assert estimate is not None
        assert estimate.mean == pytest.approx(1.0, abs=0.01)
        assert estimate.stdev < 0.005

    def test_blind_against_h_ninja(self, testbed):
        """No /proc entry to poll: the stat read returns None."""
        channel = ProcSideChannel(testbed.kernel, target_pid=9999)
        channel.launch()
        testbed.run_s(1.0)
        assert channel.observations == []
        assert channel.estimate() is None

    def test_stop(self, testbed):
        oninja = ONinja(testbed.kernel, interval_ns=1 * SECOND)
        oninja.install()
        channel = ProcSideChannel(testbed.kernel, oninja.pid)
        channel.launch()
        testbed.run_s(1.0)
        channel.stop()
        count = len(channel.observations)
        testbed.run_s(1.0)
        assert len(channel.observations) == count
