"""Further O-Ninja behaviour details (§VII-C / §VIII-C)."""

from repro.attacks.exploits import ExploitPlan
from repro.attacks.strategies import TransientAttack
from repro.auditors.ninja_rules import NinjaPolicy
from repro.auditors.o_ninja import ONinja
from repro.sim.clock import MILLISECOND, SECOND
from tests.conftest import guest_view_status


class TestONinjaConfig:
    def test_custom_policy_whitelist(self, testbed):
        """ninja.conf whitelisting: the escalated exe is exempted."""
        policy = NinjaPolicy(
            whitelist=frozenset({"/home/user/exploit", "/bin/su"})
        )
        oninja = ONinja(
            testbed.kernel, interval_ns=100 * MILLISECOND, policy=policy
        )
        oninja.install()
        testbed.run_s(0.3)
        TransientAttack(testbed.kernel, ExploitPlan(exit_after=False)).launch()
        testbed.run_s(2.0)
        assert not oninja.detected  # whitelisted -> ignored

    def test_magic_group_authorizes_parent(self, testbed):
        policy = NinjaPolicy(magic_uids=frozenset({0, 1000}))
        oninja = ONinja(
            testbed.kernel, interval_ns=100 * MILLISECOND, policy=policy
        )
        oninja.install()
        testbed.run_s(0.3)
        # Attacker shell uid 1000 is now "magic": escalation authorized.
        TransientAttack(testbed.kernel, ExploitPlan(exit_after=False)).launch()
        testbed.run_s(2.0)
        assert not oninja.detected

    def test_scan_counter_advances(self, testbed):
        oninja = ONinja(testbed.kernel, interval_ns=200 * MILLISECOND)
        oninja.install()
        testbed.run_s(2.0)
        assert oninja.scans_completed >= 5

    def test_ninja_runs_as_root_daemon(self, testbed):
        oninja = ONinja(testbed.kernel, interval_ns=1 * SECOND)
        oninja.install()
        entry = guest_view_status(testbed.kernel, oninja.pid)
        assert entry["uid"] == 0
        assert entry["exe"] == "/usr/sbin/ninja"

    def test_detection_records_details(self, testbed):
        oninja = ONinja(testbed.kernel, interval_ns=100 * MILLISECOND)
        oninja.install()
        testbed.run_s(0.3)
        attack = TransientAttack(
            testbed.kernel, ExploitPlan(exit_after=False)
        )
        attack.launch()
        testbed.run_s(2.0)
        assert oninja.detected
        detection = oninja.detections[0]
        assert detection["pid"] == attack.result.attacker_pid
        assert detection["time_ns"] > attack.result.escalated_ns

    def test_no_detection_of_ordinary_system(self, testbed):
        oninja = ONinja(testbed.kernel, interval_ns=100 * MILLISECOND)
        oninja.install()
        from repro.workloads.common import start_workload

        start_workload(testbed.kernel, "make-j2")
        testbed.run_s(3.0)
        assert not oninja.detected
