"""Unit tests for the rootkit implementations themselves."""

import pytest

from repro.attacks.rootkits import (
    HidingTechnique,
    ROOTKIT_ZOO,
    build_rootkit,
)
from repro.errors import SimulationError
from tests.conftest import guest_view_status


def spawn_victim(testbed, uid=0):
    def prog(ctx):
        while True:
            yield ctx.compute(400_000)

    return testbed.kernel.spawn_process(prog, "victim", uid=uid, exe="/tmp/.v")


class TestZooMetadata:
    def test_table2_has_ten_rootkits(self):
        assert len(ROOTKIT_ZOO) == 10

    def test_names_unique(self):
        names = [spec.name for spec in ROOTKIT_ZOO]
        assert len(names) == len(set(names))

    def test_techniques_cover_table2(self):
        all_techniques = {
            t for spec in ROOTKIT_ZOO for t in spec.techniques
        }
        assert all_techniques == set(HidingTechnique)

    def test_build_unknown_rejected(self, testbed):
        with pytest.raises(SimulationError):
            build_rootkit("NotARootkit", testbed.kernel)


class TestDkom:
    def test_unlink_hides_from_list(self, testbed):
        victim = spawn_victim(testbed)
        rootkit = build_rootkit("FU", testbed.kernel)
        rootkit.hide_process(victim.pid)
        assert victim.pid not in testbed.kernel.guest_view_pids()

    def test_victim_keeps_running_while_hidden(self, testbed):
        """The point of process hiding: invisible but scheduled."""
        victim = spawn_victim(testbed)
        build_rootkit("FU", testbed.kernel).hide_process(victim.pid)
        ref = testbed.kernel.task_ref(victim)
        before = ref.read("utime")
        testbed.run_s(2.0)
        assert ref.read("utime") > before

    def test_double_unlink_is_safe(self, testbed):
        victim = spawn_victim(testbed)
        a = build_rootkit("FU", testbed.kernel)
        a.hide_process(victim.pid)
        b = build_rootkit("HideProc", testbed.kernel)
        b.hide_process(victim.pid)  # second unlink: no corruption
        assert len(testbed.kernel.guest_view_pids()) >= 4

    def test_hide_unknown_pid_rejected(self, testbed):
        rootkit = build_rootkit("FU", testbed.kernel)
        with pytest.raises(SimulationError):
            rootkit.hide_process(4242)


class TestSyscallHijack:
    def test_proc_list_censored(self, testbed):
        victim = spawn_victim(testbed)
        build_rootkit("AFX", testbed.kernel).hide_process(victim.pid)
        assert victim.pid not in testbed.kernel.guest_view_pids()

    def test_proc_status_censored(self, testbed):
        victim = spawn_victim(testbed)
        build_rootkit("AFX", testbed.kernel).hide_process(victim.pid)
        assert guest_view_status(testbed.kernel, victim.pid) is None

    def test_other_pids_unaffected(self, testbed):
        victim = spawn_victim(testbed)
        bystander = spawn_victim(testbed, uid=1000)
        build_rootkit("AFX", testbed.kernel).hide_process(victim.pid)
        assert bystander.pid in testbed.kernel.guest_view_pids()
        assert guest_view_status(testbed.kernel, bystander.pid) is not None

    def test_task_list_memory_untouched(self, testbed):
        """Hijacking censors the interface, not the structures."""
        victim = spawn_victim(testbed)
        build_rootkit("HideToolz", testbed.kernel).hide_process(victim.pid)
        raw_walk = {e["pid"] for e in testbed.kernel.walk_task_list_guest()}
        assert victim.pid in raw_walk

    def test_uninstall_restores_table(self, testbed):
        victim = spawn_victim(testbed)
        rootkit = build_rootkit("AFX", testbed.kernel)
        rootkit.hide_process(victim.pid)
        rootkit.unhide_all()
        assert victim.pid in testbed.kernel.guest_view_pids()


class TestCombinedTechniques:
    def test_suckit_applies_both(self, testbed):
        """kmem + DKOM: list unlinked AND the raw walk misses it."""
        victim = spawn_victim(testbed)
        build_rootkit("SucKIT", testbed.kernel).hide_process(victim.pid)
        raw_walk = {e["pid"] for e in testbed.kernel.walk_task_list_guest()}
        assert victim.pid not in raw_walk

    def test_enyelkm_hijack_plus_kmem(self, testbed):
        victim = spawn_victim(testbed)
        rootkit = build_rootkit("Enyelkm 1.2", testbed.kernel)
        rootkit.hide_process(victim.pid)
        assert victim.pid not in testbed.kernel.guest_view_pids()
        rootkit.unhide_all()
        assert victim.pid in testbed.kernel.guest_view_pids()

    def test_multiple_victims(self, testbed):
        victims = [spawn_victim(testbed) for _ in range(3)]
        rootkit = build_rootkit("SucKIT", testbed.kernel)
        for victim in victims:
            rootkit.hide_process(victim.pid)
        pids = testbed.kernel.guest_view_pids()
        for victim in victims:
            assert victim.pid not in pids
