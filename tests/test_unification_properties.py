"""Cross-cutting tests of the paper's unification claims (§IV)."""


from repro.auditors import (
    GuestOSHangDetector,
    HTNinja,
    HiddenRootkitDetector,
    KernelDataWatch,
    SyscallPolicyAuditor,
    VigilantDetector,
)
from repro.core.events import EventType
from repro.harness import Testbed, TestbedConfig
from repro.hw.exits import ExitReason
from repro.replay.recorder import RecordingAuditor
from repro.workloads.common import start_workload


class TestManyAuditorsOneChannel:
    def test_seven_auditors_coexist(self):
        """§I's motivation: RnS monitors that would conflict if each
        owned its own trap configuration co-exist on one channel."""
        testbed = Testbed(TestbedConfig(seed=51))
        testbed.boot()
        auditors = [
            GuestOSHangDetector(),
            HiddenRootkitDetector(),
            HTNinja(),
            SyscallPolicyAuditor({}, default_allow=True),
            VigilantDetector(),
            KernelDataWatch(),
            RecordingAuditor(),
        ]
        hypertap = testbed.monitor(auditors)
        watch = auditors[5]
        watch.watch_all_tasks(testbed.kernel)
        start_workload(testbed.kernel, "make-j2")

        # Give the data watch something to see: a root process pokes a
        # watched kernel page through /dev/kmem.
        init = testbed.kernel.find_task(1)
        link_gva = next(iter(watch._link_fields))

        def poker(ctx):
            value = yield ctx.kmem_read(link_gva)
            yield ctx.kmem_write(link_gva, value)  # benign rewrite
            yield ctx.exit(0)

        testbed.kernel.spawn_process(poker, "poker", uid=0, exe="/poker")
        testbed.run_s(3.0)
        assert len(hypertap.channels) == 1
        for auditor in auditors:
            assert sum(auditor.events_seen.values()) > 0, auditor.name
        assert not hypertap.container.failed

    def test_exit_configuration_is_union_not_conflict(self):
        """Two monitors needing the same trap share it: the VMCS holds
        one coherent configuration, not a fight over a register."""
        testbed = Testbed(TestbedConfig(seed=52))
        testbed.boot()
        testbed.monitor([GuestOSHangDetector(), HiddenRootkitDetector()])
        for vcpu in testbed.machine.vcpus:
            assert vcpu.vmcs.controls.cr3_load_exiting
        # One interceptor set, despite two consumers of switch events.
        channel = testbed.hypertap.channel
        assert channel.thread_switches is not None
        assert (
            testbed.multiplexer.interest_count("vm0", ExitReason.EPT_VIOLATION)
            == 1
        )

    def test_events_identical_across_auditors(self):
        """Both consumers see the same number of shared events — no
        sampling skew between reliability and security sides."""
        testbed = Testbed(TestbedConfig(seed=53))
        testbed.boot()
        goshd = GuestOSHangDetector()
        hrkd = HiddenRootkitDetector()
        testbed.monitor([goshd, hrkd])
        start_workload(testbed.kernel, "hanoi")
        testbed.run_s(3.0)
        assert (
            goshd.events_seen[EventType.THREAD_SWITCH]
            == hrkd.events_seen[EventType.THREAD_SWITCH]
        )


class TestRootOfTrustProperties:
    def test_no_guest_cooperation_required(self):
        """Monitoring works on a guest whose /proc layer is entirely
        hijacked — nothing the monitors consume originates from guest
        self-reporting."""
        from repro.attacks.rootkits import build_rootkit

        testbed = Testbed(TestbedConfig(seed=54))
        testbed.boot()
        goshd = GuestOSHangDetector()
        ninja = HTNinja()
        testbed.monitor([goshd, ninja])

        def malware(ctx):
            while True:
                yield ctx.compute(300_000)
                yield ctx.sys_write(1, 8)

        victim = testbed.kernel.spawn_process(
            malware, "mal", uid=0, exe="/tmp/.m"
        )
        rootkit = build_rootkit("AFX", testbed.kernel)
        rootkit.hide_process(victim.pid)
        testbed.run_s(2.0)
        # Events keep flowing and no false hang despite the hijack.
        assert sum(goshd.events_seen.values()) > 0
        assert not goshd.hang_detected

    def test_monitoring_survives_proc_poisoning(self):
        """An attacker replacing /proc results with garbage cannot
        crash the auditors (they never parse guest-provided bytes)."""
        testbed = Testbed(TestbedConfig(seed=55))
        testbed.boot()
        ninja = HTNinja()
        testbed.monitor([ninja])

        def poisoned_proc_list(kernel, task, args):
            yield from ()
            return ["not-an-int", {"x": 1}, None]

        testbed.kernel.syscall_table["proc_list"] = poisoned_proc_list
        start_workload(testbed.kernel, "make-j1")
        testbed.run_s(2.0)
        assert not testbed.hypertap.container.failed
