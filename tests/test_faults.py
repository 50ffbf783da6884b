"""Tests for the fault-site catalog and the injector."""


from repro.faults.injector import FaultInjector, InjectionMode
from repro.faults.sites import (
    FaultClass,
    KERNEL_FUNCTIONS,
    PAPER_SITE_COUNT,
    build_site_catalog,
)


class TestCatalog:
    def test_paper_site_count(self):
        assert len(build_site_catalog()) == PAPER_SITE_COUNT

    def test_site_ids_stable_and_unique(self):
        a = build_site_catalog()
        b = build_site_catalog()
        assert [s.site_id for s in a] == [s.site_id for s in b]
        assert len({s.site_id for s in a}) == len(a)

    def test_covers_all_modules(self):
        modules = {site.module for site in build_site_catalog()}
        assert modules >= {"core", "ext3", "char", "block", "net"}

    def test_covers_all_fault_classes(self):
        classes = {s.fault_class for s in build_site_catalog()}
        assert classes == set(FaultClass)

    def test_wrong_order_only_with_partner_lock(self):
        for site in build_site_catalog():
            if site.fault_class is FaultClass.WRONG_ORDER:
                assert site.lock2 is not None

    def test_limit_respected(self):
        assert len(build_site_catalog(limit=10)) == 10

    def test_functions_have_known_locks(self):
        from repro.guest.locks import LockTable

        for _fn, _module, lock, lock2, _irq in KERNEL_FUNCTIONS:
            assert lock in LockTable.WELL_KNOWN
            if lock2:
                assert lock2 in LockTable.WELL_KNOWN


def site_for(function, fault_class, activation_pass=1):
    catalog = build_site_catalog()
    return next(
        s
        for s in catalog
        if s.function == function
        and s.fault_class is fault_class
        and s.activation_pass == activation_pass
    )


class TestInjector:
    def test_inactive_until_armed(self, testbed):
        site = site_for("tty_write", FaultClass.MISSING_RELEASE)
        injector = FaultInjector(site)
        injector.attach(testbed.kernel)

        def writer(ctx):
            for _ in range(20):
                yield ctx.sys_write(1, 8)
            yield ctx.exit(0)

        testbed.kernel.spawn_process(writer, "w", uid=1000)
        testbed.run_s(0.5)
        assert not injector.activated
        assert injector.hits == 0
        assert testbed.kernel.locks.get("tty_lock").holder is None

    def test_activation_pass_respected(self, testbed):
        site = site_for("tty_write", FaultClass.MISSING_IRQ_RESTORE, 5)
        injector = FaultInjector(site)
        injector.attach(testbed.kernel)
        injector.arm()

        fired_at = {}

        def writer(ctx):
            for i in range(10):
                yield ctx.sys_write(1, 8)
                if injector.activated and "i" not in fired_at:
                    fired_at["i"] = i
            yield ctx.exit(0)

        testbed.kernel.spawn_process(writer, "w", uid=1000)
        testbed.run_s(1.0)
        assert injector.activated
        assert injector.hits >= 5
        assert fired_at["i"] == 4  # activated on the 5th pass

    def test_transient_fires_once(self, testbed):
        site = site_for("tty_write", FaultClass.MISSING_RELEASE)
        injector = FaultInjector(site, InjectionMode.TRANSIENT)
        injector.attach(testbed.kernel)
        injector.arm()

        def writer(ctx):
            for _ in range(5):
                yield ctx.sys_write(1, 8)
            yield ctx.exit(0)

        testbed.kernel.spawn_process(writer, "w", uid=1000)
        testbed.run_s(1.0)
        assert injector.activations == 1

    def test_persistent_fires_repeatedly(self, testbed):
        site = site_for("path_lookup", FaultClass.MISSING_IRQ_RESTORE)
        injector = FaultInjector(site, InjectionMode.PERSISTENT)
        injector.attach(testbed.kernel)
        injector.arm()

        def opener(ctx):
            for _ in range(5):
                yield ctx.sys_open("/x")
                yield ctx.sys_nanosleep(10_000_000)
            yield ctx.exit(0)

        testbed.kernel.spawn_process(opener, "o", uid=1000)
        testbed.run_s(1.5)
        assert injector.activations >= 2

    def test_missing_release_leaks_lock(self, testbed):
        from repro.guest.locks import LEAKED

        site = site_for("tty_write", FaultClass.MISSING_RELEASE)
        injector = FaultInjector(site)
        injector.attach(testbed.kernel)
        injector.arm()

        def writer(ctx):
            yield ctx.sys_write(1, 8)
            yield ctx.exit(0)

        testbed.kernel.spawn_process(writer, "w", uid=1000)
        testbed.run_s(0.5)
        assert testbed.kernel.locks.get("tty_lock").holder is LEAKED

    def test_missing_pair_blocks_holding_lock(self, testbed):
        site = site_for("path_lookup", FaultClass.MISSING_PAIR)
        injector = FaultInjector(site)
        injector.attach(testbed.kernel)
        injector.arm()

        def opener(ctx):
            yield ctx.sys_open("/x")
            yield ctx.exit(0)

        task = testbed.kernel.spawn_process(opener, "o", uid=1000)
        testbed.run_s(0.5)
        lock = testbed.kernel.locks.get("dcache_lock")
        assert lock.holder is task  # asleep holding the spinlock

    def test_irq_restore_wedges_flag_while_running(self, testbed):
        site = site_for("tty_write", FaultClass.MISSING_IRQ_RESTORE)
        injector = FaultInjector(site)
        injector.attach(testbed.kernel)
        injector.arm()

        seen = {}

        def writer(ctx):
            yield ctx.sys_write(1, 8)
            seen["irqs"] = testbed.kernel.cpus[0].irqs_enabled or \
                testbed.kernel.cpus[1].irqs_enabled is False
            # keep computing so the wedged CPU never reschedules
            while True:
                yield ctx.compute(1_000_000)

        task = testbed.kernel.spawn_process(writer, "w", uid=1000)
        testbed.run_s(0.3)
        assert injector.activated
        assert not testbed.kernel.cpus[task.cpu].irqs_enabled

    def test_drop_work_kills_network_path(self, testbed):
        site = site_for("net_rx_action", FaultClass.MISSING_PAIR)
        injector = FaultInjector(site, InjectionMode.PERSISTENT)
        injector.attach(testbed.kernel)

        from repro.workloads.common import SshProbe

        probe = SshProbe(testbed.kernel)
        probe.start()
        testbed.run_s(4.0)
        assert probe.stats["responses"] > 0
        injector.arm()
        testbed.run_s(6.0)
        assert probe.reports_dead
        # ...while the scheduler is perfectly healthy:
        now = testbed.engine.clock.now
        for cpu in testbed.kernel.cpus:
            assert now - cpu.last_switch_ns < 4_000_000_000
