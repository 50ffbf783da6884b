"""Tests for EF -> EM -> container -> RHC plumbing."""

import pytest

from repro.core.auditor import Auditor
from repro.core.events import EventType
from repro.errors import ConfigurationError
from repro.harness import Testbed, TestbedConfig
from repro.hw.exits import ExitReason
from repro.hypervisor.containers import AuditingContainer
from repro.hypervisor.event_forwarder import EventForwarder
from repro.hypervisor.event_multiplexer import EventMultiplexer
from repro.hypervisor.rhc import RemoteHealthChecker
from repro.sim.clock import SECOND
from repro.sim.engine import Engine


class CountingAuditor(Auditor):
    name = "counter"
    subscriptions = {EventType.THREAD_SWITCH, EventType.SYSCALL}

    def audit(self, event):
        pass


class CrashingAuditor(Auditor):
    name = "crasher"
    subscriptions = {EventType.THREAD_SWITCH}

    def audit(self, event):
        raise RuntimeError("auditor bug")


def busy_program(ctx):
    while True:
        yield ctx.compute(200_000)
        yield ctx.sys_write(1, 8)


class TestEventMultiplexer:
    def test_interest_count(self):
        em = EventMultiplexer()
        em.register_consumer(
            "vm0", frozenset({ExitReason.CR_ACCESS}), lambda v, e: None
        )
        assert em.interest_count("vm0", ExitReason.CR_ACCESS) == 1
        assert em.interest_count("vm0", ExitReason.WRMSR) == 0
        assert em.interest_count("vm1", ExitReason.CR_ACCESS) == 0


class TestEventForwarder:
    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            EventForwarder(EventMultiplexer(), mode="turbo")

    def test_suppresses_uninteresting_exits(self, testbed):
        em = testbed.multiplexer
        forwarder = EventForwarder(em)
        testbed.kvm.attach_forwarder(forwarder)
        testbed.run_s(0.5)  # timer exits happen, no consumers
        assert forwarder.forwarded == 0
        assert forwarder.suppressed > 0


class TestContainers:
    def test_crash_is_contained(self, testbed):
        crasher = CrashingAuditor()
        counter = CountingAuditor()
        testbed.monitor([crasher, counter])
        testbed.kernel.spawn_process(busy_program, "busy", uid=1000)
        testbed.run_s(1.0)
        container = testbed.hypertap.container
        assert container.failed
        assert "auditor bug" in container.failure_reason

    def test_failed_container_drops_events(self):
        container = AuditingContainer("vm0")
        crasher = CrashingAuditor()
        container.add_auditor(crasher)
        container.deliver(crasher, object())
        container.deliver(crasher, object())
        assert container.failed
        assert container.dropped == 2

    def test_monitoring_pipeline_survives_container_crash(self, testbed):
        crasher = CrashingAuditor()
        testbed.monitor([crasher])
        testbed.kernel.spawn_process(busy_program, "busy", uid=1000)
        testbed.run_s(1.0)
        # The EM keeps multiplexing (the guest keeps running) even
        # though the container died.
        before = testbed.multiplexer.submitted
        testbed.run_s(1.0)
        assert testbed.multiplexer.submitted > before


class TestRhc:
    def test_alarm_on_silence(self):
        engine = Engine()
        rhc = RemoteHealthChecker(engine, timeout_ns=2 * SECOND)
        rhc.start()
        engine.run_for(5 * SECOND)
        assert rhc.alarmed

    def test_no_alarm_with_heartbeats(self):
        engine = Engine()
        rhc = RemoteHealthChecker(engine, timeout_ns=2 * SECOND)
        rhc.start()

        def beat():
            rhc.heartbeat(engine.clock.now)
            engine.schedule(1 * SECOND, beat)

        engine.schedule(0, beat)
        engine.run_for(10 * SECOND)
        assert not rhc.alarmed

    def test_alarm_fires_once_per_outage(self):
        engine = Engine()
        rhc = RemoteHealthChecker(engine, timeout_ns=1 * SECOND)
        rhc.start()
        engine.run_for(10 * SECOND)
        assert len(rhc.alerts) == 1
        rhc.heartbeat(engine.clock.now)  # recovery
        engine.run_for(10 * SECOND)
        assert len(rhc.alerts) == 2

    def test_live_monitoring_feeds_rhc(self):
        tb = Testbed(TestbedConfig(with_rhc=True, rhc_timeout_s=3))
        tb.boot()
        tb.monitor([CountingAuditor()])
        tb.kernel.spawn_process(busy_program, "busy", uid=1000)
        tb.run_s(5.0)
        assert tb.rhc.heartbeats > 0
        assert not tb.rhc.alarmed

    def test_rhc_detects_dead_monitoring(self):
        """Detach the forwarder mid-run: the RHC notices the silence."""
        tb = Testbed(TestbedConfig(with_rhc=True, rhc_timeout_s=3))
        tb.boot()
        tb.monitor([CountingAuditor()])
        tb.kernel.spawn_process(busy_program, "busy", uid=1000)
        tb.run_s(3.0)
        assert not tb.rhc.alarmed
        tb.kvm.detach_forwarder()  # the monitoring pipeline "dies"
        tb.run_s(6.0)
        assert tb.rhc.alarmed
