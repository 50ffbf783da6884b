"""Multi-VM fan-out: per-VM streams, per-container health channels.

Two layers under test.  The EventMultiplexer must keep each VM's
stream private — consumers and ring buffers are keyed by vm_id, and
one VM's traffic must never reach another's consumers.  Above it, the
channel-aware RHC must flag the one VM whose auditing container has
gone silent (quarantined after an auditor crash) while the host-wide
pipeline — kept busy by the other VM — stays green, which the global
heartbeat alone cannot express.
"""

from __future__ import annotations

from repro.core.auditor import Auditor
from repro.core.events import EventType
from repro.harness import SharedHost, TestbedConfig
from repro.hw.exits import ExitReason, VMExit
from repro.hypervisor.event_multiplexer import EventMultiplexer
from repro.hypervisor.rhc import RemoteHealthChecker
from repro.sim.clock import SECOND
from repro.sim.engine import Engine


def exit_at(t_ns, reason=ExitReason.EPT_VIOLATION, vcpu=0):
    return VMExit(reason=reason, vcpu_index=vcpu, time_ns=t_ns)


ALL_TSS = frozenset({ExitReason.EPT_VIOLATION})


class Counter(Auditor):
    name = "counter"
    subscriptions = {EventType.THREAD_SWITCH}

    def audit(self, event):
        pass


class Crasher(Auditor):
    name = "crasher"
    subscriptions = {EventType.THREAD_SWITCH}

    def audit(self, event):
        raise RuntimeError("bug")


def busy(ctx):
    while True:
        yield ctx.compute(300_000)
        yield ctx.sys_write(1, 8)



class TestReasonIndex:
    """The per-(vm, reason) consumer index must be invisible except for
    speed: order, counters and interest counts behave exactly as the
    linear interest scan did."""

    def test_same_reason_consumers_fire_in_registration_order(self):
        em = EventMultiplexer()
        order = []
        em.register_consumer("vm0", ALL_TSS, lambda v, e: order.append("first"))
        em.register_consumer(
            "vm0",
            frozenset({ExitReason.EPT_VIOLATION, ExitReason.VMCALL}),
            lambda v, e: order.append("second"),
        )
        em.register_consumer("vm0", ALL_TSS, lambda v, e: order.append("third"))
        em.submit("vm0", None, exit_at(1))
        assert order == ["first", "second", "third"]

    def test_delivered_counts_every_matching_consumer(self):
        em = EventMultiplexer()
        em.register_consumer("vm0", ALL_TSS, lambda v, e: None)
        em.register_consumer("vm0", ALL_TSS, lambda v, e: None)
        em.register_consumer(
            "vm0", frozenset({ExitReason.VMCALL}), lambda v, e: None
        )
        em.submit("vm0", None, exit_at(1))
        assert em.submitted == 1
        assert em.delivered == 2

    def test_interest_count_matches_index(self):
        em = EventMultiplexer()
        em.register_consumer("vm0", ALL_TSS, lambda v, e: None)
        em.register_consumer(
            "vm0",
            frozenset({ExitReason.EPT_VIOLATION, ExitReason.VMCALL}),
            lambda v, e: None,
        )
        assert em.interest_count("vm0", ExitReason.EPT_VIOLATION) == 2
        assert em.interest_count("vm0", ExitReason.VMCALL) == 1
        assert em.interest_count("vm0", ExitReason.IO_INSTRUCTION) == 0

# ======================================================================
# EventMultiplexer: no cross-VM leakage
# ======================================================================
class TestMultiplexerIsolation:
    def test_consumers_only_see_their_vm(self):
        em = EventMultiplexer()
        seen = {"vm0": [], "vm1": []}
        em.register_consumer("vm0", ALL_TSS, lambda v, e: seen["vm0"].append(e))
        em.register_consumer("vm1", ALL_TSS, lambda v, e: seen["vm1"].append(e))
        for i in range(5):
            em.submit("vm0", None, exit_at(i))
        em.submit("vm1", None, exit_at(99))
        assert len(seen["vm0"]) == 5
        assert len(seen["vm1"]) == 1
        assert all(e.time_ns < 99 for e in seen["vm0"])

    def test_uninterested_reasons_are_not_delivered(self):
        em = EventMultiplexer()
        hits = []
        em.register_consumer("vm0", ALL_TSS, lambda v, e: hits.append(e))
        em.submit("vm0", None, exit_at(1, reason=ExitReason.IO_INSTRUCTION))
        assert hits == []
        assert em.submitted == 1 and em.delivered == 0

    def test_full_stack_streams_do_not_cross(self):
        host = SharedHost(
            num_vms=2, base_config=TestbedConfig(seed=31)
        )
        counters = [Counter(), Counter()]
        host.monitor(0, [counters[0]])
        host.monitor(1, [counters[1]])
        # Load only vm0; vm1 idles (its idle loop still switches, so
        # compare magnitudes rather than demanding zero).
        host.vms[0].kernel.spawn_process(busy, "b", uid=1000)
        host.run_s(2.0)
        vm0_events = sum(counters[0].events_seen.values())
        vm1_events = sum(counters[1].events_seen.values())
        assert vm0_events > vm1_events


# ======================================================================
# Channel-aware RHC: one stalled container, the other VM stays live
# ======================================================================
class TestChannelAwareRhc:
    def test_stalled_channel_flagged_while_pipeline_green(self):
        engine = Engine()
        rhc = RemoteHealthChecker(engine, timeout_ns=3 * SECOND)
        rhc.watch("vm0")
        rhc.watch("vm1")
        rhc.start()

        def beat_vm0_only():
            rhc.heartbeat(engine.clock.now, channel="vm0")
            engine.schedule(SECOND // 2, beat_vm0_only)

        beat_vm0_only()
        engine.run_for(10 * SECOND)
        assert rhc.stalled_channels == {"vm1"}
        assert not rhc.alarmed  # the pipeline as a whole is alive
        assert [c for _, c in rhc.channel_alerts] == ["vm1"]

    def test_resumed_heartbeat_clears_the_channel(self):
        engine = Engine()
        rhc = RemoteHealthChecker(engine, timeout_ns=2 * SECOND)
        rhc.watch("vm0")
        rhc.start()
        engine.run_for(5 * SECOND)
        assert rhc.stalled_channels == {"vm0"}
        rhc.heartbeat(engine.clock.now, channel="vm0")
        assert rhc.stalled_channels == set()

    def test_quarantined_container_goes_silent_other_vm_stays_live(self):
        host = SharedHost(
            num_vms=2,
            base_config=TestbedConfig(seed=3, rhc_timeout_s=3),
            with_rhc=True,
        )
        host.monitor(0, [Counter()])
        host.monitor(1, [Crasher()])
        for vm in host.vms:
            vm.kernel.spawn_process(busy, "b", uid=1000)
        host.run_s(8.0)
        # vm1's container crashed on its first delivery and went
        # silent; vm0's container kept beating its channel.
        assert host.vms[1].hypertap.container.failed
        assert not host.vms[0].hypertap.container.failed
        assert host.rhc.stalled_channels == {"vm1"}
        # The host-wide pipeline never alarmed: vm0 kept it busy.
        assert not host.rhc.alarmed
        assert sum(host.vms[0].hypertap.container.delivered for _ in (0,)) > 0
