"""Schedule perturbation tests (``repro.sim.perturb``).

Covers the engine's schedule-policy hook (prio tie-break, drop handles),
determinism of a seeded perturbation, the bounds each operator promises
(jitter never moves events earlier, drops respect the cap), and the
perturbed replay path through :class:`~repro.replay.source.ReplaySource`.
"""

import pytest

from repro.replay.recorder import record_scenario
from repro.replay.source import ReplaySource
from repro.sim.engine import Engine
from repro.sim.perturb import (
    PerturbationConfig,
    SchedulePerturbation,
    replay_perturbation,
)


def _firing_order(engine, events):
    order = []
    for name, t in events:
        engine.schedule_at(t, order.append, name, label=name)
    engine.drain()
    return order


class TestEngineHook:
    def test_no_policy_keeps_documented_ordering(self):
        engine = Engine()
        order = _firing_order(
            engine, [("a", 100), ("b", 100), ("c", 100), ("d", 50)]
        )
        assert order == ["d", "a", "b", "c"]

    def test_policy_prio_breaks_same_instant_ties(self):
        class Reverse:
            """Give later insertions smaller prio — reverses ties."""

            def __init__(self):
                self.next = 1000

            def on_schedule(self, when, label, now):
                self.next -= 1
                return when, self.next, False

        engine = Engine(schedule_policy=Reverse())
        order = _firing_order(
            engine, [("a", 100), ("b", 100), ("c", 100), ("d", 50)]
        )
        assert order == ["d", "c", "b", "a"]

    def test_dropped_event_returns_cancelled_handle(self):
        class DropAll:
            def on_schedule(self, when, label, now):
                return when, 0, True

        engine = Engine(schedule_policy=DropAll())
        fired = []
        handle = engine.schedule_at(100, fired.append, "x", label="victim")
        assert handle.cancelled
        engine.run_until(1_000)
        assert fired == []
        assert engine.events_dropped == 1

    def test_policy_cannot_schedule_into_past(self):
        class Rewind:
            def on_schedule(self, when, label, now):
                return now - 500, 0, False

        engine = Engine(schedule_policy=Rewind())
        engine.clock.advance_to(1_000)
        fired = []
        engine.schedule_at(2_000, fired.append, "x")
        engine.run_until(1_000)  # clamped to now, so due immediately
        assert fired == ["x"]


class TestSchedulePerturbation:
    def test_same_seed_same_interleaving(self):
        orders = []
        for _ in range(2):
            engine = Engine(
                schedule_policy=SchedulePerturbation(seed=7)
            )
            orders.append(
                _firing_order(
                    engine, [(f"e{i}", 100) for i in range(12)]
                )
            )
        assert orders[0] == orders[1]

    def test_different_seeds_differ(self):
        orders = []
        for seed in (1, 2):
            engine = Engine(
                schedule_policy=SchedulePerturbation(seed=seed)
            )
            orders.append(
                _firing_order(
                    engine, [(f"e{i}", 100) for i in range(12)]
                )
            )
        assert orders[0] != orders[1]

    def test_shuffle_only_reorders_ties(self):
        """Events at distinct instants keep their time ordering."""
        engine = Engine(schedule_policy=SchedulePerturbation(seed=3))
        order = _firing_order(
            engine, [("late", 200), ("early", 100), ("later", 300)]
        )
        assert order == ["early", "late", "later"]

    def test_jitter_never_moves_events_earlier(self):
        perturb = SchedulePerturbation(
            seed=5,
            config=PerturbationConfig(
                shuffle_labels=(),
                jitter_fraction=0.5,
                jitter_labels=("step-vcpu",),
            ),
        )
        engine = Engine(schedule_policy=perturb)
        fire_times = []
        for i in range(50):
            engine.schedule_at(
                1_000 * (i + 1),
                lambda: fire_times.append(engine.clock.now),
                label=f"step-vcpu{i % 2}",
            )
        engine.drain()
        for i, t in enumerate(fire_times):
            assert t >= 1_000  # nothing fired before the earliest slot
        assert perturb.stats.jittered > 0
        # jitter is bounded: at most delay * (1 + fraction)
        assert max(fire_times) <= 50_000 * 1.5

    def test_drop_cap_is_honoured(self):
        perturb = SchedulePerturbation(
            seed=9,
            config=PerturbationConfig(
                shuffle_labels=(),
                drop_probability=1.0,
                drop_labels=("replay-deliver",),
                max_drops=3,
            ),
        )
        engine = Engine(schedule_policy=perturb)
        fired = []
        for i in range(10):
            engine.schedule_at(
                100 + i, fired.append, i, label="replay-deliver"
            )
        engine.drain()
        assert perturb.stats.dropped == 3
        assert len(fired) == 7

    def test_label_scoping(self):
        """Only matching label prefixes are dropped."""
        perturb = SchedulePerturbation(
            seed=1,
            config=PerturbationConfig(
                shuffle_labels=(),
                drop_probability=1.0,
                drop_labels=("replay-deliver",),
                max_drops=100,
            ),
        )
        engine = Engine(schedule_policy=perturb)
        fired = []
        engine.schedule_at(10, fired.append, "check", label="goshd-check")
        engine.schedule_at(10, fired.append, "ev", label="replay-deliver")
        engine.drain()
        assert fired == ["check"]


class TestPerturbedReplay:
    @pytest.fixture(scope="class")
    def hang_trace(self):
        return record_scenario("hang", seed=0).trace

    def test_unperturbed_equivalence(self, hang_trace):
        """perturb=None and an all-bounds-zero perturbation agree."""
        from repro.auditors.goshd import GuestOSHangDetector

        base = ReplaySource(hang_trace, [GuestOSHangDetector()]).run()
        inert = SchedulePerturbation(
            seed=0, config=PerturbationConfig(shuffle_labels=())
        )
        perturbed = ReplaySource(
            hang_trace, [GuestOSHangDetector()], perturb=inert
        ).run()
        assert perturbed.verdicts == base.verdicts
        assert perturbed.events_replayed == base.events_replayed

    def test_perturbed_replay_is_deterministic(self, hang_trace):
        from repro.auditors.goshd import GuestOSHangDetector

        reports = []
        for _ in range(2):
            source = ReplaySource(
                hang_trace,
                [GuestOSHangDetector()],
                perturb=replay_perturbation(42),
            )
            reports.append(source.run())
        assert reports[0].verdicts == reports[1].verdicts
        assert reports[0].events_replayed == reports[1].events_replayed
        assert reports[0].events_dropped == reports[1].events_dropped

    def test_drops_are_counted(self, hang_trace):
        from repro.auditors.goshd import GuestOSHangDetector

        perturb = replay_perturbation(
            3, drop_probability=0.5, max_drops=10
        )
        report = ReplaySource(
            hang_trace, [GuestOSHangDetector()], perturb=perturb
        ).run()
        assert report.events_dropped == perturb.stats.dropped
        assert report.events_dropped > 0
        total = len(
            [r for r in hang_trace.records if r.get("kind", "event") == "event"]
        )
        assert report.events_replayed == total - report.events_dropped

    def test_live_perturbation_on_testbed(self):
        """A jittered live run still boots and steps without errors."""
        from repro.harness import Testbed, TestbedConfig

        perturb = SchedulePerturbation(
            seed=11, config=PerturbationConfig(jitter_fraction=0.2)
        )
        testbed = Testbed(TestbedConfig(perturb=perturb))
        testbed.boot()
        testbed.run_ms(50)
        assert testbed.config.perturb.stats.scheduled > 0
