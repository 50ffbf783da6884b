"""Tests for the discrete-event engine and clock."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import MILLISECOND, VirtualClock
from repro.sim.engine import Engine


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance_to(500)
        assert clock.now == 500

    def test_cannot_move_backwards(self):
        clock = VirtualClock(1000)
        with pytest.raises(SimulationError):
            clock.advance_to(999)

    def test_cannot_start_negative(self):
        with pytest.raises(SimulationError):
            VirtualClock(-1)


class TestEngine:
    def test_schedule_and_run(self):
        engine = Engine()
        fired = []
        engine.schedule(100, fired.append, 1)
        engine.schedule(50, fired.append, 2)
        engine.run_until(200)
        assert fired == [2, 1]
        assert engine.clock.now == 200

    def test_same_time_fifo_order(self):
        engine = Engine()
        fired = []
        for i in range(10):
            engine.schedule(100, fired.append, i)
        engine.run_until(100)
        assert fired == list(range(10))

    def test_cancel(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(10, fired.append, "x")
        handle.cancel()
        engine.run_until(100)
        assert fired == []

    def test_cannot_schedule_in_past(self):
        engine = Engine()
        engine.clock.advance_to(100)
        with pytest.raises(SimulationError):
            engine.schedule_at(50, lambda: None)

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-1, lambda: None)

    def test_run_until_lands_on_horizon(self):
        engine = Engine()
        engine.schedule(30, lambda: None)
        engine.run_until(1000)
        assert engine.clock.now == 1000

    def test_events_scheduled_during_run(self):
        engine = Engine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                engine.schedule(10, chain, n + 1)

        engine.schedule(0, chain, 0)
        engine.run_until(100)
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_run_for_is_relative(self):
        engine = Engine()
        engine.run_for(5 * MILLISECOND)
        engine.run_for(5 * MILLISECOND)
        assert engine.clock.now == 10 * MILLISECOND

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_max_events_bound(self):
        engine = Engine()

        def rearm():
            engine.schedule(1, rearm)

        engine.schedule(0, rearm)
        fired = engine.run_until(10**9, max_events=100)
        assert fired == 100

    def test_capped_run_keeps_due_events_in_order(self):
        # A run stopped by max_events halts like stop(): the clock stays
        # at the last fired event, so the next run fires the rest.
        engine = Engine()
        fired = []
        for t in (10, 20, 30):
            engine.schedule_at(t, fired.append, t)
        assert engine.run_until(100, max_events=1) == 1
        assert engine.clock.now == 10
        assert engine.run_until(200) == 2
        assert fired == [10, 20, 30]
        assert engine.clock.now == 200

    def test_stop_during_run(self):
        engine = Engine()
        fired = []
        engine.schedule(10, fired.append, 1)
        engine.schedule(20, lambda: engine.stop())
        engine.schedule(30, fired.append, 2)
        engine.run_until(100)
        assert fired == [1]

    def test_drain(self):
        engine = Engine()
        fired = []
        for i in range(5):
            engine.schedule(i * 10, fired.append, i)
        assert engine.drain() == 5
        assert fired == [0, 1, 2, 3, 4]

    def test_pending_counts_uncancelled(self):
        engine = Engine()
        handle = engine.schedule(10, lambda: None)
        engine.schedule(20, lambda: None)
        handle.cancel()
        assert engine.pending == 1


class TestStopContract:
    """stop() requests are consumed exactly once (see Engine.stop)."""

    def test_stop_between_tilings_aborts_next_run(self):
        engine = Engine()
        fired = []
        engine.schedule(10, fired.append, 1)
        engine.schedule(30, fired.append, 2)
        assert engine.run_until(20) == 1
        engine.stop()
        # The pending request is consumed by the next tiling: nothing
        # fires and the clock does not advance to the horizon.
        assert engine.run_until(40) == 0
        assert fired == [1]
        assert engine.clock.now == 20
        # Consumed means consumed: the tiling after that runs normally.
        assert engine.run_until(40) == 1
        assert fired == [1, 2]
        assert engine.clock.now == 40

    def test_stop_does_not_leak_into_run_for(self):
        engine = Engine()
        fired = []
        engine.schedule(5, fired.append, "a")
        engine.stop()
        assert engine.run_for(10) == 0
        assert engine.run_for(10) == 1
        assert fired == ["a"]


class TestCancellationCompaction:
    """pending is O(1) and mass-cancellation cannot bloat the heap."""

    def test_pending_tracks_schedule_fire_cancel(self):
        engine = Engine()
        handles = [engine.schedule(10 * (i + 1), lambda: None) for i in range(4)]
        assert engine.pending == 4
        handles[3].cancel()
        assert engine.pending == 3
        engine.run_until(20)
        assert engine.pending == 1

    def test_double_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule(10, lambda: None)
        engine.schedule(20, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.pending == 1

    def test_mass_cancel_compacts_heap(self):
        engine = Engine()
        handles = [engine.schedule(10 + i, lambda: None) for i in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        assert engine.pending == 50
        # Compaction is lazy (it triggers on a cancelled majority), so
        # some tombstones may remain — but never again a majority, and
        # never the 150 a naive heap would carry to their pop times.
        # Heap entries are (when, prio, seq, event).
        tombstones = sum(1 for entry in engine._queue if entry[3].cancelled)
        assert len(engine._queue) < 200
        assert tombstones * 2 <= len(engine._queue)

    def test_compaction_preserves_firing_order(self):
        engine = Engine()
        fired = []
        handles = []
        for i in range(300):
            handles.append(engine.schedule(10 + (i % 7) * 5, fired.append, i))
        for i, handle in enumerate(handles):
            if i % 3 != 0:
                handle.cancel()
        engine.run_until(1_000)
        expected = sorted(
            (i for i in range(300) if i % 3 == 0),
            key=lambda i: (10 + (i % 7) * 5, i),
        )
        assert fired == expected

    def test_compaction_is_in_place(self):
        # ReplaySource.run hoists engine._queue into a local alias; the
        # compacted heap must stay the *same list object*.
        engine = Engine()
        alias = engine._queue
        handles = [engine.schedule(10 + i, lambda: None) for i in range(128)]
        for handle in handles[:100]:
            handle.cancel()
        assert engine._queue is alias
        assert len(alias) < 128
