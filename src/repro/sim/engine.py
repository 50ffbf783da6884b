"""Heap-based discrete-event engine with stable ordering.

The engine owns the :class:`~repro.sim.clock.VirtualClock` and a priority
queue of callbacks.  Two events scheduled for the same instant fire in
the order they were scheduled (a monotonically increasing sequence number
breaks ties), which makes multi-vCPU interleavings reproducible.

An optional *schedule policy* (see :mod:`repro.sim.perturb`) may adjust
every scheduling decision — bounded same-instant reordering via a tie
priority, bounded time jitter, or dropping the event outright.  The
default policy is ``None``: ordering is exactly the documented
(when, seq) contract, unchanged.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation.

    The heap holds ``(when, prio, seq, event)`` entries, so ``heapq``
    orders them in C; the handle itself is never compared.  ``prio`` is
    a tie-break priority between ``when`` and ``seq``: it is 0 for every
    normally scheduled event (so insertion order decides), and only a
    schedule policy ever sets it — which is how bounded same-instant
    reordering is injected without touching callers.
    """

    __slots__ = (
        "when", "seq", "callback", "args", "cancelled", "label", "prio",
        "_engine",
    )

    def __init__(
        self,
        when: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        label: str,
        prio: int = 0,
    ) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label
        self.prio = prio
        #: Owning engine while the event sits in the heap; cleared on
        #: pop so late cancels cannot corrupt the live counters.
        self._engine: Optional["Engine"] = None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"ScheduledEvent({self.label!r} @ {self.when}ns, {state})"


class Engine:
    """Deterministic discrete-event loop."""

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        schedule_policy: Optional[Any] = None,
    ) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        #: Heap of ``(when, prio, seq, event)`` entries.
        self._queue: List[Tuple[int, int, int, ScheduledEvent]] = []
        self._seq = 0
        self._stop_requested = False
        #: Live count of non-cancelled queued events (O(1) ``pending``).
        self._pending = 0
        #: Cancelled events still occupying heap slots; when they are
        #: the majority the heap is compacted instead of carrying them
        #: to their pop time (unbounded retention otherwise).
        self._cancelled_in_heap = 0
        #: Optional hook with ``on_schedule(when, label, now)`` returning
        #: ``(when, prio, drop)``; seeded implementations live in
        #: :mod:`repro.sim.perturb`.
        self.schedule_policy = schedule_policy
        self.events_dropped = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        t_ns: int,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute time ``t_ns``."""
        now = self.clock.now
        if t_ns < now:
            raise SimulationError(
                f"cannot schedule event in the past "
                f"({t_ns} < now {now})"
            )
        return self.schedule(int(t_ns) - now, callback, *args, label=label)

    def schedule(
        self,
        delay_ns: int,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` after a relative delay.

        This is the one push into the heap (``schedule_at`` comes here
        too); the guest executor calls it once per step, so it does the
        push itself rather than through a helper.
        """
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        now = self.clock.now
        when = now + int(delay_ns)
        prio = 0
        drop = False
        policy = self.schedule_policy
        if policy is not None:
            when, prio, drop = policy.on_schedule(when, label, now)
            when = max(int(when), now)
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(when, seq, callback, args, label, prio)
        if drop:
            event.cancelled = True
            self.events_dropped += 1
            return event
        event._engine = self
        self._pending += 1
        heapq.heappush(self._queue, (when, prio, seq, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queued, non-cancelled events (O(1) live counter)."""
        return self._pending

    def due_by(self, t_ns: int) -> bool:
        """Whether the earliest queued event falls due at or before
        ``t_ns`` (a cancelled one counts: ``run_until`` skips it)."""
        queue = self._queue
        return bool(queue) and queue[0][0] <= t_ns

    def stop(self) -> None:
        """Request that the event loop stop before firing another event.

        The request is *consumed* by the next (or current) run —
        ``run_until``, ``run_for`` or ``step``: a stop issued mid-run
        halts that run after the current callback; a stop issued between
        runs makes the next run return immediately, firing nothing and
        leaving the clock untouched.  Subsequent runs proceed normally.
        """
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Cancelled-event accounting (see ScheduledEvent.cancel)
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._pending -= 1
        self._cancelled_in_heap += 1
        # Lazy compaction: only when cancelled events dominate the heap
        # does the O(n) rebuild pay for itself.  (when, prio, seq)
        # ordering is untouched — heapify over the surviving entries
        # reproduces exactly the order popping would have yielded.
        if (
            self._cancelled_in_heap * 2 > len(self._queue)
            and len(self._queue) >= 64
        ):
            # In-place (callers may hold an alias to the heap list).
            self._queue[:] = [e for e in self._queue if not e[3].cancelled]
            heapq.heapify(self._queue)
            self._cancelled_in_heap = 0

    def step(self) -> bool:
        """Fire the single next event, whatever its time.

        Returns ``False`` when the queue is exhausted (or a pending
        :meth:`stop` was consumed instead).
        """
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
            self._cancelled_in_heap -= 1
        return bool(queue) and self.run_until(queue[0][0], max_events=1) == 1

    def run_until(self, t_ns: int, max_events: Optional[int] = None) -> int:
        """Run events up to and including time ``t_ns``.

        Returns the number of events fired.  ``max_events`` is a safety
        valve against runaway loops in experiment harnesses.

        Stop/horizon contract: when no :meth:`stop` intervenes and the
        run is not capped, the clock always lands exactly on ``t_ns`` so
        repeated calls tile time without gaps.  A pending stop request
        (whether issued during this run or before it) halts the loop
        without advancing to the horizon, and is consumed — it never
        leaks into the next tiling.  A run capped by ``max_events`` with
        due events still queued halts the same way: the clock stays at
        the last fired event, so the next run fires the rest in order.
        """
        queue = self._queue
        clock = self.clock
        advance = clock.advance_to
        pop = heapq.heappop
        budget = -1 if max_events is None else max_events
        fired = 0
        while queue and not self._stop_requested:
            when, _, _, event = queue[0]
            if event.cancelled:
                pop(queue)
                self._cancelled_in_heap -= 1
                continue
            if when > t_ns:
                break
            if fired == budget:
                return fired
            pop(queue)
            event._engine = None
            self._pending -= 1
            advance(when)
            fired += 1
            event.callback(*event.args)
        if self._stop_requested:
            self._stop_requested = False
        elif clock.now < t_ns:
            advance(t_ns)
        return fired

    def run_for(self, duration_ns: int, max_events: Optional[int] = None) -> int:
        """Run for a relative duration from the current time."""
        return self.run_until(self.clock.now + duration_ns, max_events)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until the queue is empty (bounded by ``max_events``)."""
        fired = 0
        while fired < max_events and self.step():
            fired += 1
        return fired
