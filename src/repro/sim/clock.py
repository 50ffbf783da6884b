"""Integer-nanosecond virtual clock.

All simulated time in this project is expressed in integer nanoseconds.
Floats are never used for time: integer arithmetic keeps long campaigns
deterministic and free of accumulation error.
"""

from __future__ import annotations

from repro.errors import SimulationError

#: Convenience unit constants (nanoseconds).
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000


class VirtualClock:
    """Monotonic simulated clock.

    Only the simulation :class:`~repro.sim.engine.Engine` is expected to
    advance the clock; everything else reads ``now``.
    """

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise SimulationError("clock cannot start before t=0")
        self._now_ns = int(start_ns)

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now_ns

    def advance_to(self, t_ns: int) -> None:
        """Move the clock forward to ``t_ns``.

        Raises :class:`SimulationError` on any attempt to move backwards,
        which would indicate a broken event queue.
        """
        if t_ns < self._now_ns:
            raise SimulationError(
                f"clock moved backwards: {self._now_ns} -> {t_ns}"
            )
        self._now_ns = int(t_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now_ns}ns)"
