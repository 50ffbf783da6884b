"""/proc side channel: measuring Ninja's monitoring interval (Table III).

An unprivileged in-guest process polls ``/proc/<ninja_pid>/stat``.  The
state field flips S (sleeping between checks) -> R (scanning); the
durations of the S phases *are* Ninja's interval.  With the interval
and phase known, a transient attack can be timed to start right after
a check and finish before the next one.

This channel does not exist against H-Ninja (the scanner has no /proc
entry in the target VM) — the paper's Table III text makes the same
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.guest.kernel import GuestKernel
from repro.guest.programs import GuestContext
from repro.guest.task import Task
from repro.sim.clock import MICROSECOND, SECOND


@dataclass
class IntervalEstimate:
    """Statistics over the measured sleep intervals (one Table III row)."""

    samples: List[float]

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def minimum(self) -> float:
        return min(self.samples)

    @property
    def maximum(self) -> float:
        return max(self.samples)

    @property
    def stdev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        var = sum((s - mu) ** 2 for s in self.samples) / (len(self.samples) - 1)
        return math.sqrt(var)


class ProcSideChannel:
    """In-guest observer of another process's scheduling state."""

    def __init__(
        self,
        kernel: GuestKernel,
        target_pid: int,
        poll_period_ns: int = 200 * MICROSECOND,
    ) -> None:
        self.kernel = kernel
        self.target_pid = target_pid
        self.poll_period_ns = poll_period_ns
        #: (time_ns, state_char) observations.
        self.observations: List[Tuple[int, str]] = []
        self.task: Optional[Task] = None

    # ------------------------------------------------------------------
    def launch(self, uid: int = 1000) -> Task:
        self.task = self.kernel.spawn_process(
            self._program, "sidechan", uid=uid, exe="/home/user/watch"
        )
        return self.task

    def _program(self, ctx: GuestContext):
        while True:
            stat = yield ctx.sys_proc_stat(self.target_pid)
            if stat is not None:
                self.observations.append(
                    (self.kernel.machine.clock.now, stat["state"])
                )
            yield ctx.sys_nanosleep(self.poll_period_ns)

    def stop(self) -> None:
        if self.task is not None:
            self.kernel.force_exit(self.task)
            self.task = None

    # ------------------------------------------------------------------
    def sleep_intervals_s(self) -> List[float]:
        """Durations of observed S-phases, in seconds.

        Each S-phase (between two scans) is bounded by the last R
        observation before it and the first R observation after it;
        we measure between S-phase starts and ends as the attacker
        would: transition timestamps at poll resolution.
        """
        intervals: List[float] = []
        phase_start: Optional[int] = None
        prev_state: Optional[str] = None
        for t, state in self.observations:
            if state == "S" and prev_state is not None and prev_state != "S":
                # Only count phases whose *start* we witnessed; a phase
                # already in progress at the first poll would be
                # truncated and bias the estimate low.
                phase_start = t
            elif state != "S" and prev_state == "S" and phase_start is not None:
                intervals.append((t - phase_start) / SECOND)
                phase_start = None
            prev_state = state
        return intervals

    def estimate(self, max_samples: int = 30) -> Optional[IntervalEstimate]:
        """Estimate over the observed sleep phases.

        If the scan (R phase) is shorter than the polling period, two
        sleep phases occasionally merge into one observation that is a
        multiple of the true interval; an attacker discards those
        obvious outliers, and so do we: samples beyond 1.5x the
        minimum are dropped.
        """
        intervals = self.sleep_intervals_s()
        if not intervals:
            return None
        floor = min(intervals)
        cleaned = [v for v in intervals if v <= 1.5 * floor]
        return IntervalEstimate(samples=cleaned[:max_samples])
