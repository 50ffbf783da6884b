"""Shared plumbing for the end-to-end benchmark: statistics, memory,
input pinning and the result line.

Everything here is pure or reads only process-level facts (rusage,
file bytes), so the unit tests in ``perfbench/tests`` can exercise it
without running a workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import speed

#: Where runs leave spans, service logs and sockets (ignored by git).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Minimum samples beyond a reported percentile (choosing-metrics rule).
MIN_BEYOND = 10

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

Metrics = Dict[str, Tuple[float, str]]


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the value at rank ``ceil(q * n)``.

    ``values`` may hold ``math.inf`` for failed operations, which then
    count as over any limit.  Nearest rank (rather than interpolation)
    keeps the figure a measured sample.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q`` nearest-rank point."""
    return n - max(1, math.ceil(q * n))


def min_samples_for(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest ``n`` whose ``q`` percentile has ``min_beyond`` beyond."""
    n = 1
    while samples_beyond(n, q) < min_beyond:
        n += 1
    return n


#: Operations a run measures at least, so p90 has ten samples beyond it.
MIN_OPS = min_samples_for(0.9)

#: Rounds (identical units of work: a pass, a cycle) a run measures at
#: least, so the median round is one of many.
MIN_ROUNDS = 10


class Timings:
    """A run's rounds and operations, each timed raw and corrected to
    the reference speed (:mod:`speed`)."""

    def __init__(self) -> None:
        self.rounds: List[Tuple[float, float]] = []
        self.ops: List[Tuple[float, float]] = []

    def metrics(self, events: int, ops: int) -> Metrics:
        """Gated figures: every round did ``events`` events in ``ops``
        operations; throughput is one round's work over the median
        corrected round, latency the corrected operations' p90."""
        wall = statistics.median(c for _, c in self.rounds)
        return {
            "events_per_s": (events / wall, "1/s"),
            "ops_per_s": (ops / wall, "1/s"),
            "latency_ms_p90": (1000 * percentile([c for _, c in self.ops], 0.9), "ms"),
        }

    def notes(self, events: int, ops: int) -> List[str]:
        """The ungated figures: p50 (on replay and campaign it falls
        between two operation kinds, so any noise flips it) and the raw
        ones, which move with the host's other tenants."""
        raw_wall = statistics.median(r for r, _ in self.rounds)
        raw = [r for r, _ in self.ops]
        corrected = [c for _, c in self.ops]
        return [
            f"{len(self.rounds)} rounds, {len(self.ops)} operations; "
            f"corrected latency_ms_p50 {1000 * percentile(corrected, 0.5):.3f} ms",
            f"raw wall (not gated): events_per_s {events / raw_wall:.1f} 1/s, "
            f"ops_per_s {ops / raw_wall:.3f} 1/s, "
            f"latency_ms_p50 {1000 * percentile(raw, 0.5):.3f} ms, "
            f"latency_ms_p90 {1000 * percentile(raw, 0.9):.3f} ms",
        ]


# ----------------------------------------------------------------------
# Set-up timing
# ----------------------------------------------------------------------

def timed_setups(
    setup: Callable[[int], object], repeats: Optional[int] = None
) -> Tuple[float, List[object]]:
    """Run ``setup(i)`` ``repeats`` times (default :data:`SETUP_REPEATS`);
    return (median corrected seconds, results)."""
    walls: List[float] = []
    results: List[object] = []
    for i in range(SETUP_REPEATS if repeats is None else repeats):
        result, _, corrected = speed.timed(lambda: setup(i))
        results.append(result)
        walls.append(corrected)
    return statistics.median(walls), results


# ----------------------------------------------------------------------
# Process facts
# ----------------------------------------------------------------------
def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size in MiB (Linux reports ``ru_maxrss`` in KiB).

    With ``include_children`` the larger of this process and its
    largest waited-for child counts, so a service child's peak shows.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_json(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
class Outcome:
    """Operation accounting for one run: every miss is named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem or "operation failed")

    def fail(self, problem: str) -> None:
        """A miss outside any single operation (e.g. a service traceback)."""
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0


def emit(outcome: Outcome, metrics: Metrics, notes: Iterable[str] = ()) -> None:
    """Print the human-readable lines, then the one-line JSON result."""
    for note in notes:
        print(f"# {note}")
    for problem in outcome.problems[:20]:
        print(f"! {problem}")
    attempted = max(1, outcome.attempted)
    print(f"ops_failed_frac {outcome.failed / attempted:.6f} "
          f"({outcome.failed}/{outcome.attempted})")
    # A failed operation's latency is infinite ("over any limit"); JSON
    # has no infinity, so it is written as the largest finite double.
    finite = {
        name: (value if math.isfinite(value) else 1.7976931348623157e308, unit)
        for name, (value, unit) in metrics.items()
    }
    for name in sorted(finite):
        value, unit = finite[name]
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(finite.items())
        },
    }, sort_keys=True))
