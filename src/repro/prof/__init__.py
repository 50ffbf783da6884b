"""repro.prof — the single sanctioned wall-clock module.

Everything in this repo that reads a host clock goes through here.
The determinism rule (``repro.analysis.rules.determinism``) confines
wall-clock imports (``time``, ``datetime``) to this module, so a grep
for ``repro.prof`` enumerates every site where wall time can leak in —
and the module's own API makes the two legitimate uses explicit:

* **throughput/latency measurement** — :func:`perf_counter`,
  :func:`process_time`, the probe-corrected :func:`best_of`, and the
  nestable :func:`profile_scope` timers below.  These never feed a
  verdict or a deterministic export; they produce the wall-side
  columns of the bench ledger and the ``--profile`` breakdowns.
* **provenance stamps** — :func:`wall_unix_time`, used exactly once
  (the ledger's ``written_at_unix``) to say *when* an artifact was
  produced, never *what* it contains.

Profiling is opt-in and free when off: :func:`profile_scope` is a
no-op unless a :class:`Profiler` is installed, so instrumented code
(``repro.bench`` stages, replay/serve drivers) pays one ``None`` check
per scope on ordinary runs.  Scopes nest into ``;``-joined paths, the
collapsed-stack format every flamegraph renderer reads.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

__all__ = [
    "perf_counter",
    "process_time",
    "best_of",
    "wall_unix_time",
    "Profiler",
    "profile_scope",
]

#: Monotonic wall clock for interval measurement (throughput, walls).
perf_counter = time.perf_counter

#: CPU time for the parallel executor's per-chunk cost accounting.
process_time = time.process_time


T = TypeVar("T")

#: The probe's wall time on an uncontended core of the reference host
#: (an Intel Xeon vCPU): the fastest of 3000 probes.  A constant, so a
#: corrected time keeps seconds as its unit.
PROBE_REF_S = 3.96e-3


class _Point:
    def __init__(self, a: int, b: str) -> None:
        self.a = a
        self.b = b

    def get(self) -> int:
        return self.a


def _probe() -> float:
    """Run fixed pure-Python work once; its wall time in seconds.

    Integer arithmetic, object and dict churn, string formatting and
    splitting: host contention slows each by a different factor, and
    measured code mixes all three.
    """
    t0 = perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    index = {}
    for i in range(1500):
        point = _Point(i, "x%d" % (i & 63))
        index[point.b] = {"a": point.get(), "b": [point.b, i]}
    for i in range(3000):
        s += len(("k=%d;v=%s" % (i, "abc")).split(";")[0])
    return perf_counter() - t0


def best_of(fn: Callable[[], T], rounds: int = 1) -> Tuple[T, float, float]:
    """Run ``fn`` ``rounds`` times, each between probes.

    Returns ``(last result, best raw wall, best corrected wall)``.  On a
    shared host other tenants slow every instruction, in spells from
    milliseconds to minutes; the probes beside each round slow with it,
    so ``wall * PROBE_REF_S / mean(probe before, probe after)`` reads
    the round at reference speed.  Each side takes the quickest of three
    probes: one probe is short enough to land in a hiccup the round as a
    whole does not see.  The best round is the one least hit by
    whatever contention the probes did not cancel.
    """
    raw = corrected = float("inf")
    for _ in range(max(1, rounds)):
        before = min(_probe() for _ in range(3))
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
        after = min(_probe() for _ in range(3))
        raw = min(raw, wall)
        corrected = min(corrected, wall * 2 * PROBE_REF_S / (before + after))
    return result, raw, corrected


def wall_unix_time() -> float:
    """Epoch seconds for provenance stamps (ledger ``written_at_unix``).

    The stamp records when an artifact was written; it never feeds a
    verdict or any deterministic column, which is why the call below is
    sanctioned here and nowhere else.
    """
    # hypertap: allow(determinism) — provenance timestamp, never feeds a verdict
    return time.time()


class Profiler:
    """Accumulates wall time per nested scope path.

    Use as a context manager (installs itself as the active profiler
    for the duration) or via explicit :meth:`install`/:meth:`uninstall`.
    ``stats`` maps a ``;``-joined scope path to ``(total_s, count)``;
    a path's total includes its children, so :meth:`flamegraph_lines`
    subtracts child totals to emit self-time in the collapsed-stack
    format (``a;b;c <microseconds>``).
    """

    def __init__(self) -> None:
        self.stats: Dict[str, Tuple[float, int]] = {}
        self._stack: List[str] = []
        self._previous: Optional["Profiler"] = None

    # -- bookkeeping ----------------------------------------------------
    def add(self, path: str, elapsed_s: float) -> None:
        total, count = self.stats.get(path, (0.0, 0))
        self.stats[path] = (total + elapsed_s, count + 1)

    # -- lifecycle ------------------------------------------------------
    def install(self) -> "Profiler":
        global _active
        self._previous = _active
        _active = self
        return self

    def uninstall(self) -> None:
        global _active
        if _active is self:
            _active = self._previous
        self._previous = None

    def __enter__(self) -> "Profiler":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- reporting ------------------------------------------------------
    def report_lines(self) -> List[str]:
        """Per-stage wall breakdown, widest total first."""
        if not self.stats:
            return ["(no profile samples)"]
        lines = [f"{'wall_s':>10}  {'calls':>7}  {'avg_ms':>9}  scope"]
        ordered = sorted(
            self.stats.items(), key=lambda item: (-item[1][0], item[0])
        )
        for path, (total, count) in ordered:
            avg_ms = (total / count) * 1e3 if count else 0.0
            lines.append(f"{total:>10.4f}  {count:>7d}  {avg_ms:>9.3f}  {path}")
        return lines

    def flamegraph_lines(self) -> List[str]:
        """Collapsed-stack text (``a;b;c <value>``), value = self-µs.

        Child totals are subtracted from each path so a renderer that
        sums frames (every flamegraph tool) sees each microsecond once.
        """
        child_totals: Dict[str, float] = {}
        for path, (total, _count) in self.stats.items():
            sep = path.rfind(";")
            if sep > 0:
                parent = path[:sep]
                child_totals[parent] = child_totals.get(parent, 0.0) + total
        lines = []
        for path in sorted(self.stats):
            total, _count = self.stats[path]
            self_us = int(round((total - child_totals.get(path, 0.0)) * 1e6))
            if self_us > 0:
                lines.append(f"{path} {self_us}")
        return lines


#: The installed profiler, if any; ``profile_scope`` is free when None.
_active: Optional[Profiler] = None


@contextmanager
def profile_scope(name: str) -> Iterator[None]:
    """Time a named scope when a profiler is installed; no-op otherwise.

    Scopes nest: entering ``b`` inside ``a`` accumulates under
    ``"a;b"``, which is what the flamegraph emitter expects.
    """
    prof = _active
    if prof is None:
        yield
        return
    prof._stack.append(name)
    path = ";".join(prof._stack)
    start = perf_counter()
    try:
        yield
    finally:
        elapsed = perf_counter() - start
        prof._stack.pop()
        prof.add(path, elapsed)
