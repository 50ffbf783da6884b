"""Host-speed correction: time on a contended core, read at reference speed.

The host this benchmark was tuned on shares its cores with other
tenants.  Their load changes how fast *this* process executes — not by
taking the CPU away (process CPU time tracks wall time and steal stays
near 0) but by slowing every instruction, up to 1.5x, in spells from
milliseconds to minutes, and differently on each CPU.  Two busy
processes of ours slow each other ~1.4x the same way.  Over ten runs
of one workload, run medians of wall time spread 14-46% (IQR/median),
and the runs' fastest deciles still 8-28%: a spell can outlast a
whole run.

So every timed interval is paired with :func:`probe` — fixed
pure-Python work the program under test never runs — on the same CPU,
immediately before and after it, and reported as::

    corrected = wall * PROBE_REF_S / mean(probe before, probe after)

that is, in seconds of a core running the probe at its reference speed.
Contention slows the probe and the program alike, so it cancels; a
change to the program moves ``wall`` and not the probe.  Over eight
processes of the replay workload this held the median pass to 0.011
IQR/median where raw wall time spread 0.40.  Raw figures are printed
too, ungated.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, Tuple, TypeVar

from repro.prof import perf_counter

T = TypeVar("T")

#: The probe's wall time on an uncontended core of the reference host
#: (an Intel Xeon vCPU): the fastest of 3000 probes, whose median was
#: 7.3 ms.  A constant, so a corrected time keeps seconds as its unit.
PROBE_REF_S = 3.96e-3


class _Point:
    def __init__(self, a: int, b: str) -> None:
        self.a = a
        self.b = b

    def get(self) -> int:
        return self.a


def _arithmetic() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def _objects() -> int:
    out = []
    index = {}
    for i in range(1500):
        point = _Point(i, "x%d" % (i & 63))
        index[point.b] = {"a": point.get(), "b": [point.b, i]}
        out.append(point)
    return len(out) + len(index)


def _strings() -> int:
    n = 0
    for i in range(3000):
        n += len(("k=%d;v=%s" % (i, "abc")).split(";")[0])
    return n


def probe() -> float:
    """Run the fixed probe once; its wall time in seconds.

    Three kinds of interpreter work — integer arithmetic, object and
    dict churn, string formatting and splitting — because contention
    slows each by a different factor, and the program mixes all three.
    On the replay workload, each alone left 2.5-10% run-to-run spread
    after correction, the three together 1%.
    """
    t0 = perf_counter()
    _arithmetic()
    _objects()
    _strings()
    return perf_counter() - t0


@contextmanager
def one_cpu() -> Iterator[int]:
    """Run the block, and every process it starts, on one CPU.

    Contention differs between CPUs and changes every ~100 ms, so a
    probe speaks for work only on the CPU that work ran on.
    """
    own = os.sched_getaffinity(0)
    cpu = min(own)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, own)


def correct(wall: float, probes: Sequence[float]) -> float:
    """``wall`` at reference speed, given probes taken beside it."""
    return wall * PROBE_REF_S * len(probes) / sum(probes)


def timed(fn: Callable[[], T]) -> Tuple[T, float, float]:
    """Run ``fn`` between two probes: (result, raw wall, corrected wall)."""
    before = probe()
    t0 = perf_counter()
    result = fn()
    wall = perf_counter() - t0
    return result, wall, correct(wall, (before, probe()))
