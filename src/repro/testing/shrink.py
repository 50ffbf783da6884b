"""ddmin reduction: from a failing trace or program to a minimal repro.

Zeller's delta debugging over a witness's items — a trace's records or
a hut program's ops: repeatedly try removing chunks and keep any
removal under which the interesting property (the same finding, by
key) still reproduces.  Trace timestamps are preserved — a finding that
depends on a silence gap or on sighting staleness survives removal of
unrelated records but not a renumbering — and the header is kept
verbatim apart from a recount.

:class:`FindingPredicate` is the one replay-and-check predicate for
both entry kinds; :func:`shrink_entry` wraps it around :func:`ddmin`.
Each test replays a candidate, so reduction cost is bounded by
``max_tests`` replays; with the auditor pipeline at ~100k events/s a
few hundred tests over a shrinking trace finish in seconds.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional

from repro.replay.format import Trace
from repro.replay.source import ReplaySource
from repro.sim.perturb import perturbation_from_params


def materialize_schedule(
    trace: Trace, perturb_params: Dict[str, Any]
) -> Trace:
    """Bake an adversarial delivery schedule into the trace itself.

    A perturbed replay delivers records in engine order — delayed,
    shuffled, with some dropped.  Re-running the scheduling pass and
    sorting the surviving records by their actual ``(when, prio, seq)``
    yields an ordinary trace whose *file order* is that delivery order
    (unperturbed replay never rewinds its clock, so an old-timestamp
    record placed late still arrives late).  Timestamps are preserved.
    Findings that survive materialization shrink as plain traces — no
    perturbation seed to keep consistent while records are removed.
    """
    source = ReplaySource(
        trace,
        [],
        perturb=perturbation_from_params(perturb_params),
        collect_delivery=True,
    )
    source.run()
    ordered = sorted(source.delivery_log, key=lambda e: e[:3])
    materialized = subtrace(
        trace, [copy.deepcopy(e[3]) for e in ordered]
    )
    materialized.header.meta["materialized_from"] = dict(perturb_params)
    return materialized


def subtrace(trace: Trace, records: List[Dict[str, Any]]) -> Trace:
    """``trace``'s header (deep-copied, recounted) around ``records``."""
    sub = Trace(header=copy.deepcopy(trace.header), records=records)
    sub.recount()
    return sub


def _pass_candidates(
    items: List[Any], chunk_len: int, resume: int
) -> List[tuple]:
    """The ``(start, candidate)`` removals one serial pass would try.

    Empty candidates are filtered here exactly as the serial loop skips
    them (without charging a test against the budget).
    """
    out = []
    start = resume
    while start < len(items):
        candidate = items[:start] + items[start + chunk_len:]
        if candidate:
            out.append((start, candidate))
        start += chunk_len
    return out


def ddmin(
    items: List[Any],
    predicate: Callable[[List[Any]], bool],
    max_tests: int = 2000,
    jobs: Optional[int] = None,
) -> List[Any]:
    """Zeller delta debugging over an arbitrary item sequence.

    Minimizes ``items`` while ``predicate(candidate)`` keeps holding;
    the predicate is pluggable, so the same reducer shrinks replay
    traces and hut op programs (via :func:`shrink_entry`) — any
    divergence that can be phrased as a boolean over a sub-sequence.

    ``predicate`` must hold on ``items`` itself (``ValueError``
    otherwise — shrinking a non-repro silently would hide harness
    bugs).  The result is 1-minimal with respect to the chunks the
    budget allowed: no tested single-chunk removal keeps the predicate.

    ``jobs > 1`` evaluates each pass's candidates speculatively through
    :func:`repro.parallel.parallel_map` (``predicate`` must then be a
    picklable module-level callable or partial) but *commits* strictly
    in serial order: the first passing candidate wins, later
    speculative results are discarded, and only candidates the serial
    algorithm would have reached count against ``max_tests`` — so the
    reduction and its test count are byte-identical at any job count.
    """
    if not predicate(list(items)):
        raise ValueError("predicate does not hold on the unshrunk input")
    if jobs is None or jobs <= 1:
        return _ddmin_serial(items, predicate, max_tests)

    from repro.parallel import parallel_map

    result = list(items)
    tests = 0
    n = 2
    while len(result) >= 2 and tests < max_tests:
        chunk_len = max(1, (len(result) + n - 1) // n)
        removed_any = False
        resume = 0
        while tests < max_tests:
            batch = _pass_candidates(result, chunk_len, resume)
            if not batch:
                break
            batch = batch[: max_tests - tests]
            verdicts = parallel_map(
                predicate, [cand for _, cand in batch], jobs=jobs
            )
            hit = next(
                (i for i, ok in enumerate(verdicts) if ok), None
            )
            if hit is None:
                tests += len(batch)
                break
            # The serial loop would have tested candidates 0..hit and
            # stopped at the first success; everything after `hit` was
            # computed against stale state and is discarded unpaid.
            tests += hit + 1
            resume, result = batch[hit]
            removed_any = True
        if removed_any:
            n = max(n - 1, 2)
        else:
            if chunk_len == 1:
                break
            n = min(n * 2, len(result))
    return result


def _ddmin_serial(
    items: List[Any],
    predicate: Callable[[List[Any]], bool],
    max_tests: int,
) -> List[Any]:
    result = list(items)
    tests = 0
    n = 2
    while len(result) >= 2 and tests < max_tests:
        chunk_len = max(1, (len(result) + n - 1) // n)
        removed_any = False
        start = 0
        while start < len(result) and tests < max_tests:
            candidate = result[:start] + result[start + chunk_len:]
            if not candidate:
                start += chunk_len
                continue
            tests += 1
            if predicate(candidate):
                result = candidate
                removed_any = True
                # Stay at this granularity; the window now points at
                # the records that slid into the removed chunk's place.
            else:
                start += chunk_len
        if removed_any:
            n = max(n - 1, 2)
        else:
            if chunk_len == 1:
                break
            n = min(n * 2, len(result))
    return result


class FindingPredicate:
    """Picklable "does this item subset still exhibit finding ``key``?".

    ``kind`` is the entry's target class
    (:func:`repro.testing.corpus.kind_of`): each subset of records or
    ops is rebuilt around ``subject``'s header and replayed with
    ``params`` — the schedule perturbation, or the seeded bug and
    interleave seed.  A module-level class, so :func:`ddmin` can ship it
    to worker processes when shrinking with ``jobs > 1``.
    """

    def __init__(self, kind, subject, key: str, params) -> None:
        self.kind = kind
        self.template = kind.rebuild(subject, [])
        self.key = key
        self.params = params

    def __call__(self, items: List[Any]) -> bool:
        try:
            found = self.kind.check(
                self.kind.rebuild(self.template, items), self.params
            )
        except Exception:  # noqa: BLE001 - a crashing candidate is not a repro
            return False
        return any(d.key() == self.key for d in found)


def shrink_entry(
    kind,
    subject,
    key: str,
    params,
    max_tests: Optional[int] = None,
    jobs: Optional[int] = None,
):
    """ddmin a trace or program down to a 1-minimal repro of ``key``.

    ``max_tests`` defaults to the kind's ``SHRINK_TESTS``.  Raises
    ``ValueError`` when the finding does not reproduce on ``subject``.
    """
    reduced = ddmin(
        list(kind.items(subject)),
        FindingPredicate(kind, subject, key, params),
        max_tests=max_tests or kind.SHRINK_TESTS,
        jobs=jobs,
    )
    return kind.rebuild(subject, reduced)
