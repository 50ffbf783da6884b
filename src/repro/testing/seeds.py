"""Deterministic base traces for the conformance harness.

The trace fuzz target mutates *from* somewhere: each recordable
scenario (:data:`repro.replay.recorder.SCENARIOS`) provides one seeded
base trace.

:func:`known_miss_trace` is the harness's own regression anchor: a
deliberately constructed HRKD miss (Heckler-style timing evasion of
the 10 s sighting window) that the ``shrink`` acceptance test and the
nightly job both rely on being found and reduced.
"""

from __future__ import annotations

import copy
from typing import Optional, Tuple

from repro.core.derive import PF_KTHREAD
from repro.errors import TraceFormatError
from repro.replay.format import KIND_SCAN, Trace
from repro.replay.recorder import record_scenario
from repro.sim.clock import SECOND
from repro.testing.oracle import Discrepancy


def base_trace(scenario: str, seed: int = 0) -> Trace:
    """Record one scenario's trace deterministically."""
    return record_scenario(scenario, seed=seed).trace


# ======================================================================
# The seeded known-miss
# ======================================================================
#: How far past the scan marker the evasion gap pushes the scan; must
#: exceed HRKD's 10 s sighting window by a comfortable margin.
KNOWN_MISS_GAP_NS = 12 * SECOND


def known_miss_trace(seed: int = 0) -> Tuple[Trace, Discrepancy]:
    """A trace HRKD is known to miss, plus the finding it should yield.

    Construction: record the rootkit scenario, then delay the scan
    marker (and everything after it) by 12 s — the adversary stalls
    the cross-validation until every sighting of the hidden pid has
    aged out of HRKD's freshness window.  The pid did execute and is
    absent from the untrusted view, so the oracle still expects it;
    HRKD's pid-level detection goes silent (its count-based path may
    still fire, but names no pid).  Returns ``(trace, finding)``.
    """
    run = record_scenario("rootkit", seed=seed)
    trace = Trace(
        header=copy.deepcopy(run.trace.header),
        records=copy.deepcopy(run.trace.records),
    )
    split: Optional[int] = None
    hidden_pid: Optional[int] = None
    for i, record in enumerate(trace.records):
        if isinstance(record, dict) and record.get("kind") == KIND_SCAN:
            split = i
            untrusted = set(record.get("untrusted_pids") or ())
            # The hidden pid: annotated sightings absent from the view.
            for prior in trace.records[:i]:
                if not isinstance(prior, dict):
                    continue
                task = prior.get("task")
                if isinstance(task, dict):
                    pid = task.get("pid")
                    flags = task.get("flags", 0)
                    kthread = isinstance(flags, int) and bool(
                        flags & PF_KTHREAD
                    )
                    if (
                        isinstance(pid, int)
                        and pid != 0
                        and not kthread
                        and pid not in untrusted
                    ):
                        hidden_pid = pid
                        break
            break
    if split is None or hidden_pid is None:
        raise TraceFormatError(
            "rootkit scenario produced no scan marker / hidden sighting"
        )
    for record in trace.records[split:]:
        if isinstance(record, dict) and isinstance(record.get("t"), int):
            record["t"] += KNOWN_MISS_GAP_NS
    if trace.header.end_ns is not None:
        trace.header.end_ns += KNOWN_MISS_GAP_NS
    trace.header.meta["known_miss"] = {
        "mechanism": "scan delayed past the HRKD sighting window",
        "gap_ns": KNOWN_MISS_GAP_NS,
        "hidden_pid": hidden_pid,
    }
    return trace, Discrepancy("miss", "hrkd", {"pid": hidden_pid})
