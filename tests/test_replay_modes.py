"""Property tests: the three replay modes agree on hostile traces.

``ReplaySource`` replays a record sequence three ways — batch
(:meth:`~repro.replay.source.ReplaySource.run`), streamed one record at
a time (``stream_begin`` / ``stream_feed`` / ``stream_end``, the
``repro.serve`` entry point) and perturbed (every delivery scheduled
through the engine queue, the fuzzer's entry point).  Hypothesis
inserts every kind of malformed record, plus valid scan markers, into
a recorded trace and checks the contract between them:

* batch and stream produce byte-identical pipeline-scope exports,
  verdicts and report counts;
* perturbed replay under the all-zero policy equals batch replay of
  the same records stably sorted by ``max(t, start_ns)`` — perturbed
  delivery runs in timestamp order, batch delivery in file order;
* every mode accounts each rejection once, with a pinned reason:
  ``report.events_rejected == sum(flow.rejected{vm})``.
"""

from __future__ import annotations

import copy
from collections import Counter
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import REJECT_REASONS, MetricsRegistry
from repro.obs.report import export_lines
from repro.replay.format import Trace
from repro.replay.trace_io import load_trace
from repro.replay.recorder import SCENARIOS
from repro.replay.source import HORIZON_SLACK_NS, ReplaySource
from repro.sim.perturb import PerturbationConfig, SchedulePerturbation

GOLDEN = Path(__file__).parent / "data" / "golden_exploit.jsonl"

#: Each kind of inserted record and the reason replay rejects it for;
#: a valid scan marker (``None``) rides along so scans are delivered too.
INSERTS = {
    "not-a-record": "not-a-record",
    "unknown-kind": "unknown-kind",
    "undecodable": "decode",
    "beyond-horizon": "decode",
    "scan-bad-fields": "bad-scan",
    "scan-unknown-auditor": "bad-scan",
    "scan": None,
}


@lru_cache(maxsize=1)
def _base() -> Trace:
    return load_trace(str(GOLDEN))


def _auditors():
    # The baseline set (GOSHD, HRKD, HT-Ninja): periodic timers,
    # cross-view scans and per-event checks all take part.
    return SCENARIOS["baseline"].build_auditors()


def _insert(kind: str, event: dict, variant: int, header) -> object:
    t = event["t"]
    if kind == "not-a-record":
        return [None, 7, "event", [dict(event)]][variant % 4]
    if kind == "unknown-kind":
        return {**event, "kind": ["header", "footer", "bogus"][variant % 3]}
    if kind == "undecodable":
        return [
            {**event, "type": "NO_SUCH_TYPE"},
            {**event, "t": "soon"},
            {key: v for key, v in event.items() if key != "type"},
        ][variant % 3]
    if kind == "beyond-horizon":
        return {**event, "t": header.end_ns + HORIZON_SLACK_NS + 1 + variant}
    scan = {
        "kind": "scan", "t": t, "auditor": "hrkd", "view": "guest-ps",
        "untrusted_pids": [1, 2, variant], "untrusted_count": None,
    }
    if kind == "scan-bad-fields":
        return [
            {key: v for key, v in scan.items() if key != "untrusted_pids"},
            {**scan, "t": "later"},
            {**scan, "untrusted_pids": ["x"]},
        ][variant % 3]
    if kind == "scan-unknown-auditor":
        return {**scan, "auditor": "no-such-auditor"}
    return scan


@st.composite
def hostile_traces(draw):
    """A recorded trace with records inserted, and the rejections they
    must cause as ``{reason: count}``."""
    base = _base()
    records = list(base.records)
    events = [r for r in records if r.get("kind", "event") == "event"]
    inserts = draw(st.lists(
        st.tuples(
            st.integers(0, len(records)),
            st.sampled_from(sorted(INSERTS)),
            st.integers(0, len(events) - 1),
            st.integers(0, 11),
        ),
        min_size=1, max_size=14,
    ))
    rejections = Counter()
    for pos, kind, which, variant in inserts:
        records.insert(pos, _insert(kind, events[which], variant, base.header))
        if INSERTS[kind] is not None:
            rejections[INSERTS[kind]] += 1
    trace = Trace(header=copy.deepcopy(base.header), records=records)
    return trace, dict(rejections)


def _replay(trace: Trace, mode: str):
    registry = MetricsRegistry()
    perturb = None
    if mode == "perturbed":
        perturb = SchedulePerturbation(
            seed=0, config=PerturbationConfig(shuffle_labels=())
        )
    source = ReplaySource(trace, _auditors(), perturb=perturb, metrics=registry)
    if mode == "stream":
        source.stream_begin()
        for record in trace.records:
            source.stream_feed(record)
        report = source.stream_end()
    else:
        report = source.run()
    return report, registry


def _outcome(report, registry):
    return {
        "export": export_lines(registry.snapshot(), "pipeline"),
        "verdicts": report.verdicts,
        "counts": (
            report.events_replayed, report.events_rejected, report.scans_run,
            report.scan_errors, report.events_dropped, report.sim_span_ns,
            report.container_failed,
        ),
    }


def _sorted_by_delivery_time(trace: Trace) -> Trace:
    start = trace.header.start_ns

    def key(record):
        t = record.get("t") if isinstance(record, dict) else None
        return max(t, start) if type(t) is int else start

    return Trace(header=trace.header, records=sorted(trace.records, key=key))


def _rejections(trace: Trace, registry) -> dict:
    vm = trace.header.vm_id
    return {
        labels["reason"]: value
        for _name, labels, value in registry.rows("flow.rejected")
        if labels["vm"] == vm
    }


@settings(max_examples=25, deadline=None)
@given(hostile_traces())
def test_batch_and_stream_agree(case):
    trace, _ = case
    batch = _replay(trace, "batch")
    stream = _replay(trace, "stream")
    assert _outcome(*stream) == _outcome(*batch)


@settings(max_examples=25, deadline=None)
@given(hostile_traces())
def test_zero_perturbation_is_batch_in_timestamp_order(case):
    trace, _ = case
    perturbed = _replay(trace, "perturbed")
    batch = _replay(_sorted_by_delivery_time(trace), "batch")
    assert _outcome(*perturbed) == _outcome(*batch)


@settings(max_examples=25, deadline=None)
@given(hostile_traces())
def test_every_mode_accounts_each_rejection(case):
    trace, expected = case
    for mode in ("batch", "stream", "perturbed"):
        report, registry = _replay(trace, mode)
        rejections = _rejections(trace, registry)
        assert rejections == expected, mode
        assert report.events_rejected == sum(rejections.values()), mode
        assert set(rejections) <= REJECT_REASONS
