"""Workload ``replay-btrace``: trace file -> verdicts, batch, one process.

Set-up records the four scenarios (baseline, hang, rootkit, exploit)
at the run's seed and saves each as btrace.  One operation opens one
file with ``load_any_trace``, builds the scenario's auditors and runs
``ReplaySource.run``; a pass replays every file once.  The run measures
whole passes for ``--seconds``, and for at least :data:`MIN_ROUNDS`
passes and :data:`MIN_OPS` operations, and checks each operation's
verdicts against the ``live_verdicts`` the recorder put in the header.
Each operation runs between two speed probes (:mod:`speed`);
throughput is one pass's events over the median corrected pass.
"""

from __future__ import annotations

import gc
from pathlib import Path
from typing import Dict, List, Tuple

import layers
import speed
from common import (
    MIN_OPS, MIN_ROUNDS, OUT_DIR, SETUP_REPEATS, Metrics, Outcome, Timings,
    peak_rss_mb, sha256_file, timed_setups,
)
from tracing import Tracer, layer_metrics, traced, write_spans

from repro.prof import perf_counter
from repro.replay import btrace
from repro.replay.recorder import SCENARIOS, record_scenario
from repro.replay.source import ReplaySource

SCENARIO_ORDER = ("baseline", "hang", "rootkit", "exploit")


def record_inputs(seed: int, out_dir: Path) -> List[Path]:
    """Record every scenario at ``seed`` and save it as btrace.

    The header's ``live_wall_seconds`` is a wall-clock reading, the one
    field that differs between two recordings of the same seed; it is
    dropped so the file bytes (and their sha256) pin the input.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in SCENARIO_ORDER:
        run = record_scenario(name, seed=seed)
        run.trace.header.meta.pop("live_wall_seconds", None)
        path = out_dir / f"{name}.btr"
        btrace.save_btrace(str(path), run.trace)
        paths.append(path)
    return paths


def replay_file(path: Path) -> Tuple[object, object, ReplaySource]:
    """One operation: file -> verdicts through the public entry points."""
    trace = btrace.load_any_trace(str(path))
    auditors = SCENARIOS[trace.header.scenario].build_auditors()
    source = ReplaySource(trace, auditors)
    report = source.run()
    return trace, report, source


def check(path: Path, trace, report) -> str:
    """Empty when the replay reproduced the recorded live verdicts."""
    expected = trace.header.meta.get("live_verdicts")
    if expected is None:
        return f"{path.name}: header has no live_verdicts"
    if report.verdicts != expected:
        return f"{path.name}: verdicts diverged from the recorded live run"
    if report.events_rejected or report.container_failed or report.scan_errors:
        return (f"{path.name}: {report.events_rejected} rejected, "
                f"container_failed={report.container_failed}, "
                f"scan_errors={report.scan_errors}")
    return ""


def steady_heap() -> None:
    """Collect set-up garbage and freeze what survives.

    Set-up leaves tens of thousands of long-lived objects (recorded
    traces, testbeds' caches) that a real ``repro.replay`` process
    never holds.  Without this, every full collection during the timed
    passes re-scans them, and when those collections land varies from
    process to process.  Freezing moves them out of the collector's
    generations; collection of the replay's own garbage still runs.
    """
    gc.collect()
    gc.freeze()


def _pass(paths: List[Path], outcome: Outcome, timings: Timings) -> int:
    """Replay every file once, each between two speed probes; the pass's
    round is the sum of its operations.  Returns the events replayed."""
    events = 0
    raw = corrected = 0.0
    for path in paths:
        (trace, report, _), wall, wall_corrected = speed.timed(
            lambda: replay_file(path))
        timings.ops.append((wall, wall_corrected))
        raw += wall
        corrected += wall_corrected
        problem = check(path, trace, report)
        outcome.record(not problem, problem)
        events += report.events_replayed
    timings.rounds.append((raw, corrected))
    return events


def run(seed: int, seconds: float, trace: bool) -> Tuple[Outcome, Metrics, List[str]]:
    # One CPU throughout: the speed probes speak for the CPU they ran on.
    with speed.one_cpu():
        return _run(seed, seconds, trace)


def _run(seed: int, seconds: float, trace: bool) -> Tuple[Outcome, Metrics, List[str]]:
    out_dir = OUT_DIR / "replay-inputs"  # overwritten by every run
    outcome = Outcome()

    def setup(_: int) -> Dict[str, str]:
        return {p.name: sha256_file(p) for p in record_inputs(seed, out_dir)}

    setup_s, digests = timed_setups(setup, repeats=1 if trace else SETUP_REPEATS)
    if any(d != digests[0] for d in digests):
        outcome.fail("set-ups recorded different inputs for one seed")
    paths = [out_dir / f"{name}.btr" for name in SCENARIO_ORDER]
    notes = [f"seed {seed}"] + [f"input {name} sha256 {digest}"
                                for name, digest in sorted(digests[0].items())]
    steady_heap()
    if trace:
        return outcome, _traced(paths, outcome, seed), notes

    timings = Timings()
    per_pass = set()
    deadline = perf_counter() + seconds
    while True:
        per_pass.add(_pass(paths, outcome, timings))
        if (perf_counter() >= deadline and len(timings.rounds) >= MIN_ROUNDS
                and len(timings.ops) >= MIN_OPS):
            break
    if len(per_pass) != 1:
        outcome.fail(f"passes over the same files replayed {sorted(per_pass)} events")
    events = max(per_pass)
    metrics: Metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        **timings.metrics(events, len(paths)),
    }
    notes.append(f"passes of {len(paths)} files, {events} events each")
    notes += timings.notes(events, len(paths))
    return outcome, metrics, notes


def _traced(paths: List[Path], outcome: Outcome, seed: int) -> Metrics:
    """One untraced pass, then the same pass traced."""
    _pass(paths, outcome, Timings())  # warm-up: imports, caches, allocator
    timings = Timings()
    _pass(paths, outcome, timings)
    untraced = timings.rounds[0][1]

    tracer = Tracer()
    reports = []

    def traced_pass() -> None:
        with tracer.root("replay-btrace"):
            for path in paths:
                tracer.current_op = tracer.op_id(path.name)
                trace, report, source = replay_file(path)
                problem = check(path, trace, report)
                outcome.record(not problem, problem)
                reports.append((report, source))

    with traced(tracer, layers.boundaries()):
        _, _, traced_wall = speed.timed(traced_pass)
    write_spans(tracer, OUT_DIR / f"spans-replay-btrace-s{seed}.bin",
                {"workload": "replay-btrace", "seed": seed})

    values: Dict[str, float] = {k: v for k, (v, _) in layer_metrics(tracer).items()}
    values.update(layers.counts_from_spans(tracer))
    values["decode.rejected"] = sum(r.events_rejected for r, _ in reports)
    values["replay.records"] = sum(
        r.events_replayed + r.events_rejected + r.scans_run for r, _ in reports)
    values["container.dropped"] = sum(s.container.dropped for _, s in reports)
    values["trace.overhead_pct"] = 100.0 * (traced_wall - untraced) / untraced
    return layers.assemble(values)
