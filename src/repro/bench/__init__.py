"""Performance ledger for the reproduction pipeline.

``python -m repro.bench`` runs the benchmark suite at a fixed scale and
appends one ``BENCH_<n>.json`` entry to the ledger directory
(``benchmarks/ledger`` by default).  Each entry records:

* replay throughput (events/sec): the btrace decode hot path
  (:mod:`repro.replay.btrace`) as the headline column, with the
  gzip-JSONL interchange pipeline tracked alongside,
* fault-campaign throughput (trials/sec, serial and parallel, plus the
  measured speedup at the requested job count),
* wall time per experiment figure (the :mod:`repro.experiments` grid),
* service SLOs (:mod:`repro.serve`): sustained events/sec ingested and
  p99 exit-to-verdict latency under a seeded burst,
* hut differential throughput (:mod:`repro.testing.hut` fuzz
  executions/sec through the real-stack + reference-model pair),
* causal-tracing overhead (``trace_overhead_pct``: relative events/s
  loss replaying with spans on vs off, ceiling-gated at 5%).

Entries are numbered, never overwritten, and comparable: ``--check``
diffs the fresh measurements against the most recent existing entry and
fails on any metric that regressed beyond a configurable threshold
(20% by default).  Throughputs regress downward, wall times regress
upward; the comparison knows which direction is bad for each metric.
``--check`` additionally enforces the absolute floors in ``_FLOORS``
(btrace decode ≥ 1M events/s, fan-out speedup ≥ 1.8x at two workers)
and the ceilings in ``_CEILINGS`` (tracing overhead ≤ 5%) whenever the
run's scale/jobs knobs make the bound meaningful — even on a baseline
run with an empty ledger.

Every measured workload is deterministic (seeded grids through
:mod:`repro.parallel`), so run-to-run metric noise is purely
machine-load jitter — the threshold exists to absorb exactly that.
Every wall-clock read goes through :mod:`repro.prof`, the one module
the determinism rule lets touch the host clock: ``perf_counter`` for
the throughput columns, ``wall_unix_time`` for the single provenance
timestamp per entry, and ``profile_scope`` so ``--profile`` can render
a per-stage breakdown of the suite itself.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.prof import perf_counter, profile_scope, wall_unix_time

#: Ledger entries: BENCH_0001.json, BENCH_0002.json, ...
LEDGER_FILE_RE = re.compile(r"^BENCH_(\d{4,})\.json$")

DEFAULT_LEDGER_DIR = os.path.join("benchmarks", "ledger")

#: Fractional change beyond which ``--check`` fails (0.20 = 20%).
DEFAULT_THRESHOLD = 0.20

SCHEMA_VERSION = 1

#: Figures timed by the standard run; ``--quick`` keeps only the first.
#: fig4/fig5 are covered by the dedicated campaign measurement, so the
#: figure list sticks to the cheaper single-VM experiment grids.
STANDARD_FIGURES: Tuple[str, ...] = ("table3", "ninjas", "fig7")


# ======================================================================
# Measurements
# ======================================================================
#: The btrace decode corpus: one recorded scenario tiled (with shifted
#: timestamps) to roughly this many records at ``scale=1.0``.  Tiling a
#: real trace keeps the event-type mix honest — a synthetic corpus of
#: one cheap type would flatter the decoder.
BTRACE_CORPUS_RECORDS = 200_000
BTRACE_CORPUS_SCENARIO = "rootkit"


def _btrace_corpus(scale: float, path: str) -> Dict[str, Any]:
    """Record ``BTRACE_CORPUS_SCENARIO`` once, tile it to
    ``scale * BTRACE_CORPUS_RECORDS`` records, write it to ``path`` as
    btrace, and report corpus provenance."""
    from repro.replay.btrace import BinaryTraceWriter
    from repro.replay.recorder import record_scenario

    run = record_scenario(BTRACE_CORPUS_SCENARIO, seed=0)
    base = run.trace.records
    target = max(len(base), int(round(BTRACE_CORPUS_RECORDS * scale)))
    tiles = max(1, -(-target // len(base)))
    span = max(r["t"] for r in base) + 1
    writer = BinaryTraceWriter(path, run.trace.header)
    for tile in range(tiles):
        shift = tile * span
        for record in base:
            copy = dict(record)
            copy["t"] = record["t"] + shift
            writer.write_record(copy)
    writer.close()
    return {
        "scenario": BTRACE_CORPUS_SCENARIO,
        "records": writer.records_written,
        "tiles": tiles,
        "bytes": os.path.getsize(path),
        "strings": writer.strings_interned,
        "escapes": writer.escapes,
    }


def _time_btrace_decode(path: str, rounds: int) -> Tuple[int, float]:
    """Best-of-``rounds`` full decode of the btrace corpus at ``path``,
    touching ``time_ns`` on every event (a field the hot replay loop
    cannot avoid reading), gc paused inside the timed region.

    Returns ``(events_decoded, best_wall_seconds)``.
    """
    import gc

    from repro.replay.btrace import BinaryTraceReader

    best = float("inf")
    events = 0
    for _ in range(max(1, rounds)):
        reader = BinaryTraceReader(path)
        try:
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                n = 0
                last_t = 0
                t0 = perf_counter()
                for event in reader.events():
                    last_t = event.time_ns
                    n += 1
                wall = perf_counter() - t0
            finally:
                if gc_was_enabled:
                    gc.enable()
        finally:
            reader.close()
        assert last_t >= 0  # keep the per-event read observable
        events = n
        best = min(best, wall)
    return events, best


def measure_replay(
    rounds: int = 3,
    scenarios: Optional[List[str]] = None,
    scale: float = 1.0,
) -> Dict[str, Any]:
    """Replay throughput, measured on both trace formats.

    The ledger column (``events_per_s`` here, ``replay_events_per_s``
    in the entry) is the **btrace decode rate**: records/sec through
    :class:`repro.replay.btrace.BinaryTraceReader` over a ~200k-record
    tiled corpus, best of ``rounds``, touching ``time_ns`` per event.
    This is the hot path replay, fuzz and shard workers actually sit
    on, so it is what the ≥1M floor gates.

    The gzip-JSONL *pipeline* rate (full :class:`ReplaySource` run with
    live auditors per scenario) stays in the detail block: it is the
    interchange-format number earlier ledger entries reported, and the
    regression satellite tracks it separately.
    """
    import shutil
    import tempfile

    from repro.replay.recorder import SCENARIOS, record_scenario
    from repro.replay.source import ReplaySource

    # --- btrace decode hot path (the gated column) --------------------
    tmp_dir = tempfile.mkdtemp(prefix="repro-bench-btrace-")
    try:
        corpus_path = os.path.join(tmp_dir, "corpus.btr")
        corpus = _btrace_corpus(scale, corpus_path)
        decoded, best_decode_wall = _time_btrace_decode(corpus_path, rounds)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    decode_rate = decoded / best_decode_wall if best_decode_wall > 0 else 0.0

    # --- gzip-JSONL pipeline (interchange format, detail only) --------
    names = sorted(SCENARIOS) if scenarios is None else list(scenarios)
    total_events = 0
    total_best_wall = 0.0
    per_scenario: Dict[str, Any] = {}
    for name in names:
        run = record_scenario(name, seed=0)
        walls = []
        reproduced = True
        for _ in range(max(1, rounds)):
            report = ReplaySource(
                run.trace, SCENARIOS[name].build_auditors()
            ).run()
            walls.append(report.wall_seconds)
            reproduced = reproduced and report.matches_live(run.live_verdicts)
        best = min(walls)
        total_events += report.events_replayed
        total_best_wall += best
        per_scenario[name] = {
            "events": report.events_replayed,
            "best_wall_s": best,
            "events_per_s": report.events_replayed / best if best > 0 else 0.0,
            "reproduced": reproduced,
        }
    pipeline_rate = (
        total_events / total_best_wall if total_best_wall > 0 else 0.0
    )
    return {
        "events_per_s": decode_rate,
        "total_events": decoded,
        "rounds": rounds,
        "btrace": dict(
            corpus, best_wall_s=best_decode_wall, events_per_s=decode_rate
        ),
        "pipeline": {
            "events_per_s": pipeline_rate,
            "total_events": total_events,
            "scenarios": per_scenario,
        },
    }


def _campaign_grid(scale: float):
    """A small stratified slice of the §VIII-A grid, scaled."""
    from repro.faults.campaign import TrialConfig, iter_trial_grid
    from repro.faults.injector import InjectionMode
    from repro.faults.sites import build_site_catalog
    from repro.sim.clock import SECOND

    n_sites = max(1, int(round(2 * scale)))
    first_pass = [s for s in build_site_catalog() if s.activation_pass == 1]
    sites = first_pass[:: max(1, len(first_pass) // n_sites)][:n_sites]
    return iter_trial_grid(
        sites,
        workloads=("hanoi", "http"),
        modes=(InjectionMode.TRANSIENT,),
        preempt_options=(False, True),
        seeds=(0,),
        base_config=TrialConfig(
            warmup_ns=1 * SECOND,
            detect_window_ns=6 * SECOND,
            classify_window_ns=8 * SECOND,
        ),
    )


def _lpt_makespan(costs: List[float], bins: int) -> float:
    """Longest-processing-time-first schedule of ``costs`` onto ``bins``
    workers; returns the loaded-worker finish time (the makespan)."""
    loads = [0.0] * max(1, int(bins))
    for cost in sorted(costs, reverse=True):
        loads[loads.index(min(loads))] += cost
    return max(loads)


def measure_campaign(
    scale: float = 1.0, jobs: int = 1, rounds: int = 2
) -> Dict[str, Any]:
    """Time a fixed fault-injection grid serially and fanned out at
    ``jobs`` workers, verify the runs produced identical results, and
    report trials/sec both ways plus the fan-out speedup.

    ``speedup`` is the **critical-path** speedup: serial wall divided
    by (LPT makespan of per-chunk worker CPU seconds over ``jobs``
    workers) + (measured parallel wall − total worker CPU, i.e. every
    real dispatch/pickle/merge cost, floored at zero).  On a machine
    with ``jobs`` free cores this equals the plain wall ratio; on a
    core-starved CI box the wall ratio measures the OS scheduler's
    timesharing, not the executor, while the critical path still moves
    whenever chunking, dispatch overhead, or merge cost regress —
    which is exactly what the ledger floor needs to gate.

    Both sides take the best of ``rounds`` (min serial wall; min
    modeled critical-path wall), the same jitter discipline as the
    replay column: transient machine load can only slow a round down,
    so the minimum is the least-contaminated estimate of each.
    """
    from repro.faults.campaign import _trial_task
    from repro.parallel import parallel_map, warm_pool

    grid = _campaign_grid(scale)
    rounds = max(1, rounds)
    serial_wall = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        serial = parallel_map(_trial_task, grid, jobs=1)
        serial_wall = min(serial_wall, perf_counter() - t0)

    parallel_wall = serial_wall
    modeled_wall = serial_wall
    overhead = 0.0
    identical = True
    best_stats: Dict[str, Any] = {}
    est_cpu: List[float] = []
    if jobs > 1:
        # Fork the workers and push one untimed round through them
        # first: the ledger gates steady-state dispatch + merge, not
        # process creation or each worker's first-trial warm-up (cold
        # allocator arenas and copy-on-write page faults inflate the
        # first chunk's CPU by ~10%).
        warm_pool(jobs)
        parallel_map(_trial_task, grid, jobs=jobs)
        overhead = float("inf")
        round_cpu: List[List[float]] = []
        for _ in range(rounds):
            stats: Dict[str, Any] = {}
            t0 = perf_counter()
            fanned = parallel_map(_trial_task, grid, jobs=jobs, stats=stats)
            wall = perf_counter() - t0
            identical = identical and fanned == serial
            chunk_cpu = stats.get("chunk_cpu_s", [])
            round_overhead = max(0.0, wall - sum(chunk_cpu))
            if round_overhead < overhead:
                overhead = round_overhead
                parallel_wall = wall
                best_stats = stats
            round_cpu.append(chunk_cpu)
        # Chunking is deterministic, so chunk *i* runs the same trials
        # every round: its CPU cost is a property of the work, and the
        # per-chunk minimum across rounds is the least-contaminated
        # estimate of it (transient load can only inflate CPU seconds
        # via frequency scaling).  Fall back to whole-round figures if
        # a worker death made some round's chunk list shorter.
        lengths = {len(cpu) for cpu in round_cpu}
        if len(lengths) == 1:
            est_cpu = [min(col) for col in zip(*round_cpu)]
        else:
            est_cpu = list(best_stats.get("chunk_cpu_s", []))
        modeled_wall = _lpt_makespan(est_cpu, jobs) + overhead

    trials = len(grid)
    return {
        "trials": trials,
        "jobs": jobs,
        "rounds": rounds,
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "critical_path_wall_s": modeled_wall,
        "fanout_overhead_s": overhead,
        "chunks": best_stats.get("chunks", 0),
        "chunk_cpu_s": est_cpu,
        "trials_per_s_serial": trials / serial_wall if serial_wall > 0 else 0.0,
        "trials_per_s_parallel": (
            trials / modeled_wall if modeled_wall > 0 else 0.0
        ),
        "speedup": serial_wall / modeled_wall if modeled_wall > 0 else 0.0,
        "parallel_identical": identical,
    }


#: Scenarios whose observability columns enter the ledger.  Exploit and
#: hang exercise the two latency regimes: an in-delivery verdict
#: (HT-Ninja blocks on the triggering event) vs. a timer-driven one
#: (GOSHD alarms seconds after the last event it saw).
OBS_SCENARIOS: Tuple[str, ...] = ("exploit", "hang")


def measure_obs(
    scenarios: Tuple[str, ...] = OBS_SCENARIOS,
) -> Dict[str, Any]:
    """Virtual-clock observability columns (``repro.obs``).

    Unlike every other measurement here these are **deterministic**:
    exit rate per *simulated* second and mean exit-to-verdict latency
    are pure functions of ``(scenario, seed)``, so ``--check`` compares
    them exactly — any drift means pipeline behaviour changed, not that
    the machine was busy.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.replay.recorder import record_scenario
    from repro.sim.clock import SECOND

    exit_rates: Dict[str, float] = {}
    verdict_means: Dict[str, float] = {}
    per_scenario: Dict[str, Any] = {}
    for name in scenarios:
        run = record_scenario(name, seed=0)
        registry = MetricsRegistry.from_snapshot(run.metrics)
        exits = registry.total("exits")
        end_ns = run.trace.header.end_ns or 0
        sim_seconds = end_ns / SECOND
        latency_count = 0
        latency_sum = 0
        for row_name, _labels, hist in registry.histogram_rows():
            if row_name == "latency.exit_to_verdict_ns":
                latency_count += hist.count
                latency_sum += hist.sum
        exit_rates[name] = exits / sim_seconds if sim_seconds > 0 else 0.0
        verdict_means[name] = (
            latency_sum / latency_count if latency_count else 0.0
        )
        per_scenario[name] = {
            "exits": exits,
            "sim_seconds": sim_seconds,
            "verdicts_observed": latency_count,
        }
    return {
        "exit_rate_per_sim_s": exit_rates,
        "exit_to_verdict_mean_ns": verdict_means,
        "scenarios": per_scenario,
    }


#: The serve SLO workload: spike profile at a fixed seed — the
#: p99-under-burst column tracks exactly this plan.
SERVE_PROFILE = "spike"
SERVE_SEED = 0


def measure_serve(scale: float = 1.0) -> Dict[str, Any]:
    """Service-mode SLO columns (:mod:`repro.serve`).

    Runs a seeded spike-profile load plan through the same whole-stream
    task the socket service shards
    (:func:`repro.serve.pipeline.run_stream_spec`), socket-free — the
    transport paces frame delivery but cannot move these numbers.  Two
    columns enter the ledger:

    * ``serve_sustained_events_per_s`` — wall-measured ingest rate,
      thresholded like every other throughput;
    * ``serve_p99_exit_to_verdict_ns`` — p99 exit-to-verdict latency
      under the burst.  Like the ``obs_*`` columns this is a pure
      function of the virtual clocks, so ``--check`` compares it
      exactly: any drift means admission or pipeline behaviour changed.
    """
    from repro.obs.metrics import Histogram, merge_snapshots
    from repro.serve.load import build_plan
    from repro.serve.pipeline import run_stream_spec

    streams = max(2, int(round(4 * scale)))
    plan = build_plan(SERVE_PROFILE, SERVE_SEED, streams)
    t0 = perf_counter()
    results = [run_stream_spec(spec) for spec in plan]
    wall = perf_counter() - t0

    offered = sum(r["payload"]["offered"] for r in results)
    admitted = sum(r["payload"]["admitted"] for r in results)
    dropped: Dict[str, int] = {}
    for result in results:
        for reason, n in (result["payload"]["dropped"] or {}).items():
            dropped[reason] = dropped.get(reason, 0) + n

    merged = merge_snapshots(r["snapshot"] for r in results)
    latency = Histogram()
    for name, _labels, hist in merged.histogram_rows():
        if name != "serve.latency.exit_to_verdict_ns":
            continue
        latency.count += hist.count
        latency.sum += hist.sum
        if hist.min is not None:
            latency.min = (
                hist.min if latency.min is None else min(latency.min, hist.min)
            )
        if hist.max is not None:
            latency.max = (
                hist.max if latency.max is None else max(latency.max, hist.max)
            )
        for i, cell in enumerate(hist.buckets):
            latency.buckets[i] += cell

    return {
        "profile": SERVE_PROFILE,
        "seed": SERVE_SEED,
        "streams": streams,
        "events": offered,
        "admitted": admitted,
        "dropped": dropped,
        "wall_s": wall,
        "sustained_events_per_s": offered / wall if wall > 0 else 0.0,
        "p50_exit_to_verdict_ns": latency.percentile(0.5),
        "p99_exit_to_verdict_ns": latency.percentile(0.99),
        "reproduced": all(
            r["payload"]["reproduced"] is not False for r in results
        ),
    }


def measure_figures(
    figures: Tuple[str, ...] = STANDARD_FIGURES, scale: float = 1.0
) -> Dict[str, float]:
    """Wall seconds to regenerate each experiment figure at ``scale``."""
    from repro.experiments.runners import run_experiment

    walls: Dict[str, float] = {}
    for name in figures:
        t0 = perf_counter()
        run_experiment(name, scale=scale)
        walls[name] = perf_counter() - t0
    return walls


def measure_hut(scale: float = 1.0, rounds: int = 3) -> Dict[str, Any]:
    """Hut fuzz candidate throughput (executions/sec, wall-measured).

    Runs one small fixed-seed clean campaign per target through the
    full differential pair (real stack + reference model + oracle);
    the resulting ``hut_execs_per_s`` column keeps the cost of one
    fuzz execution visible — an emulation or oracle change that makes
    candidates drastically slower shows up in ``--check``, not in the
    nightly job's runtime.  Clean campaigns must stay silent; a finding
    here is a correctness failure, reported in the detail block.

    Best-of-``rounds`` (floored at 3), like every other wall column:
    the campaigns are seeded, so each round repeats the identical
    execution set and only machine-load jitter varies — a single
    sub-second sweep otherwise swings past the ``--check`` threshold.
    """
    from repro.testing import FuzzConfig, fuzz
    from repro.testing.hut import TARGETS

    budget = max(4, int(round(8 * scale)))
    wall = float("inf")
    per_target: Dict[str, Any] = {}
    executions = 0
    findings = 0
    for _ in range(max(3, rounds)):
        per_target = {}
        executions = 0
        findings = 0
        t0 = perf_counter()
        for target in TARGETS:
            result = fuzz(
                FuzzConfig(target=target, seed=2026, budget=budget)
            )
            executions += result.executions
            findings += len(result.findings)
            per_target[target] = {
                "executions": result.executions,
                "findings": len(result.findings),
                "coverage_features": len(result.coverage),
            }
        wall = min(wall, perf_counter() - t0)
    return {
        "wall_s": wall,
        "executions": executions,
        "execs_per_s": executions / wall if wall > 0 else 0.0,
        "budget_per_target": budget,
        "rounds": max(3, rounds),
        "clean": findings == 0,
        "targets": per_target,
    }


#: The trace-overhead workload: the exploit scenario replayed
#: repeatedly per timed region, once with causal tracing on and once
#: with it off.  Exploit exercises both span shapes (in-delivery
#: verdicts via HT-Ninja, plus the full publish fan-out).
TRACE_OVERHEAD_SCENARIO = "exploit"
TRACE_OVERHEAD_REPS = 50


def measure_trace_overhead(rounds: int = 3) -> Dict[str, Any]:
    """Cost of causal tracing: events/s with spans on vs off.

    Replays the same recorded trace ``TRACE_OVERHEAD_REPS`` times per
    timed region through identical fresh auditors, with
    ``MetricsRegistry(tracing=True)`` vs ``tracing=False``; the two
    sides run interleaved within each round and each takes its
    best-of-``rounds`` wall, so machine-load jitter hits both alike.
    Each side holds ONE registry across every rep — the regime a
    long-lived monitoring service runs in — so the column prices the
    steady state (ring full, drops counted per publish), not the
    one-time ring-fill transient of the first ``span_limit`` events.
    The ledger column ``trace_overhead_pct`` is the relative events/s
    loss with tracing on, gated by the ``--check`` ceiling (≤ 5%).

    ``rounds`` is floored at 5 regardless of the suite-wide knob: this
    column is a *ratio of two minima* over ~0.2 s regions, so it needs
    more samples than the absolute throughput columns to keep one
    scheduler hiccup on either side from swinging the quotient.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.replay.recorder import SCENARIOS, record_scenario
    from repro.replay.source import ReplaySource

    rounds = max(5, rounds)
    run = record_scenario(TRACE_OVERHEAD_SCENARIO, seed=0)
    build = SCENARIOS[TRACE_OVERHEAD_SCENARIO].build_auditors
    registries = {
        tracing: MetricsRegistry(tracing=tracing)
        for tracing in (True, False)
    }
    walls = {True: float("inf"), False: float("inf")}
    events_per_rep = 0
    for _ in range(max(1, rounds)):
        for tracing in (True, False):
            metrics = registries[tracing]
            t0 = perf_counter()
            for _rep in range(TRACE_OVERHEAD_REPS):
                report = ReplaySource(
                    run.trace,
                    build(),
                    metrics=metrics,
                ).run()
            walls[tracing] = min(walls[tracing], perf_counter() - t0)
            events_per_rep = report.events_replayed
    events = events_per_rep * TRACE_OVERHEAD_REPS
    rate_on = events / walls[True] if walls[True] > 0 else 0.0
    rate_off = events / walls[False] if walls[False] > 0 else 0.0
    overhead_pct = (
        max(0.0, (rate_off - rate_on) / rate_off * 100.0)
        if rate_off > 0
        else 0.0
    )
    return {
        "scenario": TRACE_OVERHEAD_SCENARIO,
        "reps": TRACE_OVERHEAD_REPS,
        "rounds": max(1, rounds),
        "events": events,
        "events_per_s_tracing_on": rate_on,
        "events_per_s_tracing_off": rate_off,
        "overhead_pct": overhead_pct,
    }


def measure_analysis(jobs: int = 1, rounds: int = 2) -> Dict[str, Any]:
    """Wall seconds for a full ``repro.analysis`` sweep of this tree.

    The flow rules made the analyzer interprocedural (call graph, CFGs,
    taint summaries); this column keeps that cost visible so a rule
    change that blows up the fixpoint shows up in ``--check`` instead
    of in everyone's pre-commit latency.  Best-of-``rounds``, like the
    throughput columns: a single multi-second sweep swings ~20% with
    machine load, which is exactly the gate's threshold.
    """
    from repro.analysis.__main__ import default_root
    from repro.analysis.runner import run_analysis

    root = default_root()
    wall = math.inf
    report = None
    for _ in range(max(1, int(rounds))):
        t0 = perf_counter()
        report = run_analysis(root, jobs=jobs)
        wall = min(wall, perf_counter() - t0)
    return {
        "wall_s": wall,
        "files_scanned": report.files_scanned,
        "findings": len(report.findings),
        "rules": len(report.rules),
        "jobs": jobs,
        "rounds": max(1, int(rounds)),
    }


def collect(
    scale: float = 1.0,
    jobs: int = 1,
    rounds: int = 3,
    figures: Tuple[str, ...] = STANDARD_FIGURES,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run every measurement and assemble one ledger entry (unwritten)."""

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    with profile_scope("bench"), profile_scope("replay"):
        say("replay throughput ...")
        replay = measure_replay(rounds=rounds, scale=scale)
    with profile_scope("bench"), profile_scope("campaign"):
        say("campaign throughput ...")
        campaign = measure_campaign(scale=scale, jobs=jobs, rounds=rounds)
    with profile_scope("bench"), profile_scope("obs"):
        say("observability columns ...")
        obs = measure_obs()
    with profile_scope("bench"), profile_scope("serve"):
        say("serve SLOs ...")
        serve = measure_serve(scale=scale)
    with profile_scope("bench"), profile_scope("figures"):
        say(f"figures {', '.join(figures) or '(none)'} ...")
        figure_walls = measure_figures(figures, scale=scale)
    with profile_scope("bench"), profile_scope("hut"):
        say("hut differential throughput ...")
        hut = measure_hut(scale=scale, rounds=rounds)
    with profile_scope("bench"), profile_scope("trace-overhead"):
        say("trace overhead ...")
        trace_overhead = measure_trace_overhead(rounds=rounds)
    with profile_scope("bench"), profile_scope("analysis"):
        say("static analysis wall ...")
        analysis = measure_analysis()
    return {
        "schema": SCHEMA_VERSION,
        "written_at_unix": wall_unix_time(),
        "scale": scale,
        "jobs": jobs,
        "python": platform.python_version(),
        "metrics": {
            "replay_events_per_s": replay["events_per_s"],
            "replay_pipeline_events_per_s": replay["pipeline"]["events_per_s"],
            "campaign_trials_per_s_serial": campaign["trials_per_s_serial"],
            "campaign_trials_per_s_parallel": campaign[
                "trials_per_s_parallel"
            ],
            "parallel_speedup": campaign["speedup"],
            "figure_wall_s": figure_walls,
            "obs_exit_rate_per_sim_s": obs["exit_rate_per_sim_s"],
            "obs_exit_to_verdict_mean_ns": obs["exit_to_verdict_mean_ns"],
            "serve_sustained_events_per_s": serve["sustained_events_per_s"],
            "serve_p99_exit_to_verdict_ns": serve["p99_exit_to_verdict_ns"],
            "analysis_wall_s": analysis["wall_s"],
            "hut_execs_per_s": hut["execs_per_s"],
            "trace_overhead_pct": trace_overhead["overhead_pct"],
        },
        "detail": {
            "replay": replay,
            "campaign": campaign,
            "obs": obs,
            "serve": serve,
            "analysis": analysis,
            "hut": hut,
            "trace_overhead": trace_overhead,
        },
    }


# ======================================================================
# Ledger
# ======================================================================
def ledger_entries(ledger_dir: str) -> List[Tuple[int, str]]:
    """Sorted ``(number, path)`` for every ledger entry on disk."""
    if not os.path.isdir(ledger_dir):
        return []
    found = []
    for name in os.listdir(ledger_dir):
        match = LEDGER_FILE_RE.match(name)
        if match is not None:
            found.append((int(match.group(1)), os.path.join(ledger_dir, name)))
    return sorted(found)


def latest_entry(ledger_dir: str) -> Optional[Dict[str, Any]]:
    """The most recent ledger entry, or ``None`` on an empty ledger."""
    entries = ledger_entries(ledger_dir)
    if not entries:
        return None
    with open(entries[-1][1], "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_entry(ledger_dir: str, entry: Dict[str, Any]) -> str:
    """Append ``entry`` as the next ``BENCH_<n>.json``; returns its path."""
    os.makedirs(ledger_dir, exist_ok=True)
    entries = ledger_entries(ledger_dir)
    number = entries[-1][0] + 1 if entries else 1
    path = os.path.join(ledger_dir, f"BENCH_{number:04d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ======================================================================
# Regression comparison
# ======================================================================
#: Scalar metrics where *lower* current values are regressions.
_HIGHER_IS_BETTER = (
    "replay_events_per_s",
    "replay_pipeline_events_per_s",
    "campaign_trials_per_s_serial",
    "campaign_trials_per_s_parallel",
    "parallel_speedup",
    "serve_sustained_events_per_s",
    "hut_execs_per_s",
)

#: Absolute floors gated by ``--check``, independent of any previous
#: ledger entry: ``(metric, floor, min_scale, min_jobs)``.  A floor only
#: applies at representative knobs — ``min_scale`` keeps the tiny grids
#: unit tests run (scale 0.25) out of the gate, because at those sizes
#: fixed costs dominate and the number measures the harness, not the
#: code; ``min_jobs`` keeps single-worker runs from being asked to show
#: a fan-out win.
_FLOORS: Tuple[Tuple[str, float, float, int], ...] = (
    # The btrace decode hot path: a record layout or view-class change
    # that costs 10x shows up here, not in a nightly timeout.
    ("replay_events_per_s", 1_000_000.0, 0.5, 1),
    # Critical-path fan-out win at two workers: dispatch, chunking or
    # merge overhead creeping back up breaks this before it breaks CI.
    ("parallel_speedup", 1.8, 0.5, 2),
)

#: Absolute ceilings gated by ``--check``, same knob semantics as
#: ``_FLOORS`` but failing when the value climbs *above* the bound.
_CEILINGS: Tuple[Tuple[str, float, float, int], ...] = (
    # Causal tracing must stay effectively free on the replay hot
    # path: events/s with spans on may trail spans off by at most 5%.
    ("trace_overhead_pct", 5.0, 0.5, 1),
)


def floor_problems(entry: Dict[str, Any]) -> List[str]:
    """Floor/ceiling violations for a fresh entry; empty means all hold.

    Unlike :func:`compare_entries` this needs no previous entry — the
    floors are absolute contracts from the ledger's history, so even a
    baseline run on an empty ledger is gated.
    """
    problems: List[str] = []
    scale = float(entry.get("scale") or 0.0)
    jobs = int(entry.get("jobs") or 1)
    metrics = entry.get("metrics", {})
    for name, floor, min_scale, min_jobs in _FLOORS:
        if scale < min_scale or jobs < min_jobs:
            continue
        value = metrics.get(name)
        if value is None:
            problems.append(
                f"{name}: missing from entry (floor {floor:,.2f})"
            )
        elif value < floor:
            problems.append(
                f"{name}: {value:,.2f} below the absolute floor "
                f"{floor:,.2f} (scale={scale}, jobs={jobs})"
            )
    for name, ceiling, min_scale, min_jobs in _CEILINGS:
        if scale < min_scale or jobs < min_jobs:
            continue
        value = metrics.get(name)
        if value is None:
            problems.append(
                f"{name}: missing from entry (ceiling {ceiling:,.2f})"
            )
        elif value > ceiling:
            problems.append(
                f"{name}: {value:,.2f} above the absolute ceiling "
                f"{ceiling:,.2f} (scale={scale}, jobs={jobs})"
            )
    return problems

#: Per-scenario metric maps that are pure functions of the virtual
#: clock: ``--check`` compares them *exactly* (no threshold) because
#: machine load cannot move them — only a behaviour change can.
_DETERMINISTIC_METRIC_MAPS = (
    "obs_exit_rate_per_sim_s",
    "obs_exit_to_verdict_mean_ns",
)

#: Scalar metrics that are pure functions of the virtual clocks,
#: compared exactly like the maps above.  Keys missing on either side
#: are skipped so older entries stay comparable as columns are added.
_DETERMINISTIC_SCALARS = ("serve_p99_exit_to_verdict_ns",)

#: Scalar wall-clock metrics where *higher* current values are
#: regressions (same direction as ``figure_wall_s``).  Skip-if-missing
#: keeps pre-column ledger entries comparable.
_WALL_SCALARS = ("analysis_wall_s",)


def _relative_change(previous: float, current: float) -> float:
    if previous <= 0:
        return 0.0
    return (current - previous) / previous


def compare_entries(
    previous: Dict[str, Any],
    current: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Human-readable regression lines; empty means within threshold.

    Entries measured at different scales or job counts are not
    comparable — the mismatch itself is reported as a failure rather
    than silently diffing apples against oranges.
    """
    problems: List[str] = []
    for knob in ("scale", "jobs"):
        if previous.get(knob) != current.get(knob):
            problems.append(
                f"{knob} changed ({previous.get(knob)} -> "
                f"{current.get(knob)}); entries are not comparable"
            )
    if problems:
        return problems

    prev_m = previous.get("metrics", {})
    cur_m = current.get("metrics", {})
    for name in _HIGHER_IS_BETTER:
        if name not in prev_m or name not in cur_m:
            continue
        change = _relative_change(prev_m[name], cur_m[name])
        if change < -threshold:
            problems.append(
                f"{name}: {prev_m[name]:,.1f} -> {cur_m[name]:,.1f} "
                f"({change:+.1%}, threshold -{threshold:.0%})"
            )
    prev_walls = prev_m.get("figure_wall_s", {})
    cur_walls = cur_m.get("figure_wall_s", {})
    for figure in sorted(set(prev_walls) & set(cur_walls)):
        change = _relative_change(prev_walls[figure], cur_walls[figure])
        if change > threshold:
            problems.append(
                f"figure_wall_s[{figure}]: {prev_walls[figure]:.2f}s -> "
                f"{cur_walls[figure]:.2f}s "
                f"({change:+.1%}, threshold +{threshold:.0%})"
            )
    for name in _WALL_SCALARS:
        if name not in prev_m or name not in cur_m:
            continue
        change = _relative_change(prev_m[name], cur_m[name])
        if change > threshold:
            problems.append(
                f"{name}: {prev_m[name]:.2f}s -> {cur_m[name]:.2f}s "
                f"({change:+.1%}, threshold +{threshold:.0%})"
            )
    for name in _DETERMINISTIC_METRIC_MAPS:
        prev_map = prev_m.get(name)
        cur_map = cur_m.get(name)
        if not isinstance(prev_map, dict) or not isinstance(cur_map, dict):
            continue
        for scenario in sorted(set(prev_map) & set(cur_map)):
            if prev_map[scenario] != cur_map[scenario]:
                problems.append(
                    f"{name}[{scenario}]: {prev_map[scenario]:,.1f} -> "
                    f"{cur_map[scenario]:,.1f} (deterministic metric "
                    "drifted: pipeline behaviour changed)"
                )
    for name in _DETERMINISTIC_SCALARS:
        if name not in prev_m or name not in cur_m:
            continue
        if prev_m[name] != cur_m[name]:
            problems.append(
                f"{name}: {prev_m[name]} -> {cur_m[name]} "
                "(deterministic metric drifted: pipeline behaviour changed)"
            )
    return problems


__all__ = [
    "DEFAULT_LEDGER_DIR",
    "DEFAULT_THRESHOLD",
    "OBS_SCENARIOS",
    "SCHEMA_VERSION",
    "STANDARD_FIGURES",
    "collect",
    "compare_entries",
    "floor_problems",
    "latest_entry",
    "ledger_entries",
    "measure_analysis",
    "measure_campaign",
    "measure_figures",
    "measure_obs",
    "measure_replay",
    "measure_serve",
    "measure_trace_overhead",
    "write_entry",
]
