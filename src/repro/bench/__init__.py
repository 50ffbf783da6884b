"""Performance ledger for the reproduction pipeline.

``python -m repro.bench`` runs the benchmark suite at a fixed scale and
appends one ``BENCH_<n>.json`` entry to the ledger directory
(``benchmarks/ledger`` by default).  :data:`COLUMNS` is the whole
contract: one row per ledger column names the measurement that
produces it, its unit and good direction, its kind, and any absolute
floor or ceiling.  :func:`collect`, :func:`compare_entries`,
:func:`floor_problems` and the CLI summary all loop over that table, so
adding a column means adding one row.

The headline, ``replay_events_per_s``, is the user path trace file ->
verdicts: every recorded scenario saved as btrace, loaded with
``load_any_trace``, replayed through its auditors and checked against
its live verdicts.  ``replay_pipeline_events_per_s`` is the same path
from gzip-JSONL files.

Entries are numbered, never overwritten, and comparable.  ``--check``
gates a fresh entry three ways:

* absolute floors and ceilings hold whenever the run's scale/jobs make
  them meaningful — even on a baseline run with an empty ledger;
* a ``wall`` column may fall behind the best value of the last
  :data:`HISTORY` entries that share the fresh entry's schema, scale
  and jobs by at most the threshold (20% by default), so drift cannot
  ratchet through the ledger one tolerated step at a time;
* an ``exact`` column — a pure function of the virtual clocks — must
  equal the latest such entry: any drift means behaviour changed.

Every measured workload is seeded, so what varies between runs is host
load.  Every wall column is timed through :func:`repro.prof.best_of`:
best of the run's rounds, each read at reference host speed through a
CPU probe run beside it.  All host-clock reads go through
:mod:`repro.prof`, the one module the determinism rule lets touch the
clock; ``profile_scope`` lets ``--profile`` break the suite down by
measurement.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import re
import tempfile
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.prof import best_of, perf_counter, profile_scope, wall_unix_time

#: Ledger entries: BENCH_0001.json, BENCH_0002.json, ...
LEDGER_FILE_RE = re.compile(r"^BENCH_(\d{4,})\.json$")

DEFAULT_LEDGER_DIR = os.path.join("benchmarks", "ledger")

#: Fractional change beyond which ``--check`` fails (0.20 = 20%).
DEFAULT_THRESHOLD = 0.20

#: ``--check`` gates ``wall`` columns against the best of this many
#: most recent comparable entries.
HISTORY = 3

SCHEMA_VERSION = 2

#: Figures timed by the standard run; ``--quick`` keeps only the first.
#: fig4/fig5 are covered by the dedicated campaign measurement, so the
#: figure list sticks to the cheaper single-VM experiment grids.
STANDARD_FIGURES: Tuple[str, ...] = ("table3", "ninjas", "fig7")


class Knobs(NamedTuple):
    """What one bench run was asked for; every measurement takes it."""

    scale: float = 1.0
    jobs: int = 1
    rounds: int = 3
    figures: Tuple[str, ...] = STANDARD_FIGURES


class Diverged(RuntimeError):
    """Measured work that did not reproduce its reference answer."""


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


# ======================================================================
# Measurements: each takes the run's Knobs and returns its detail dict
# ======================================================================
def _replay_files(files: List[Tuple[str, Any, str]]) -> int:
    """Trace file -> verdicts for each ``(scenario, live verdicts,
    path)``; returns the events replayed."""
    from repro.replay.btrace import load_any_trace
    from repro.replay.recorder import SCENARIOS
    from repro.replay.source import ReplaySource

    events = 0
    for name, live_verdicts, path in files:
        report = ReplaySource(
            load_any_trace(path), SCENARIOS[name].build_auditors()
        ).run()
        if not report.matches_live(live_verdicts):
            raise Diverged(f"replay of {path} diverged from the live verdicts")
        events += report.events_replayed
    return events


def measure_replay(knobs: Knobs = Knobs()) -> Dict[str, Any]:
    """Trace file -> verdicts per format: every recorded scenario saved
    once per format, then each round loads and replays all of them."""
    from repro.replay.btrace import save_btrace
    from repro.replay.recorder import SCENARIOS, record_scenario
    from repro.replay.trace_io import save_trace

    names = sorted(SCENARIOS)
    runs = [(name, record_scenario(name, seed=0)) for name in names]
    result: Dict[str, Any] = {"scenarios": names, "rounds": knobs.rounds}
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        for fmt, suffix, save in (
            ("btrace", ".btr", save_btrace),
            ("jsonl", ".jsonl.gz", save_trace),
        ):
            files = []
            for name, run in runs:
                path = os.path.join(tmp, name + suffix)
                save(path, run.trace)
                files.append((name, run.live_verdicts, path))
            events, _raw, wall = best_of(
                functools.partial(_replay_files, files), knobs.rounds
            )
            result[f"{fmt}_events"] = events
            result[f"{fmt}_wall_s"] = wall
            result[f"{fmt}_events_per_s"] = _rate(events, wall)
    return result


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


def measure_campaign(knobs: Knobs = Knobs()) -> Dict[str, Any]:
    """Time a fixed fault-injection grid serially and fanned out at
    ``knobs.jobs`` workers, verify the runs produced identical results,
    and report trials/sec both ways plus the fan-out speedup.

    The serial rate is probe-corrected, like every wall column.
    ``speedup`` is the **critical-path** speedup: raw serial wall
    divided by (LPT makespan of per-chunk worker CPU seconds over
    ``jobs`` workers) + (measured parallel wall − total worker CPU,
    i.e. every real dispatch/pickle/merge cost, floored at zero); the
    parallel rate is trials over that same modeled wall.  On a machine
    with ``jobs`` free cores this equals the plain wall ratio; on a
    core-starved CI box the wall ratio measures the OS scheduler's
    timesharing, not the executor, while the critical path still moves
    whenever chunking, dispatch overhead, or merge cost regress —
    which is exactly what the ledger floor needs to gate.

    Both sides take the best of ``rounds`` (min serial wall; min
    modeled critical-path wall): transient machine load can only slow
    a round down, so the minimum is the least-contaminated estimate.
    """
    from repro.faults.campaign import _trial_task
    from repro.parallel import parallel_map, warm_pool

    grid = _campaign_grid(knobs.scale)
    jobs, rounds = knobs.jobs, max(1, knobs.rounds)
    serial, serial_wall, serial_corrected = best_of(
        lambda: parallel_map(_trial_task, grid, jobs=1), rounds
    )

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
    if not identical:
        raise Diverged("parallel campaign diverged from the serial run")

    trials = len(grid)
    return {
        "trials": trials,
        "jobs": jobs,
        "rounds": rounds,
        "serial_wall_s": serial_wall,
        "serial_corrected_s": serial_corrected,
        "parallel_wall_s": parallel_wall,
        "critical_path_wall_s": modeled_wall,
        "fanout_overhead_s": overhead,
        "chunks": best_stats.get("chunks", 0),
        "chunk_cpu_s": est_cpu,
        "trials_per_s_serial": _rate(trials, serial_corrected),
        "trials_per_s_parallel": _rate(trials, modeled_wall),
        "speedup": _rate(serial_wall, modeled_wall),
        "parallel_identical": identical,
    }


#: Scenarios whose observability columns enter the ledger.  Exploit and
#: hang exercise the two latency regimes: an in-delivery verdict
#: (HT-Ninja blocks on the triggering event) vs. a timer-driven one
#: (GOSHD alarms seconds after the last event it saw).
OBS_SCENARIOS: Tuple[str, ...] = ("exploit", "hang")


def measure_obs(knobs: Knobs = Knobs()) -> Dict[str, Any]:
    """Virtual-clock observability columns (``repro.obs``): exit rate
    per *simulated* second and mean exit-to-verdict latency, pure
    functions of ``(scenario, seed)``."""
    from repro.obs.metrics import MetricsRegistry
    from repro.replay.recorder import record_scenario
    from repro.sim.clock import SECOND

    exit_rates: Dict[str, float] = {}
    verdict_means: Dict[str, float] = {}
    per_scenario: Dict[str, Any] = {}
    for name in OBS_SCENARIOS:
        run = record_scenario(name, seed=0)
        registry = MetricsRegistry.from_snapshot(run.metrics)
        exits = registry.total("exits")
        sim_seconds = (run.trace.header.end_ns or 0) / SECOND
        latency_count = 0
        latency_sum = 0
        for row_name, _labels, hist in registry.histogram_rows():
            if row_name == "latency.exit_to_verdict_ns":
                latency_count += hist.count
                latency_sum += hist.sum
        exit_rates[name] = _rate(exits, sim_seconds)
        verdict_means[name] = _rate(latency_sum, latency_count)
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


def measure_serve(knobs: Knobs = Knobs()) -> Dict[str, Any]:
    """Service-mode SLO columns (:mod:`repro.serve`).

    Runs a seeded spike-profile load plan through the same whole-stream
    task the socket service shards
    (:func:`repro.serve.pipeline.run_stream_spec`), socket-free — the
    transport paces frame delivery but cannot move these numbers: the
    ingest rate, and the p99 exit-to-verdict latency under the burst
    (virtual-clock, so exact).
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.load import build_plan
    from repro.serve.pipeline import run_stream_spec

    streams = max(2, int(round(4 * knobs.scale)))
    plan = build_plan(SERVE_PROFILE, SERVE_SEED, streams)
    results, _raw, wall = best_of(
        lambda: [run_stream_spec(spec) for spec in plan], knobs.rounds
    )
    if any(r["payload"]["reproduced"] is False for r in results):
        raise Diverged("a serve stream's verdicts diverged from its replay")

    offered = sum(r["payload"]["offered"] for r in results)
    dropped: Dict[str, int] = {}
    for result in results:
        for reason, n in (result["payload"]["dropped"] or {}).items():
            dropped[reason] = dropped.get(reason, 0) + n
    name = "serve.latency.exit_to_verdict_ns"
    latency = MetricsRegistry().merge({"histograms": [
        (name, {}, data)
        for result in results
        for row, _labels, data in result["snapshot"].get("histograms", ())
        if row == name
    ]}).histogram(name)
    return {
        "profile": SERVE_PROFILE,
        "seed": SERVE_SEED,
        "streams": streams,
        "events": offered,
        "admitted": sum(r["payload"]["admitted"] for r in results),
        "dropped": dropped,
        "wall_s": wall,
        "sustained_events_per_s": _rate(offered, wall),
        "p50_exit_to_verdict_ns": latency.percentile(0.5),
        "p99_exit_to_verdict_ns": latency.percentile(0.99),
    }


def measure_figures(knobs: Knobs = Knobs()) -> Dict[str, Any]:
    """Wall seconds to regenerate (run and render) each experiment
    figure at the scale."""
    from repro.experiments.runners import run_experiment

    return {"wall_s": {
        name: best_of(
            lambda: run_experiment(name, scale=knobs.scale).render(), knobs.rounds
        )[2]
        for name in knobs.figures
    }}


def _fuzz_targets(budget: int) -> Dict[str, Any]:
    from repro.testing import FuzzConfig, fuzz
    from repro.testing.hut import TARGETS

    out = {}
    for target in TARGETS:
        # In this process: a worker pool's dispatch would swamp the cost
        # of an execution, and the probes speak only for this process.
        result = fuzz(FuzzConfig(target=target, seed=2026, budget=budget), jobs=1)
        out[target] = {
            "executions": result.executions,
            "findings": len(result.findings),
            "coverage_features": len(result.coverage),
        }
    return out


def measure_hut(knobs: Knobs = Knobs()) -> Dict[str, Any]:
    """Hut fuzz candidate throughput (executions/sec).

    One small fixed-seed clean campaign per target through the full
    differential pair (real stack + reference model + oracle), so an
    emulation or oracle change that makes candidates drastically slower
    shows up in ``--check``, not in the nightly job's runtime.  Clean
    campaigns must stay silent: a finding here is a divergence.
    """
    budget = max(4, int(round(8 * knobs.scale)))
    targets, _raw, wall = best_of(
        functools.partial(_fuzz_targets, budget), knobs.rounds
    )
    if any(t["findings"] for t in targets.values()):
        raise Diverged("hut fuzzing found bugs in the clean emulator")
    executions = sum(t["executions"] for t in targets.values())
    return {
        "wall_s": wall,
        "executions": executions,
        "execs_per_s": _rate(executions, wall),
        "budget_per_target": budget,
        "rounds": knobs.rounds,
        "clean": True,
        "targets": targets,
    }


#: The trace-overhead workload: the exploit scenario replayed
#: repeatedly per timed region, once with causal tracing on and once
#: with it off.  Exploit exercises both span shapes (in-delivery
#: verdicts via HT-Ninja, plus the full publish fan-out).
TRACE_OVERHEAD_SCENARIO = "exploit"
TRACE_OVERHEAD_REPS = 50


def _replay_reps(trace, metrics) -> int:
    from repro.replay.recorder import SCENARIOS
    from repro.replay.source import ReplaySource

    build = SCENARIOS[TRACE_OVERHEAD_SCENARIO].build_auditors
    events = 0
    for _rep in range(TRACE_OVERHEAD_REPS):
        events += ReplaySource(trace, build(), metrics=metrics).run().events_replayed
    return events


def measure_trace_overhead(knobs: Knobs = Knobs()) -> Dict[str, Any]:
    """Cost of causal tracing: events/s with spans on vs off.

    Replays the same recorded trace ``TRACE_OVERHEAD_REPS`` times per
    timed region through identical fresh auditors, with
    ``MetricsRegistry(tracing=True)`` vs ``tracing=False``; the two
    sides run interleaved within each round and each takes its best
    round, so machine-load jitter hits both alike.  Each side holds ONE
    registry across every rep — the regime a long-lived monitoring
    service runs in — so the column prices the steady state (ring full,
    drops counted per publish), not the one-time ring-fill transient.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.replay.recorder import record_scenario

    trace = record_scenario(TRACE_OVERHEAD_SCENARIO, seed=0).trace
    registries = {tracing: MetricsRegistry(tracing=tracing) for tracing in (True, False)}
    walls = {True: float("inf"), False: float("inf")}
    events = 0
    for _ in range(max(1, knobs.rounds)):
        for tracing, metrics in registries.items():
            events, _raw, wall = best_of(functools.partial(_replay_reps, trace, metrics))
            walls[tracing] = min(walls[tracing], wall)
    rate_on = _rate(events, walls[True])
    rate_off = _rate(events, walls[False])
    return {
        "scenario": TRACE_OVERHEAD_SCENARIO,
        "reps": TRACE_OVERHEAD_REPS,
        "rounds": knobs.rounds,
        "events": events,
        "events_per_s_tracing_on": rate_on,
        "events_per_s_tracing_off": rate_off,
        "overhead_pct": max(0.0, _rate(rate_off - rate_on, rate_off) * 100.0),
    }


def measure_analysis(knobs: Knobs = Knobs()) -> Dict[str, Any]:
    """Wall seconds for a full ``repro.analysis`` sweep of this tree
    (one worker), so a rule change that blows up the interprocedural
    fixpoint shows up in ``--check``, not in pre-commit latency."""
    from repro.analysis.__main__ import default_root
    from repro.analysis.runner import run_analysis

    root = default_root()
    report, _raw, wall = best_of(lambda: run_analysis(root, jobs=1), knobs.rounds)
    return {
        "wall_s": wall,
        "files_scanned": report.files_scanned,
        "findings": len(report.findings),
        "rules": len(report.rules),
        "jobs": 1,
        "rounds": knobs.rounds,
    }


# ======================================================================
# The column table
# ======================================================================
class Column(NamedTuple):
    """One ledger column: where its value comes from and how it is gated.

    ``kind`` is ``"wall"`` (host-timed: gated by the threshold against
    the best recent value, in direction ``better``) or ``"exact"`` (a
    pure function of the virtual clocks: must not move at all).  A wall
    column with ``better=None`` has no relative gate — only its bound.
    ``floor``/``ceiling`` apply at ``min_scale``/``min_jobs`` and up;
    ``min_rounds`` is the fewest rounds its measurement takes.
    """

    name: str
    measure: Callable[[Knobs], Dict[str, Any]]
    key: str
    unit: str
    better: Optional[str] = None
    kind: str = "wall"
    floor: Optional[float] = None
    ceiling: Optional[float] = None
    min_scale: float = 0.5
    min_jobs: int = 1
    min_rounds: int = 1


COLUMNS: Tuple[Column, ...] = (
    # The headline, btrace file -> verdicts.  Floor: 60% of BENCH_0007's
    # 81,518, which reverting btrace's direct decode (~2.5x here) breaks.
    Column("replay_events_per_s", measure_replay, "btrace_events_per_s",
           "events/s", "higher", floor=48_911.0, min_rounds=5),
    Column("replay_pipeline_events_per_s", measure_replay, "jsonl_events_per_s",
           "events/s", "higher"),
    # Campaign rounds last about a second and are the noisiest here:
    # the best of many, so the best is quiet.
    Column("campaign_trials_per_s_serial", measure_campaign, "trials_per_s_serial",
           "trials/s", "higher", min_rounds=10),
    Column("campaign_trials_per_s_parallel", measure_campaign, "trials_per_s_parallel",
           "trials/s", "higher"),
    # Critical-path fan-out win at two workers: dispatch, chunking or
    # merge overhead creeping back up breaks this before it breaks CI.
    Column("parallel_speedup", measure_campaign, "speedup",
           "x", "higher", floor=1.8, min_jobs=2),
    Column("figure_wall_s", measure_figures, "wall_s", "s", "lower", min_rounds=3),
    Column("obs_exit_rate_per_sim_s", measure_obs, "exit_rate_per_sim_s",
           "exits/sim-s", kind="exact"),
    Column("obs_exit_to_verdict_mean_ns", measure_obs, "exit_to_verdict_mean_ns",
           "ns", kind="exact"),
    # A quick-scale serve round is ~10 ms: the best of many is its signal.
    Column("serve_sustained_events_per_s", measure_serve, "sustained_events_per_s",
           "events/s", "higher", min_rounds=20),
    Column("serve_p99_exit_to_verdict_ns", measure_serve, "p99_exit_to_verdict_ns",
           "ns", kind="exact"),
    Column("analysis_wall_s", measure_analysis, "wall_s", "s", "lower", min_rounds=3),
    Column("hut_execs_per_s", measure_hut, "execs_per_s",
           "execs/s", "higher", min_rounds=5),
    # Causal tracing must stay effectively free on the replay hot path.
    # A ratio of two minima over short regions: more rounds, and no
    # relative gate (a percentage near zero has no meaningful drift).
    Column("trace_overhead_pct", measure_trace_overhead, "overhead_pct",
           "%", ceiling=5.0, min_rounds=10),
)


def _detail_key(column: Column) -> str:
    return column.measure.__name__[len("measure_"):]


def collect(
    scale: float = 1.0,
    jobs: int = 1,
    rounds: int = 3,
    figures: Tuple[str, ...] = STANDARD_FIGURES,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run every measurement once and assemble one ledger entry
    (unwritten).  Raises :class:`Diverged` when measured work did not
    reproduce its reference answer."""
    knobs = Knobs(scale, jobs, rounds, tuple(figures))
    detail: Dict[str, Any] = {}
    for column in COLUMNS:
        name = _detail_key(column)
        if name in detail:
            continue
        if progress is not None:
            progress(f"{name} ...")
        least = max(c.min_rounds for c in COLUMNS if c.measure is column.measure)
        with profile_scope("bench"), profile_scope(name):
            detail[name] = column.measure(knobs._replace(rounds=max(rounds, least)))
    return {
        "schema": SCHEMA_VERSION,
        "written_at_unix": wall_unix_time(),
        "scale": scale,
        "jobs": jobs,
        "python": platform.python_version(),
        "metrics": {c.name: detail[_detail_key(c)][c.key] for c in COLUMNS},
        "detail": detail,
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


def _load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
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
# Gates
# ======================================================================
#: Entries differing in any of these are not comparable.
_KNOBS = ("schema", "scale", "jobs")


def cells(name: str, value: Any) -> List[Tuple[str, Any]]:
    """``(label, value)`` per cell of a column: a scalar is one cell, a
    per-scenario or per-figure map is one cell per key."""
    if isinstance(value, dict):
        return [(f"{name}[{key}]", value[key]) for key in sorted(value)]
    return [(name, value)]


def reference_entry(
    ledger_dir: str, current: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """What ``--check`` compares ``current`` against, from the last
    :data:`HISTORY` ledger entries that share its schema, scale and
    jobs: each wall column's best value among them (per key, for maps),
    and each other column's latest.  ``None`` when there is none."""
    history = [
        entry
        for entry in (_load(path) for _n, path in ledger_entries(ledger_dir))
        if all(entry.get(knob) == current.get(knob) for knob in _KNOBS)
    ][-HISTORY:]
    if not history:
        return None
    metrics: Dict[str, Any] = {}
    for column in COLUMNS:
        values = [e["metrics"][column.name] for e in history
                  if column.name in e.get("metrics", {})]
        if not values:
            continue
        if column.better is None:
            metrics[column.name] = values[-1]
            continue
        pick = max if column.better == "higher" else min
        if isinstance(values[-1], dict):
            metrics[column.name] = {
                key: pick(v[key] for v in values if key in v)
                for key in set().union(*values)
            }
        else:
            metrics[column.name] = pick(values)
    reference = {knob: current.get(knob) for knob in _KNOBS}
    reference.update(entries=len(history), metrics=metrics)
    return reference


def compare_entries(
    previous: Dict[str, Any],
    current: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Human-readable regression lines; empty means within threshold.

    Entries measured at different schemas, scales or job counts are
    not comparable — the mismatch itself is reported as a failure
    rather than silently diffing apples against oranges.  A column or
    map key missing on either side is skipped, so entries written
    before a column existed stay comparable.
    """
    problems = [
        f"{knob} changed ({previous.get(knob)} -> {current.get(knob)}); "
        "entries are not comparable"
        for knob in _KNOBS
        if previous.get(knob) != current.get(knob)
    ]
    if problems:
        return problems
    prev_m = previous.get("metrics", {})
    cur_m = current.get("metrics", {})
    for column in COLUMNS:
        if column.name not in prev_m or column.name not in cur_m:
            continue
        before = dict(cells(column.name, prev_m[column.name]))
        after = dict(cells(column.name, cur_m[column.name]))
        for label in sorted(before.keys() & after.keys()):
            old, new = before[label], after[label]
            if column.kind == "exact":
                if old != new:
                    problems.append(
                        f"{label}: {old} -> {new} (deterministic metric "
                        "drifted: pipeline behaviour changed)"
                    )
                continue
            if column.better is None or not old > 0:
                continue
            change = (new - old) / old
            if change < -threshold if column.better == "higher" else change > threshold:
                problems.append(
                    f"{label}: {old:,.2f} -> {new:,.2f} {column.unit} "
                    f"({change:+.1%}, threshold {threshold:.0%})"
                )
    return problems


def floor_problems(entry: Dict[str, Any]) -> List[str]:
    """Floor/ceiling violations for a fresh entry; empty means all hold.

    Unlike :func:`compare_entries` this needs no previous entry — the
    bounds are absolute contracts, so even a baseline run on an empty
    ledger is gated.  A bound applies only at representative knobs:
    ``min_scale`` keeps the tiny grids unit tests run out of the gate
    (fixed costs dominate there), ``min_jobs`` keeps single-worker runs
    from being asked to show a fan-out win.
    """
    problems: List[str] = []
    scale = float(entry.get("scale") or 0.0)
    jobs = int(entry.get("jobs") or 1)
    metrics = entry.get("metrics", {})
    for column in COLUMNS:
        is_floor = column.floor is not None
        bound = column.floor if is_floor else column.ceiling
        if bound is None or scale < column.min_scale or jobs < column.min_jobs:
            continue
        word = "floor" if is_floor else "ceiling"
        value = metrics.get(column.name)
        if value is None:
            problems.append(f"{column.name}: missing from entry ({word} {bound:,.2f})")
        elif value < bound if is_floor else value > bound:
            problems.append(
                f"{column.name}: {value:,.2f} {'below' if is_floor else 'above'} "
                f"the absolute {word} {bound:,.2f} (scale={scale}, jobs={jobs})"
            )
    return problems


__all__ = [
    "COLUMNS",
    "DEFAULT_LEDGER_DIR",
    "DEFAULT_THRESHOLD",
    "HISTORY",
    "OBS_SCENARIOS",
    "SCHEMA_VERSION",
    "STANDARD_FIGURES",
    "Column",
    "Diverged",
    "Knobs",
    "cells",
    "collect",
    "compare_entries",
    "floor_problems",
    "ledger_entries",
    "measure_analysis",
    "measure_campaign",
    "measure_figures",
    "measure_hut",
    "measure_obs",
    "measure_replay",
    "measure_serve",
    "measure_trace_overhead",
    "reference_entry",
    "write_entry",
]
