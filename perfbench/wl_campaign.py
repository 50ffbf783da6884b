"""Workload ``live-campaign``: fault campaign -> outcomes, on the live path.

``run_campaign`` runs a stratified slice of the §VIII-A fault grid at
``jobs=2``: one first-pass site per fault class, crossed with the
``http`` workload, transient injection and both preemption settings,
at the run's seed (8 trials).  Every trial boots
the full live Testbed: guest, hw, KVM, EF, EM, interception, GOSHD.

Outside the timed region the grid runs once at ``jobs=1``; every
``jobs=2`` pass must reproduce that reference trial for trial.  The
run measures whole passes for ``--seconds``, at least ``MIN_ROUNDS``
passes and ``MIN_OPS`` trials.  Set-up builds the grid, forks a fresh
pool and pushes one trial per worker through it.
Per-trial latency is each trial's wall time inside its worker, read by
a timer wrapped around ``run_trial`` before the pool forks, which also
takes a speed probe (:mod:`speed`) on each side of the trial.  A pass
is corrected by all of its trials' probes; throughput is one pass's
trials over the median corrected pass.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Dict, List, Tuple

import layers
import speed
from common import (
    MIN_OPS, MIN_ROUNDS, OUT_DIR, Metrics, Outcome, Timings, peak_rss_mb,
    sha256_json, timed_setups,
)
from tracing import Tracer, layer_metrics, traced, write_spans

from repro.faults import campaign
from repro.faults.campaign import TrialConfig
from repro.faults.injector import InjectionMode
from repro.faults.sites import FaultClass, build_site_catalog
import repro.parallel as parallel
from repro.parallel import executor, shared, warm_pool
from repro.prof import perf_counter
from repro.sim.clock import SECOND

JOBS = 2
#: Set-ups per run.  One takes ~0.2 s, so its median needs more of them
#: than the other workloads' to hold still.
SETUPS = 7

#: Shorter windows than the paper's (GOSHD threshold 2 s, detection and
#: classification windows 4 s each): every outcome class of the full
#: windows still occurs on this grid, at two thirds of the cost.
BASE_CONFIG = TrialConfig(
    warmup_ns=1 * SECOND,
    detect_window_ns=4 * SECOND,
    classify_window_ns=4 * SECOND,
    goshd_threshold_ns=2 * SECOND,
)


def build_sites() -> list:
    """The first first-pass site of each fault class.

    The sites stay fixed and the seed goes into every trial's config
    (the guest's RNG): picking sites by seed would change what a trial
    costs by up to 20x, so run-to-run spread would measure the draw.
    """
    catalog = [s for s in build_site_catalog() if s.activation_pass == 1]
    return [next(s for s in catalog if s.fault_class is fault_class)
            for fault_class in FaultClass]


def run_grid(sites: list, seed: int, jobs: int):
    return campaign.run_campaign(
        sites,
        workloads=("http",),
        modes=(InjectionMode.TRANSIENT,),
        preempt_options=(False, True),
        seeds=(seed,),
        base_config=BASE_CONFIG,
        jobs=jobs,
    )


def plan_digest(sites: list, seed: int) -> str:
    grid = campaign.iter_trial_grid(
        sites, workloads=("http",), modes=(InjectionMode.TRANSIENT,),
        preempt_options=(False, True), seeds=(seed,), base_config=BASE_CONFIG)
    return sha256_json([[site.site_id, site.fault_class.value, config.workload,
                         config.mode.value, config.preemptible, config.seed]
                        for site, config in grid])


class TrialTimer:
    """Times each ``run_trial`` call between two speed probes, in the
    worker that runs it; wall and probes ride on the result.

    Installed in the parent before the pool forks, so workers inherit
    it.  It adds attributes, not fields: ``TrialResult`` equality
    (the reference check) ignores them.  On its first trial a worker
    pins itself to a CPU of its own (the next slot of a counter shared
    across the fork), so its probes run on the CPU its trials run on.
    """

    def __init__(self) -> None:
        self.original = campaign.run_trial

    def install(self) -> None:
        original = self.original
        parent = os.getpid()
        cpus = sorted(os.sched_getaffinity(0))
        slots = multiprocessing.Value("i", 0)
        pinned = [False]

        def pin_worker() -> None:
            if os.getpid() == parent:  # the jobs=1 reference runs here
                return
            pinned[0] = True
            if len(cpus) < JOBS:
                return
            with slots.get_lock():
                slot = slots.value
                slots.value += 1
            os.sched_setaffinity(0, {cpus[slot % len(cpus)]})

        def timed_trial(site, config):
            if not pinned[0]:
                pin_worker()
            before = speed.probe()
            t0 = perf_counter()
            result = original(site, config)
            result.perfbench_wall_s = perf_counter() - t0
            result.perfbench_probes = (before, speed.probe())
            return result

        campaign.run_trial = timed_trial

    def restore(self) -> None:
        campaign.run_trial = self.original


def compare(results: list, reference: list, outcome: Outcome, record: bool) -> int:
    """Check a pass trial for trial; returns the events it published."""
    if len(results) != len(reference):
        outcome.fail(f"{len(results)} trials, expected {len(reference)}")
    events = 0
    for i, (got, want) in enumerate(zip(results, reference)):
        ok = got == want
        problem = "" if ok else (
            f"trial {i} (site {got.site.site_id}, {got.config.workload}): "
            f"{got.outcome.value} differs from the jobs=1 reference {want.outcome.value}")
        if record:
            outcome.record(ok, problem)
        elif not ok:
            outcome.fail(problem)
        events += layers.snapshot_total([got.metrics], "flow.published")
    return events


def stop_pool() -> None:
    """Shut the fork pool down and reap every worker.

    ``repro.parallel`` keeps its pool for the life of the process and
    its exit hook does not wait for the workers, so the benchmark shuts
    it down itself through the executor's private hook.
    """
    executor._discard_pool(wait_for_workers=True)
    for child in multiprocessing.active_children():
        child.join(timeout=10)


def run(seed: int, seconds: float, trace: bool) -> Tuple[Outcome, Metrics, List[str]]:
    outcome = Outcome()
    sites = build_sites()
    notes = [f"seed {seed}", f"trial grid sha256 {plan_digest(sites, seed)}"]
    if trace:
        try:
            return outcome, _traced(sites, seed, outcome, notes), notes
        finally:
            stop_pool()

    timer = TrialTimer()
    timer.install()
    try:
        reference = run_grid(sites, seed, jobs=1).results

        def setup(i: int) -> list:
            shared.prime("perfbench.setup", i)  # a fresh pool every set-up
            warm_pool(JOBS)
            return run_grid(sites[:1], seed, JOBS).results  # one trial per worker

        setup_s, warm_runs = timed_setups(setup, SETUPS)
        for warm in warm_runs:
            compare(warm, reference[:len(warm)], outcome, record=False)

        timings = Timings()
        per_pass = set()
        deadline = perf_counter() + seconds
        while True:
            t0 = perf_counter()
            summary = run_grid(sites, seed, JOBS)
            wall = perf_counter() - t0
            per_pass.add(compare(summary.results, reference, outcome, record=True))
            # The pass ran in the workers: it is corrected by every probe
            # they took beside its trials.
            probes = [p for r in summary.results for p in r.perfbench_probes]
            timings.rounds.append((wall, speed.correct(wall, probes)))
            timings.ops.extend(
                (r.perfbench_wall_s, speed.correct(r.perfbench_wall_s, r.perfbench_probes))
                for r in summary.results)
            if (perf_counter() >= deadline and len(timings.rounds) >= MIN_ROUNDS
                    and len(timings.ops) >= MIN_OPS):
                break
    finally:
        timer.restore()
        stop_pool()
    if len(per_pass) != 1:
        outcome.fail(f"passes over the same grid published {sorted(per_pass)} events")
    events = max(per_pass)
    notes.append(f"passes of {len(reference)} trials at jobs={JOBS}, "
                 f"{events} events published each")
    notes += timings.notes(events, len(reference))
    metrics: Metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        **timings.metrics(events, len(reference)),
    }
    return outcome, metrics, notes


def _traced(sites: list, seed: int, outcome: Outcome, notes: List[str]) -> Metrics:
    """Layers traced at jobs=1 (forked workers would drop the spans);
    ``parallel.*`` from ``parallel_map``'s stats on a jobs=2 pass."""
    grid, _, untraced = speed.timed(lambda: run_grid(sites, seed, jobs=1))
    reference = grid.results

    tracer = Tracer()

    def traced_grid():
        with tracer.root("live-campaign"):
            return run_grid(sites, seed, jobs=1)

    with traced(tracer, layers.boundaries()):
        summary, _, traced_wall = speed.timed(traced_grid)
    compare(summary.results, reference, outcome, record=True)
    write_spans(tracer, OUT_DIR / f"spans-live-campaign-s{seed}.bin",
                {"workload": "live-campaign", "seed": seed, "jobs": 1})

    stats: Dict[str, Any] = {}
    real_map = parallel.parallel_map

    def map_with_stats(fn, items, **kwargs):
        kwargs["stats"] = stats
        return real_map(fn, items, **kwargs)

    warm_pool(JOBS)
    # run_campaign imports parallel_map from the package at call time.
    parallel.parallel_map = map_with_stats
    try:
        t0 = perf_counter()
        fanned = run_grid(sites, seed, JOBS)
        fan_wall = perf_counter() - t0
    finally:
        parallel.parallel_map = real_map
    compare(fanned.results, reference, outcome, record=True)
    busy = sum(stats.get("chunk_cpu_s", ()))

    snapshots = [r.metrics for r in summary.results]
    values: Dict[str, float] = {k: v for k, (v, _) in layer_metrics(tracer).items()}
    values.update(layers.counts_from_spans(tracer))
    values["container.dropped"] = sum(
        layers.snapshot_total(snapshots, "flow.dropped", reason=reason)
        for reason in ("crash", "quarantined"))
    values["ef.forwarded"] = layers.snapshot_total(snapshots, "ef.forwarded")
    values["ef.suppressed"] = layers.snapshot_total(snapshots, "ef.suppressed")
    values["em.delivered"] = layers.snapshot_total(snapshots, "em.delivered")
    values["guest.sim_s"] = sum(tracer.samples.get("guest.sim_ns", ())) / SECOND
    values["trace.overhead_pct"] = 100.0 * (traced_wall - untraced) / untraced
    values["parallel.chunks"] = stats.get("chunks", 0)
    values["parallel.busy_frac"] = busy / (JOBS * fan_wall)
    values["parallel.overhead_s"] = max(0.0, fan_wall - busy / JOBS)
    notes.append("campaign layers traced at jobs=1 (forked workers drop spans); "
                 f"parallel.* from parallel_map stats on one jobs={JOBS} pass")
    return layers.assemble(values)

