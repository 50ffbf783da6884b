"""Fault-injection campaign runner (Fig 4 / Fig 5 experiments).

One *trial* = boot a clean 2-vCPU VM with GOSHD attached, start a
workload and the external SSH probe, arm one fault, and watch.  Five
outcomes, as in the paper:

* ``NOT_ACTIVATED`` — the workload never reached the fault.
* ``NOT_MANIFESTED`` — activated, but no observable failure.
* ``PARTIAL_HANG`` — GOSHD flagged a proper subset of vCPUs within the
  classification window.
* ``FULL_HANG`` — all vCPUs flagged within the window.
* ``NOT_DETECTED`` — something looks failed (the external probe calls
  the VM dead) but GOSHD reported nothing.

Ground truth for "the scheduler really stalled" comes from simulator
oracle counters (per-CPU switch timestamps kept by the guest kernel),
which monitors never see.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.auditors.goshd import GuestOSHangDetector
from repro.faults.injector import FaultInjector, InjectionMode
from repro.faults.sites import FaultSite
from repro.harness import Testbed, TestbedConfig
from repro.sim.clock import MILLISECOND, SECOND
from repro.workloads.common import SshProbe, start_workload


class Outcome(enum.Enum):
    NOT_ACTIVATED = "not_activated"
    NOT_MANIFESTED = "not_manifested"
    PARTIAL_HANG = "partial_hang"
    FULL_HANG = "full_hang"
    NOT_DETECTED = "not_detected"


@dataclass
class TrialConfig:
    """Parameters of one injection trial."""

    workload: str = "hanoi"
    preemptible: bool = False
    mode: InjectionMode = InjectionMode.TRANSIENT
    seed: int = 0
    #: Let the workload reach steady state before arming the fault.
    warmup_ns: int = 1 * SECOND
    #: How long to wait for a detection after arming.
    detect_window_ns: int = 15 * SECOND
    #: The paper waits ~10 min (2x the longest failure-free run) to
    #: separate partial from full hangs; our workloads are shorter, so
    #: the scaled default is 2x a failure-free round as well.
    classify_window_ns: int = 20 * SECOND
    goshd_threshold_ns: int = 4 * SECOND


@dataclass
class TrialResult:
    """Everything one trial produced."""

    site: FaultSite
    config: TrialConfig
    outcome: Outcome
    activated: bool
    activation_ns: Optional[int]
    first_alert_ns: Optional[int]
    hung_vcpus: Tuple[int, ...]
    full_hang_ns: Optional[int]
    probe_dead: bool
    #: The trial's pipeline-observability snapshot
    #: (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`): per-reason
    #: exit counts, stage counters and verdict latencies for this boot.
    metrics: Dict = field(default_factory=dict)

    @property
    def detection_latency_ns(self) -> Optional[int]:
        """Fault activation -> first GOSHD alarm (Fig 5's metric)."""
        if self.first_alert_ns is None or self.activation_ns is None:
            return None
        return max(0, self.first_alert_ns - self.activation_ns)

    @property
    def full_hang_latency_ns(self) -> Optional[int]:
        if self.full_hang_ns is None or self.activation_ns is None:
            return None
        return max(0, self.full_hang_ns - self.activation_ns)


def _scheduler_stalled(testbed: Testbed, threshold_ns: int) -> bool:
    """Oracle: any vCPU without a context switch for > threshold."""
    now = testbed.engine.clock.now
    for cpu in testbed.kernel.cpus:
        if now - cpu.last_switch_ns > threshold_ns:
            return True
    return False


def run_trial(site: FaultSite, config: TrialConfig) -> TrialResult:
    """Execute one injection trial from clean boot to classification."""
    testbed = Testbed(
        TestbedConfig(
            num_vcpus=2,
            seed=config.seed,
            preemptible=config.preemptible,
        )
    )
    testbed.boot()
    goshd = GuestOSHangDetector(threshold_ns=config.goshd_threshold_ns)
    testbed.monitor([goshd])

    probe = SshProbe(testbed.kernel)
    probe.start()
    start_workload(testbed.kernel, config.workload)

    injector = FaultInjector(site, config.mode)
    injector.attach(testbed.kernel)

    testbed.engine.run_for(config.warmup_ns)
    injector.arm()

    # Detection phase: advance until GOSHD alarms or the window ends.
    deadline = testbed.engine.clock.now + config.detect_window_ns
    while testbed.engine.clock.now < deadline and not goshd.hang_detected:
        testbed.engine.run_for(500 * MILLISECOND)

    full_hang_ns: Optional[int] = None
    if goshd.hang_detected:
        # Classification phase: does the partial hang become full?
        classify_deadline = (
            testbed.engine.clock.now + config.classify_window_ns
        )
        while (
            testbed.engine.clock.now < classify_deadline
            and not goshd.is_full_hang
        ):
            testbed.engine.run_for(500 * MILLISECOND)
        full_hang_ns = goshd.full_hang_time_ns

    outcome = _classify(testbed, goshd, injector, probe, config)
    testbed.kernel.shutdown()
    return TrialResult(
        site=site,
        config=config,
        outcome=outcome,
        activated=injector.activated,
        activation_ns=injector.first_activation_ns,
        first_alert_ns=goshd.first_hang_time_ns,
        hung_vcpus=tuple(sorted(goshd.hung_vcpus)),
        full_hang_ns=full_hang_ns,
        probe_dead=probe.reports_dead,
        metrics=testbed.metrics.snapshot(),
    )


def _classify(
    testbed: Testbed,
    goshd: GuestOSHangDetector,
    injector: FaultInjector,
    probe: SshProbe,
    config: TrialConfig,
) -> Outcome:
    if not injector.activated:
        return Outcome.NOT_ACTIVATED
    if goshd.is_full_hang:
        return Outcome.FULL_HANG
    if goshd.hang_detected:
        return Outcome.PARTIAL_HANG
    stalled = _scheduler_stalled(testbed, config.goshd_threshold_ns)
    if stalled or probe.reports_dead:
        # Something failed, GOSHD said nothing: a miss.
        return Outcome.NOT_DETECTED
    return Outcome.NOT_MANIFESTED


# ======================================================================
# Campaign aggregation
# ======================================================================
@dataclass
class CampaignSummary:
    """All trials of one campaign, with Fig 4 / Fig 5 views."""

    results: List[TrialResult] = field(default_factory=list)

    def add(self, result: TrialResult) -> None:
        self.results.append(result)

    # -- Fig 4 ----------------------------------------------------------
    def outcome_counts(
        self,
        workload: Optional[str] = None,
        mode: Optional[InjectionMode] = None,
        preemptible: Optional[bool] = None,
    ) -> Dict[Outcome, int]:
        counts = {outcome: 0 for outcome in Outcome}
        for r in self.results:
            if workload is not None and r.config.workload != workload:
                continue
            if mode is not None and r.config.mode != mode:
                continue
            if preemptible is not None and r.config.preemptible != preemptible:
                continue
            counts[r.outcome] += 1
        return counts

    def coverage(self) -> float:
        """Detected hangs / true hangs (the paper's 99.8%)."""
        detected = sum(
            1
            for r in self.results
            if r.outcome in (Outcome.PARTIAL_HANG, Outcome.FULL_HANG)
        )
        missed = sum(1 for r in self.results if r.outcome is Outcome.NOT_DETECTED)
        total = detected + missed
        return detected / total if total else 1.0

    def manifestation_rate(self) -> float:
        activated = [r for r in self.results if r.activated]
        if not activated:
            return 0.0
        manifested = [
            r
            for r in activated
            if r.outcome
            in (Outcome.PARTIAL_HANG, Outcome.FULL_HANG, Outcome.NOT_DETECTED)
        ]
        return len(manifested) / len(activated)

    def partial_hang_fraction(self, preemptible: Optional[bool] = None) -> float:
        pool = [
            r
            for r in self.results
            if r.outcome in (Outcome.PARTIAL_HANG, Outcome.FULL_HANG)
            and (preemptible is None or r.config.preemptible == preemptible)
        ]
        if not pool:
            return 0.0
        partial = [r for r in pool if r.outcome is Outcome.PARTIAL_HANG]
        return len(partial) / len(pool)

    # -- Fig 5 ----------------------------------------------------------
    def detection_latencies_s(self) -> List[float]:
        """First-alarm latency for every detected hang."""
        out = []
        for r in self.results:
            latency = r.detection_latency_ns
            if latency is not None:
                out.append(latency / SECOND)
        return sorted(out)

    def full_hang_latencies_s(self) -> List[float]:
        out = []
        for r in self.results:
            latency = r.full_hang_latency_ns
            if latency is not None:
                out.append(latency / SECOND)
        return sorted(out)

    # -- Observability ---------------------------------------------------
def iter_trial_grid(
    sites: Sequence[FaultSite],
    workloads: Iterable[str] = ("hanoi", "make-j1", "make-j2", "http"),
    modes: Iterable[InjectionMode] = (
        InjectionMode.TRANSIENT,
        InjectionMode.PERSISTENT,
    ),
    preempt_options: Iterable[bool] = (False, True),
    seeds: Iterable[int] = (0,),
    base_config: Optional[TrialConfig] = None,
) -> List[Tuple[FaultSite, TrialConfig]]:
    """Enumerate the §VIII-A experiment grid in its canonical order.

    The grid order — sites, then workloads, modes, preemption, seeds —
    *is* the result order of :func:`run_campaign`, serial or parallel.
    """
    base = base_config if base_config is not None else TrialConfig()
    grid: List[Tuple[FaultSite, TrialConfig]] = []
    for site in sites:
        for workload in workloads:
            for mode in modes:
                for preemptible in preempt_options:
                    for seed in seeds:
                        grid.append(
                            (
                                site,
                                TrialConfig(
                                    workload=workload,
                                    preemptible=preemptible,
                                    mode=mode,
                                    seed=seed,
                                    warmup_ns=base.warmup_ns,
                                    detect_window_ns=base.detect_window_ns,
                                    classify_window_ns=base.classify_window_ns,
                                    goshd_threshold_ns=base.goshd_threshold_ns,
                                ),
                            )
                        )
    return grid


def _trial_task(task: Tuple[FaultSite, TrialConfig]) -> TrialResult:
    """Picklable per-trial entry point for the parallel executor."""
    site, config = task
    return run_trial(site, config)


def run_campaign(
    sites: Sequence[FaultSite],
    workloads: Iterable[str] = ("hanoi", "make-j1", "make-j2", "http"),
    modes: Iterable[InjectionMode] = (
        InjectionMode.TRANSIENT,
        InjectionMode.PERSISTENT,
    ),
    preempt_options: Iterable[bool] = (False, True),
    seeds: Iterable[int] = (0,),
    base_config: Optional[TrialConfig] = None,
    progress=None,
    jobs: Optional[int] = None,
) -> CampaignSummary:
    """The full experiment grid of §VIII-A.

    Every trial is a pure function of its ``(site, config)`` pair — the
    trial seed travels inside the config and each trial boots its own
    testbed — so the grid fans across ``jobs`` worker processes
    (``REPRO_JOBS`` when ``None``) and merges back **in grid order**:
    the summary is byte-identical to a serial run at any job count.
    """
    from repro.parallel import parallel_map

    grid = iter_trial_grid(
        sites,
        workloads=workloads,
        modes=modes,
        preempt_options=preempt_options,
        seeds=seeds,
        base_config=base_config,
    )
    summary = CampaignSummary()
    for result in parallel_map(_trial_task, grid, jobs=jobs, progress=progress):
        summary.add(result)
    return summary
