"""The one implementation of each paper result.

Every runner returns a result object: the figures its shape checks
(``tests/test_paper_results.py``) read, plus ``render()``, the text
``python -m repro.experiments <name>`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.figures import ascii_cdf
from repro.analysis.tables import format_table
from repro.attacks.exploits import ExploitPlan
from repro.attacks.rootkits import ROOTKIT_ZOO, build_rootkit
from repro.attacks.sidechannel import IntervalEstimate, ProcSideChannel
from repro.attacks.strategies import RootkitCombinedAttack, SpammingAttack
from repro.auditors.goshd import GuestOSHangDetector, profile_hang_threshold
from repro.auditors.h_ninja import HNinja
from repro.auditors.hrkd import HiddenRootkitDetector
from repro.auditors.ht_ninja import HTNinja
from repro.auditors.o_ninja import ONinja
from repro.auditors.vigilant import VigilantDetector
from repro.faults.campaign import CampaignSummary, Outcome, TrialConfig, run_campaign
from repro.faults.injector import FaultInjector, InjectionMode
from repro.faults.sites import FaultClass, build_site_catalog
from repro.harness import Testbed, TestbedConfig
from repro.parallel import parallel_map
from repro.sim.clock import MILLISECOND, SECOND
from repro.sim.rng import RandomStreams
from repro.vmi.introspection import KernelSymbolMap, OsInvariantView
from repro.workloads.common import start_workload
from repro.workloads.unixbench import MICROBENCHES, run_microbench


def _scaled(n: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(n * scale)))


def _hang_site(function: str):
    """The first-pass missing-release fault site in ``function``."""
    return next(
        s
        for s in build_site_catalog()
        if s.function == function
        and s.fault_class is FaultClass.MISSING_RELEASE
        and s.activation_pass == 1
    )


def _latency_s(alert_ns: Optional[int], start_ns: Optional[int]) -> Optional[float]:
    if alert_ns is None or start_ns is None:
        return None
    return (alert_ns - start_ns) / SECOND


# Experiment grids fan out through repro.parallel: every cell below is
# a pure function of its argument tuple (each boots a private testbed,
# all seeds travel in the tuple), and results merge by grid index — so
# REPRO_JOBS changes wall time, never a table.


# ======================================================================
# Fig 4 + Fig 5 — fault-injection campaign
# ======================================================================
@dataclass
class Fig4Result:
    summary: CampaignSummary

    def render(self) -> str:
        summary = self.summary
        rows = []
        for workload in ("hanoi", "make-j1", "make-j2", "http"):
            for mode in (InjectionMode.TRANSIENT, InjectionMode.PERSISTENT):
                for preemptible in (False, True):
                    counts = summary.outcome_counts(
                        workload=workload, mode=mode, preemptible=preemptible
                    )
                    if sum(counts.values()) == 0:
                        continue
                    rows.append(
                        [
                            workload,
                            mode.value,
                            "preempt" if preemptible else "no-preempt",
                            counts[Outcome.NOT_ACTIVATED],
                            counts[Outcome.NOT_MANIFESTED],
                            counts[Outcome.PARTIAL_HANG],
                            counts[Outcome.FULL_HANG],
                            counts[Outcome.NOT_DETECTED],
                        ]
                    )
        fig4 = format_table(
            ["workload", "fault", "kernel", "not-act", "not-manif", "PARTIAL",
             "FULL", "not-det"],
            rows,
            title=f"Fig 4 — GOSHD coverage ({len(summary.results)} injections)",
        )
        fig4 += (
            f"\ncoverage={summary.coverage() * 100:.2f}% (paper 99.8%)  "
            f"manifestation={summary.manifestation_rate() * 100:.1f}% (paper ~82%)"
            f"\npartial: no-preempt {summary.partial_hang_fraction(False) * 100:.1f}%"
            f" / preempt {summary.partial_hang_fraction(True) * 100:.1f}%"
            " (paper 18% / 26%)"
        )
        first = summary.detection_latencies_s()
        full_lat = summary.full_hang_latencies_s()
        fig5 = ascii_cdf(
            [("first hang detected", first or [float("inf")]),
             ("full hang reached", full_lat or [float("inf")])],
            points=[4, 6, 8, 12, 16, 24, 32],
            unit="s",
            title="\nFig 5 — detection latency CDF",
        )
        return fig4 + "\n" + fig5


def run_fig4_fig5(
    scale: float = 1.0, full: bool = False, seed: Optional[int] = None
) -> Fig4Result:
    catalog = build_site_catalog()
    if full:
        base = 0 if seed is None else seed
        sites, seeds = catalog, (base, base + 1, base + 2)
    else:
        first_pass = [s for s in catalog if s.activation_pass == 1]
        count = _scaled(8, scale)
        sites = first_pass[:: max(1, len(first_pass) // count)][:count]
        seeds = (0 if seed is None else seed,)
    return Fig4Result(run_campaign(
        sites,
        seeds=seeds,
        base_config=TrialConfig(
            warmup_ns=1 * SECOND,
            detect_window_ns=12 * SECOND,
            classify_window_ns=20 * SECOND,
        ),
    ))


# ======================================================================
# Table II — HRKD vs the rootkit zoo
# ======================================================================
class Table2Row(NamedTuple):
    name: str
    target_os: str
    techniques: str
    hidden: bool  # the victim vanished from the in-guest view
    detected: bool  # HRKD flagged the victim against that view
    fools_vmi: bool  # the victim is also missing from the OS-invariant view


@dataclass
class Table2Result:
    rows: List[Table2Row]

    def render(self) -> str:
        return format_table(
            ["rootkit", "target OS", "technique(s)", "hidden", "HRKD"],
            [
                [r.name, r.target_os, r.techniques,
                 "yes" if r.hidden else "NO",
                 "DETECTED" if r.detected else "MISSED"]
                for r in self.rows
            ],
            title="Table II — real-world rootkits evaluated with HRKD",
        )


def run_table2(
    scale: float = 1.0, full: bool = False, seed: Optional[int] = None
) -> Table2Result:
    testbed = Testbed(
        TestbedConfig(num_vcpus=2, seed=17 if seed is None else seed)
    )
    testbed.boot()
    hrkd = HiddenRootkitDetector()
    testbed.monitor([hrkd])
    hrkd.set_vmi_view(
        OsInvariantView(
            testbed.machine, KernelSymbolMap.from_kernel(testbed.kernel)
        )
    )

    def malware(ctx):
        while True:
            yield ctx.compute(300_000)
            yield ctx.sys_write(1, 16)

    victim = testbed.kernel.spawn_process(
        malware, "malware", uid=0, exe="/tmp/.hidden"
    )
    testbed.run_s(1.5)
    rows = []
    for spec in ROOTKIT_ZOO:
        rootkit = build_rootkit(spec.name, testbed.kernel)
        rootkit.hide_process(victim.pid)
        testbed.run_s(0.8)
        guest_view = testbed.kernel.guest_view_pids()
        report = hrkd.scan_against(guest_view, "guest-ps")
        rows.append(
            Table2Row(
                spec.name,
                spec.target_os,
                " + ".join(t.value for t in spec.techniques),
                victim.pid not in guest_view,
                report.rootkit_detected and victim.pid in report.hidden_pids,
                victim.pid in hrkd.scan_vmi().hidden_pids,
            )
        )
        rootkit.unhide_all()
        testbed.run_s(0.3)
    return Table2Result(rows)


# ======================================================================
# Table III — /proc side channel
# ======================================================================
@dataclass
class Table3Result:
    #: Ninja interval (s) -> the side channel's estimate of it.
    estimates: Dict[int, Optional[IntervalEstimate]]

    def render(self) -> str:
        return format_table(
            ["Ninja interval (s)", "predicted mean", "min", "max", "SD"],
            [
                [interval_s, f"{e.mean:.5f}", f"{e.minimum:.5f}",
                 f"{e.maximum:.5f}", f"{e.stdev:.5f}"]
                for interval_s, e in self.estimates.items()
            ],
            title="Table III — predicting Ninja's monitoring interval",
        )


def _table3_idle(ctx):
    while True:
        yield ctx.sys_nanosleep(400 * MILLISECOND)


def _table3_cell(args):
    interval_s, trial_seed, samples = args
    testbed = Testbed(TestbedConfig(num_vcpus=2, seed=trial_seed))
    testbed.boot()
    oninja = ONinja(testbed.kernel, interval_ns=interval_s * SECOND)
    oninja.install()
    for i in range(25):
        testbed.kernel.spawn_process(_table3_idle, f"svc{i}", uid=1000)
    testbed.run_s(0.5)
    channel = ProcSideChannel(
        testbed.kernel, oninja.pid, poll_period_ns=300_000
    )
    channel.launch()
    testbed.run_s((samples + 2) * (interval_s + 0.2))
    return channel.estimate(max_samples=samples)


def run_table3(
    scale: float = 1.0, full: bool = False, seed: Optional[int] = None
) -> Table3Result:
    samples = 30 if full else _scaled(8, scale)
    intervals = (1, 2, 4, 8)
    cells = [
        (interval_s, interval_s if seed is None else seed + interval_s, samples)
        for interval_s in intervals
    ]
    return Table3Result(dict(zip(intervals, parallel_map(_table3_cell, cells))))


# ======================================================================
# §VIII-C2 — the three Ninjas
# ======================================================================
class NinjaTrial(NamedTuple):
    o_ninja: bool
    h_ninja: bool
    ht_ninja: bool
    escalated: bool  # the attack reached root, so there was something to catch


class NinjaRates(NamedTuple):
    o_ninja: float
    h_ninja: float
    ht_ninja: float


def detection_rates(trials: Sequence[NinjaTrial]) -> NinjaRates:
    """Each Ninja's detection probability over ``trials``."""
    return NinjaRates(*(
        sum(bool(t[i]) for t in trials) / len(trials) for i in range(3)
    ))


@dataclass
class NinjaResult:
    trials: int
    #: idle processes spammed -> trials at a 50 ms H-Ninja interval.
    spam: Dict[int, List[NinjaTrial]]
    #: H-Ninja interval (ms) -> trials with 50 idle processes spammed.
    interval: Dict[int, List[NinjaTrial]]

    def render(self) -> str:
        spam_rows = []
        for spam, trials in self.spam.items():
            o, _h, ht = detection_rates(trials)
            spam_rows.append(
                [f"+{spam} idle procs", f"{o * 100:.1f}%", f"{ht * 100:.1f}%"]
            )
        interval_rows = []
        for interval_ms, trials in self.interval.items():
            _o, h, ht = detection_rates(trials)
            interval_rows.append(
                [f"{interval_ms} ms", f"{h * 100:.1f}%", f"{ht * 100:.1f}%"]
            )
        out = format_table(
            ["spamming level", "O-Ninja (0s)", "HT-Ninja"],
            spam_rows,
            title=f"§VIII-C2 — O-Ninja under spamming ({self.trials} trials/point)",
        )
        out += "\n\n" + format_table(
            ["H-Ninja interval", "H-Ninja", "HT-Ninja"],
            interval_rows,
            title=f"§VIII-C2 — H-Ninja interval race ({self.trials} trials/point)",
        )
        return out


def _ninja_trial(seed, spam, o_interval_ns, h_interval_ns, jitter_ns):
    testbed = Testbed(TestbedConfig(num_vcpus=2, seed=seed))
    testbed.boot()

    def idle(ctx):
        while True:
            yield ctx.sys_nanosleep(500_000_000)

    for i in range(23):
        testbed.kernel.spawn_process(idle, f"svc{i}", uid=100 + i)
    ht_ninja = HTNinja()
    testbed.monitor([ht_ninja])
    o_ninja = ONinja(testbed.kernel, interval_ns=o_interval_ns)
    o_ninja.install()
    h_ninja = HNinja(
        testbed.machine,
        KernelSymbolMap.from_kernel(testbed.kernel),
        interval_ns=h_interval_ns,
    )
    h_ninja.start()
    attack = SpammingAttack(
        testbed.kernel,
        idle_processes=spam,
        inner=RootkitCombinedAttack(
            testbed.kernel,
            plan=ExploitPlan(
                pre_escalation_ns=200_000,
                post_escalation_ns=3_000_000,
                io_actions=2,
                exit_after=True,
            ),
            install_delay_ns=3_200_000,
        ),
    )
    attack.spam()
    testbed.run_s(0.15)
    testbed.engine.run_for(jitter_ns)
    attack.launch()
    testbed.run_s(0.12)
    return NinjaTrial(
        o_ninja.detected, h_ninja.detected, ht_ninja.detected,
        attack.result.escalated,
    )


def _ninja_cell(args):
    return _ninja_trial(*args)


def run_ninja_curves(
    scale: float = 1.0, full: bool = False, seed: Optional[int] = None
) -> NinjaResult:
    trials = 300 if full else _scaled(12, scale)
    rng = RandomStreams(1234 if seed is None else seed)

    # Every (point, trial) cell of both curves, jitters drawn up front
    # in trial order from the same named streams the serial loop used —
    # the flat task list then fans out without touching any RNG.
    spams = (0, 100, 200)
    intervals_ms = (4, 8, 20, 40)
    points = [(spam, 50 * MILLISECOND) for spam in spams]
    points += [(50, interval_ms * MILLISECOND) for interval_ms in intervals_ms]
    tasks = []
    for spam, h_interval_ns in points:
        jitter_stream = rng.stream(f"j-{spam}-{h_interval_ns}")
        for trial in range(trials):
            jitter = int(
                jitter_stream.uniform(0, max(h_interval_ns, 20 * MILLISECOND))
            )
            tasks.append((trial, spam, 0, h_interval_ns, jitter))
    results = parallel_map(_ninja_cell, tasks)
    curves = [
        results[i * trials : (i + 1) * trials] for i in range(len(points))
    ]
    return NinjaResult(
        trials,
        dict(zip(spams, curves[: len(spams)])),
        dict(zip(intervals_ms, curves[len(spams) :])),
    )


# ======================================================================
# Fig 7 — overhead grid
# ======================================================================
#: Fig 7 monitoring configurations: name -> auditor classes.
_FIG7_CONFIGS = (
    ("baseline", ()),
    ("GOSHD", (GuestOSHangDetector,)),
    ("HRKD", (HiddenRootkitDetector,)),
    ("HT-Ninja", (HTNinja,)),
    ("all", (GuestOSHangDetector, HiddenRootkitDetector, HTNinja)),
)


@dataclass
class Fig7Result:
    workloads: List[str]
    #: (configuration, workload) -> simulated ns the workload took.
    grid: Dict[Tuple[str, str], int]

    def overhead(self, config: str, workload: str) -> float:
        """Percent slowdown of ``workload`` under ``config``."""
        base = self.grid[("baseline", workload)]
        return (self.grid[(config, workload)] - base) / base * 100

    def render(self) -> str:
        rows = []
        for workload in self.workloads:
            row = [workload, f"{self.grid[('baseline', workload)] / 1e6:9.2f}"]
            for config_name, _classes in _FIG7_CONFIGS[1:]:
                row.append(f"{self.overhead(config_name, workload):6.1f}%")
            rows.append(row)
        return format_table(
            ["workload", "baseline(ms)", "GOSHD", "HRKD", "HT-Ninja", "ALL"],
            rows,
            title="Fig 7 — monitoring overhead",
        )


def _fig7_cell(args):
    classes, workload, trial_seed = args
    testbed = Testbed(TestbedConfig(num_vcpus=2, seed=trial_seed))
    testbed.boot()
    if classes:
        testbed.monitor([cls() for cls in classes])
    return run_microbench(testbed, workload)


def run_fig7(
    scale: float = 1.0, full: bool = False, seed: Optional[int] = None
) -> Fig7Result:
    workloads = [
        "file-copy-1024", "disk-io", "dhrystone", "context-switch",
        "pipe-throughput", "syscall",
    ]
    if full:
        workloads = list(MICROBENCHES)
    trial_seed = 42 if seed is None else seed
    keys = [
        (config_name, workload)
        for config_name, _classes in _FIG7_CONFIGS
        for workload in workloads
    ]
    cells = [
        (classes, workload, trial_seed)
        for _config_name, classes in _FIG7_CONFIGS
        for workload in workloads
    ]
    return Fig7Result(workloads, dict(zip(keys, parallel_map(_fig7_cell, cells))))


# ======================================================================
# §IV-A ablation — unified logging vs per-monitor pipelines
# ======================================================================
_ABLATION_MODES = ("baseline", "unified", "separate")


@dataclass
class AblationResult:
    #: workload -> mode (``_ABLATION_MODES``) -> simulated ns it took.
    timings: Dict[str, Dict[str, int]]

    def overhead(self, workload: str, mode: str) -> float:
        """Percent slowdown of ``workload`` with three monitors in ``mode``."""
        base = self.timings[workload]["baseline"]
        return (self.timings[workload][mode] - base) / base * 100

    def render(self) -> str:
        return format_table(
            ["workload", "unified overhead", "separate overhead"],
            [
                [workload,
                 f"{self.overhead(workload, 'unified'):6.1f}%",
                 f"{self.overhead(workload, 'separate'):6.1f}%"]
                for workload in self.timings
            ],
            title="Ablation — unified logging vs per-monitor pipelines",
        )


def _ablation_cell(args):
    mode, workload, trial_seed = args
    testbed = Testbed(
        TestbedConfig(
            num_vcpus=2, seed=trial_seed,
            monitoring_mode="unified" if mode == "baseline" else mode,
        )
    )
    testbed.boot()
    if mode != "baseline":
        testbed.monitor(
            [GuestOSHangDetector(), HiddenRootkitDetector(), HTNinja()]
        )
    return run_microbench(testbed, workload)


def run_unified_ablation(
    scale: float = 1.0, full: bool = False, seed: Optional[int] = None
) -> AblationResult:
    workloads = ("context-switch", "syscall", "pipe-throughput")
    trial_seed = 42 if seed is None else seed
    cells = [
        (mode, workload, trial_seed)
        for workload in workloads
        for mode in _ABLATION_MODES
    ]
    timings = iter(parallel_map(_ablation_cell, cells))
    return AblationResult({
        workload: {mode: next(timings) for mode in _ABLATION_MODES}
        for workload in workloads
    })


# ======================================================================
# §VII-D ablation — invariant-based GOSHD vs a learned detector
# ======================================================================
#: Functions whose first-pass missing-release fault hangs the guest.
_HANG_FUNCTIONS = ("tty_write", "ext3_get_block", "hrtimer_start")


class HangTrial(NamedTuple):
    function: str
    trained: bool  # Vigilant finished training before the fault
    goshd_latency_s: Optional[float]  # from fault activation; None = missed
    vigilant_latency_s: Optional[float]


class StormTrial(NamedTuple):
    trained: bool
    goshd_detected: bool
    vigilant_detected: bool


@dataclass
class DetectorsResult:
    hangs: List[HangTrial]
    #: A syscall storm: an anomaly that is not a hang.
    storm: StormTrial

    def render(self) -> str:
        def latency(value):
            return "missed" if value is None else f"{value:.1f}s"

        rows = [
            [f"hang via {t.function}", latency(t.goshd_latency_s),
             latency(t.vigilant_latency_s)]
            for t in self.hangs
        ]
        rows.append(
            [
                "syscall storm (not a hang)",
                "ALERT" if self.storm.goshd_detected else "no alert (correct)",
                "DETECTED" if self.storm.vigilant_detected else "missed",
            ]
        )
        return (
            format_table(
                ["failure", "GOSHD", "Vigilant-style (learned)"],
                rows,
                title="Ablation — invariant-based vs learned detection "
                "(shared logging channel)",
            )
            + "\n\n(the learned detector needs training and confirmation "
            "windows; the invariant detector is deterministic but only "
            "covers its failure model)"
        )


def _detectors_cell(args):
    """One guest watched by both detector families: a persistent hang
    in ``function``, or a syscall storm when ``function`` is None."""
    function, trial_seed = args
    testbed = Testbed(TestbedConfig(num_vcpus=2, seed=trial_seed))
    testbed.boot()
    goshd = GuestOSHangDetector()
    vigilant = VigilantDetector(
        window_ns=1 * SECOND, training_windows=6, alarm_after=2
    )
    testbed.monitor([goshd, vigilant])
    if function is None:
        testbed.run_s(7.0)  # training
        trained = vigilant.trained

        def storm(ctx):
            while True:
                yield ctx.sys_getpid()

        testbed.kernel.spawn_process(storm, "storm", uid=1000)
        testbed.run_s(6.0)
        return StormTrial(trained, goshd.hang_detected, bool(vigilant.anomalies))
    start_workload(testbed.kernel, "make-j2")
    testbed.run_s(7.0)  # training
    trained = vigilant.trained
    injector = FaultInjector(_hang_site(function), InjectionMode.PERSISTENT)
    injector.attach(testbed.kernel)
    injector.arm()
    testbed.run_s(20.0)
    activated = injector.first_activation_ns
    return HangTrial(
        function,
        trained,
        _latency_s(goshd.first_hang_time_ns, activated),
        _latency_s(
            vigilant.anomalies[0]["time_ns"] if vigilant.anomalies else None,
            activated,
        ),
    )


def run_detectors(
    scale: float = 1.0, full: bool = False, seed: Optional[int] = None
) -> DetectorsResult:
    trial_seed = 29 if seed is None else seed
    *hangs, storm = parallel_map(
        _detectors_cell,
        [(function, trial_seed) for function in _HANG_FUNCTIONS + (None,)],
    )
    return DetectorsResult(hangs, storm)


# ======================================================================
# §VII-A2 ablation — GOSHD threshold selection
# ======================================================================
_THRESHOLDS_S = (0.25, 0.5, 1, 2, 4, 8)


class ThresholdRow(NamedTuple):
    false_alarms: int  # hang alerts over 30 s of healthy hanoi
    latency_s: float  # detection latency of an injected hang; inf = missed


@dataclass
class ThresholdResult:
    rows: Dict[float, ThresholdRow]
    #: The paper's procedure: twice the profiled maximum switch gap.
    profiled_ns: int

    def render(self) -> str:
        rows = []
        for threshold, row in self.rows.items():
            if row.false_alarms > 0:
                latency_text = "n/a (false alarms)"
            elif row.latency_s == float("inf"):
                latency_text = "missed"
            else:
                latency_text = f"{row.latency_s:.1f}s"
            rows.append([f"{threshold}s", row.false_alarms, latency_text])
        return (
            format_table(
                ["threshold", "false alarms (30s healthy)", "detection latency"],
                rows,
                title="Ablation — GOSHD threshold trade-off",
            )
            + f"\n\nprofiled max switch gap x2 = {self.profiled_ns / 1e9:.2f}s "
            "(the paper's procedure landed on 4s for its guest)"
        )


def _threshold_cell(args):
    """One hanoi guest (the longest switch-free stretches, so the worst
    case for false alarms): ``kind`` is ``"healthy"`` (false alarms),
    ``"hang"`` (detection latency) or ``"profile"`` (the threshold the
    paper's procedure derives)."""
    kind, threshold_s, trial_seed = args
    testbed = Testbed(TestbedConfig(num_vcpus=2, seed=trial_seed))
    testbed.boot()
    if kind == "profile":
        start_workload(testbed.kernel, "hanoi")
        return profile_hang_threshold(testbed, duration_s=8.0)
    goshd = GuestOSHangDetector(threshold_ns=int(threshold_s * SECOND))
    testbed.monitor([goshd])
    start_workload(testbed.kernel, "hanoi")
    if kind == "healthy":
        testbed.run_s(30.0)
        return len(goshd.hang_alerts())
    injector = FaultInjector(_hang_site("tty_write"), InjectionMode.PERSISTENT)
    injector.attach(testbed.kernel)
    testbed.run_s(1.0)
    injector.arm()
    testbed.run_s(threshold_s * 3 + 10)
    latency = _latency_s(goshd.first_hang_time_ns, injector.first_activation_ns)
    return float("inf") if latency is None else latency


def run_threshold(
    scale: float = 1.0, full: bool = False, seed: Optional[int] = None
) -> ThresholdResult:
    trial_seed = 23 if seed is None else seed
    cells = [
        (kind, threshold_s, trial_seed)
        for threshold_s in _THRESHOLDS_S
        for kind in ("healthy", "hang")
    ]
    *sweep, profiled_ns = parallel_map(
        _threshold_cell, cells + [("profile", None, trial_seed)]
    )
    return ThresholdResult(
        {
            threshold_s: ThresholdRow(*sweep[2 * i : 2 * i + 2])
            for i, threshold_s in enumerate(_THRESHOLDS_S)
        },
        profiled_ns,
    )


# ======================================================================
# §V-C — Remote Health Checker
# ======================================================================
class RhcRow(NamedTuple):
    sample_every: int  # the EM forwards one event in this many to the RHC
    false_alarm: bool  # the RHC alarmed during 5 s of a healthy pipeline
    heartbeats: int  # heartbeats the RHC received in those 5 s
    alarm_latency_s: float  # from the pipeline's death; inf = never


@dataclass
class RhcResult:
    rows: List[RhcRow]

    def render(self) -> str:
        return format_table(
            ["EM sampling", "false alarm", "alarm latency"],
            [
                [f"1/{r.sample_every}", "YES" if r.false_alarm else "no",
                 f"{r.alarm_latency_s:.1f}s"]
                for r in self.rows
            ],
            title="RHC liveness detection",
        )


def run_rhc(
    scale: float = 1.0, full: bool = False, seed: Optional[int] = None
) -> RhcResult:
    rows = []
    for sample_every in (16, 64, 256):
        testbed = Testbed(
            TestbedConfig(
                num_vcpus=2, seed=5 if seed is None else seed,
                with_rhc=True, rhc_timeout_s=3,
            )
        )
        testbed.boot()
        testbed.multiplexer.rhc_sample_every = sample_every
        testbed.monitor([GuestOSHangDetector()])
        start_workload(testbed.kernel, "make-j2")
        testbed.run_s(5.0)
        false_alarm = testbed.rhc.alarmed
        heartbeats = testbed.rhc.heartbeats
        kill_time = testbed.engine.clock.now
        testbed.kvm.detach_forwarder()
        while not testbed.rhc.alarmed and testbed.now_s < 60:
            testbed.run_ms(100)
        latency = (
            (testbed.rhc.alerts[-1] - kill_time) / SECOND
            if testbed.rhc.alerts
            else float("inf")
        )
        rows.append(RhcRow(sample_every, false_alarm, heartbeats, latency))
    return RhcResult(rows)


#: name -> (runner, description)
EXPERIMENTS: Dict[str, tuple] = {
    "fig4": (run_fig4_fig5, "GOSHD coverage + latency (Figs 4 and 5)"),
    "fig5": (run_fig4_fig5, "alias of fig4 (same campaign)"),
    "table2": (run_table2, "HRKD vs the Table II rootkit zoo"),
    "table3": (run_table3, "/proc side channel on Ninja's interval"),
    "ninjas": (run_ninja_curves, "O/H/HT-Ninja detection probabilities"),
    "fig7": (run_fig7, "monitoring overhead grid"),
    "ablation": (run_unified_ablation, "unified vs separate logging"),
    "detectors": (run_detectors, "GOSHD vs a learned detector (§VII-D)"),
    "threshold": (run_threshold, "GOSHD threshold trade-off (§VII-A2)"),
    "rhc": (run_rhc, "Remote Health Checker liveness"),
}


def run_experiment(
    name: str,
    scale: float = 1.0,
    full: bool = False,
    seed: Optional[int] = None,
):
    """Run one experiment; the result's ``render()`` is its report."""
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    runner, _description = EXPERIMENTS[name]
    return runner(scale=scale, full=full, seed=seed)
