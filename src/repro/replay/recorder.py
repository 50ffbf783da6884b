"""Recording side: turn live simulations into replayable traces.

:class:`RecordingAuditor` is "just another auditor" (the Ether
argument): it subscribes to the derived-event stream and serializes
every event through the shared codec, annotating identity-bearing
events with the architectural deriver's record-time output so replay
can re-derive without guest memory.

The named scenarios below produce small, self-contained traces whose
live verdicts are embedded in the header — the ground truth replay and
the fuzzer measure against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.auditors.goshd import GuestOSHangDetector
from repro.auditors.hrkd import HiddenRootkitDetector
from repro.auditors.ht_ninja import HTNinja
from repro.core.auditor import Auditor
from repro.core.events import EventType, GuestEvent, SyscallEvent, ThreadSwitchEvent
from repro.errors import TraceFormatError
from repro.prof import perf_counter
from repro.replay.format import (
    FORMAT_VERSION,
    Trace,
    TraceHeader,
    event_to_record,
    normalize_alerts,
    scan_marker,
)

#: Event types recorded by default: every derived type.  RAW_EXIT is
#: opt-in — it duplicates the whole stream at exit granularity.
DEFAULT_RECORDED_TYPES = frozenset(
    {
        EventType.PROCESS_SWITCH,
        EventType.THREAD_SWITCH,
        EventType.SYSCALL,
        EventType.IO,
        EventType.MEM_ACCESS,
        EventType.TSS_INTEGRITY,
    }
)


class RecordingAuditor(Auditor):
    """Serializes the derived-event stream for later replay."""

    name = "replay-recorder"
    subscriptions = set(DEFAULT_RECORDED_TYPES)

    def __init__(
        self,
        event_types: Optional[Iterable[EventType]] = None,
        annotate: bool = True,
    ) -> None:
        super().__init__()
        if event_types is not None:
            self.subscriptions = set(event_types)
        #: Embed deriver annotations (needed for HRKD/HT-Ninja replay).
        self.annotate = annotate
        self.records: List[Dict[str, Any]] = []
        self.serialize_failures = 0

    # ------------------------------------------------------------------
    def audit(self, event: GuestEvent) -> None:
        task = parent = None
        if self.annotate and self.hypertap is not None:
            deriver = self.hypertap.deriver
            if isinstance(event, ThreadSwitchEvent):
                task = deriver.task_info_from_rsp0(event.rsp0)
            elif isinstance(event, SyscallEvent):
                task = deriver.current_task_info(event.vcpu_index)
            if task is not None and task.parent_gva:
                parent = deriver.task_info_at(task.parent_gva)
        try:
            self.records.append(event_to_record(event, task=task, parent=parent))
        except Exception:  # noqa: BLE001 - recording must never kill auditing
            self.serialize_failures += 1

    def add_scan_marker(
        self,
        auditor: Auditor,
        view: str,
        untrusted_pids: Iterable[int],
        untrusted_count: Optional[int] = None,
    ) -> None:
        """Checkpoint a live cross-validation so replay can re-run it."""
        now = self.hypertap.machine.clock.now if self.hypertap else 0
        self.records.append(
            scan_marker(now, auditor.name, view, list(untrusted_pids),
                        untrusted_count)
        )


# ======================================================================
# Scenarios
# ======================================================================
@dataclass
class Scenario:
    """A named, reproducible record target."""

    name: str
    description: str
    #: Fresh auditor instances — used by both ``record`` and ``replay``.
    build_auditors: Callable[[], List[Auditor]]
    #: Drives the live simulation; returns the testbed used.  The last
    #: argument is an optional seeded schedule perturbation
    #: (``repro.sim.perturb``) for adversarial-interleaving recording.
    run: Callable[..., Any]


def _build_testbed(seed: int, num_vcpus: int = 2, perturb=None):
    from repro.harness import Testbed, TestbedConfig

    testbed = Testbed(
        TestbedConfig(num_vcpus=num_vcpus, seed=seed, perturb=perturb)
    )
    testbed.boot()
    return testbed


def _run_baseline(recorder: RecordingAuditor, auditors, seed: int, perturb=None):
    """Failure-free make-j2 under the full auditor set: no verdicts."""
    from repro.workloads.common import start_workload

    testbed = _build_testbed(seed, perturb=perturb)
    testbed.monitor(auditors + [recorder])
    start_workload(testbed.kernel, "make-j2")
    testbed.run_s(1.5)
    return testbed


def _run_hang(recorder: RecordingAuditor, auditors, seed: int, perturb=None):
    """§VII-A: a missing spinlock release partially hangs the guest."""
    from repro.faults import (
        FaultClass,
        FaultInjector,
        InjectionMode,
        build_site_catalog,
    )
    from repro.workloads.hanoi import make_hanoi

    testbed = _build_testbed(seed, perturb=perturb)
    testbed.monitor(auditors + [recorder])
    testbed.kernel.spawn_process(
        make_hanoi(), "hanoi", uid=1000, exe="/home/user/hanoi", pin_cpu=1
    )
    site = next(
        s
        for s in build_site_catalog()
        if s.function == "tty_write"
        and s.fault_class is FaultClass.MISSING_RELEASE
        and s.activation_pass == 1
    )
    injector = FaultInjector(site, InjectionMode.TRANSIENT)
    injector.attach(testbed.kernel)
    testbed.run_s(1.0)
    injector.arm()
    testbed.run_s(8.0)
    return testbed


def _run_rootkit(recorder: RecordingAuditor, auditors, seed: int, perturb=None):
    """Table II: a DKOM rootkit hides a process; HRKD cross-validates."""
    from repro.attacks.rootkits import build_rootkit

    testbed = _build_testbed(seed, perturb=perturb)
    testbed.monitor(auditors + [recorder])
    hrkd = next(a for a in auditors if isinstance(a, HiddenRootkitDetector))

    def malware(ctx):
        while True:
            yield ctx.compute(300_000)
            yield ctx.sys_write(1, 16)

    victim = testbed.kernel.spawn_process(
        malware, "malware", uid=0, exe="/tmp/.hidden"
    )
    testbed.run_s(1.0)
    rootkit = build_rootkit("SucKIT", testbed.kernel)
    rootkit.hide_process(victim.pid)
    testbed.run_s(0.5)
    guest_view = testbed.kernel.guest_view_pids()
    recorder.add_scan_marker(hrkd, "guest-ps", guest_view)
    hrkd.scan_against(guest_view, "guest-ps")
    testbed.run_s(0.2)
    return testbed


def _run_exploit(recorder: RecordingAuditor, auditors, seed: int, perturb=None):
    """§VIII-C1: a transient privilege escalation caught by HT-Ninja."""
    from repro.attacks.exploits import ExploitPlan
    from repro.attacks.strategies import TransientAttack

    testbed = _build_testbed(seed, perturb=perturb)

    def idle(ctx):
        while True:
            yield ctx.sys_nanosleep(100_000_000)

    for i in range(5):
        testbed.kernel.spawn_process(idle, f"svc{i}", uid=100 + i)
    testbed.monitor(auditors + [recorder])
    testbed.run_s(0.2)
    attack = TransientAttack(
        testbed.kernel,
        plan=ExploitPlan(
            pre_escalation_ns=200_000,
            post_escalation_ns=2_000_000,
            io_actions=3,
            exit_after=True,
        ),
    )
    attack.launch()
    testbed.run_s(0.4)
    return testbed


SCENARIOS: Dict[str, Scenario] = {
    "baseline": Scenario(
        "baseline",
        "make-j2 under GOSHD+HRKD+HT-Ninja, failure-free (no verdicts)",
        lambda: [GuestOSHangDetector(), HiddenRootkitDetector(), HTNinja()],
        _run_baseline,
    ),
    "hang": Scenario(
        "hang",
        "missing spin_unlock in tty_write partially hangs the guest (GOSHD)",
        lambda: [GuestOSHangDetector()],
        _run_hang,
    ),
    "rootkit": Scenario(
        "rootkit",
        "SucKIT-style DKOM hiding caught by HRKD cross-validation",
        lambda: [HiddenRootkitDetector()],
        _run_rootkit,
    ),
    "exploit": Scenario(
        "exploit",
        "transient privilege escalation caught by HT-Ninja",
        lambda: [HTNinja()],
        _run_exploit,
    ),
}

#: Auditor name -> class, for traces whose scenario is unknown here.
_AUDITOR_CLASSES = {
    "goshd": GuestOSHangDetector,
    "hrkd": HiddenRootkitDetector,
    "ht-ninja": HTNinja,
}


def auditors_for(trace: Trace) -> List[Auditor]:
    """Fresh auditors matching what the trace was recorded under: the
    scenario's own set, else the names the header lists."""
    scenario = SCENARIOS.get(trace.header.scenario)
    if scenario is not None:
        return scenario.build_auditors()
    names = trace.header.meta.get("auditors") or []
    auditors = [
        _AUDITOR_CLASSES[name]() for name in names if name in _AUDITOR_CLASSES
    ]
    if not auditors:
        raise TraceFormatError(
            f"cannot infer auditors for scenario "
            f"{trace.header.scenario!r} (header lists {names!r})"
        )
    return auditors


@dataclass
class RecordedRun:
    """A recorded scenario: the trace plus live ground truth."""

    trace: Trace
    live_alerts: Dict[str, List[dict]] = field(default_factory=dict)
    live_verdicts: List[dict] = field(default_factory=list)
    live_wall_seconds: float = 0.0
    #: Snapshot of the live pipeline's :class:`MetricsRegistry`
    #: (``repro.obs``) — counters, histograms and flow spans as of the
    #: end of the run.
    metrics: Dict = field(default_factory=dict)

    @property
    def live_events_per_second(self) -> float:
        if self.live_wall_seconds <= 0:
            return 0.0
        return self.trace.header.total_events / self.live_wall_seconds


def record_scenario(name: str, seed: int = 0, perturb=None) -> RecordedRun:
    """Run a named scenario live and capture its replayable trace.

    ``perturb`` (a seeded :class:`repro.sim.perturb.SchedulePerturbation`)
    records the scenario under an adversarial schedule: jittered vCPU
    timeslices and shuffled same-instant event ordering.
    """
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    scenario = SCENARIOS[name]
    auditors = scenario.build_auditors()
    recorder = RecordingAuditor()
    wall_start = perf_counter()
    testbed = scenario.run(recorder, auditors, seed, perturb)
    wall_seconds = perf_counter() - wall_start

    alerts = {a.name: list(a.alerts) for a in auditors}
    verdicts = normalize_alerts(alerts)
    header = TraceHeader(
        version=FORMAT_VERSION,
        vm_id="vm0",
        seed=seed,
        num_vcpus=len(testbed.machine.vcpus),
        scenario=name,
        start_ns=0,
        end_ns=testbed.engine.clock.now,
        meta={
            "auditors": [a.name for a in auditors],
            "live_verdicts": verdicts,
            "live_wall_seconds": round(wall_seconds, 6),
            "serialize_failures": recorder.serialize_failures,
            "perturb_seed": perturb.seed if perturb is not None else None,
        },
    )
    trace = Trace(header=header, records=recorder.records)
    trace.recount()
    registry = getattr(testbed, "metrics", None)
    return RecordedRun(
        trace=trace,
        live_alerts=alerts,
        live_verdicts=verdicts,
        live_wall_seconds=wall_seconds,
        metrics=registry.snapshot() if registry is not None else {},
    )
