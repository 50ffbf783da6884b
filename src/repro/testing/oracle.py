"""The differential oracle: ground truth the auditors never compute.

Conformance needs two independent answers to "what should have been
detected?".  The auditors give one — by consuming the delivered event
stream through their own windows, thresholds and check periods.  The
oracle gives the other — by reading the *trace itself* (timestamps,
deriver annotations, scan markers: data recorded by the simulator, not
by any auditor) and applying the paper's detection claims directly:

* **GOSHD** (§VII-A): a vCPU whose thread-switch timestamps leave a
  silent gap longer than the detection threshold is hung.  The oracle
  sorts per-vCPU timestamps — ground truth is a property of guest time,
  not of delivery order — and brackets the claim with the check period:
  gaps beyond ``threshold + 2*check_period`` *must* be detected, gaps
  under ``threshold`` must not, and the band between is ambiguous
  (detection legitimately depends on check phase) and never flagged.
* **HRKD** (§VII-B): a pid that *ever executed* before a scan (it has
  an annotated thread-switch sighting) and is absent from the scan's
  untrusted view is hidden.  Deliberately no freshness window: HRKD's
  10 s sighting window is an implementation trade-off an adversary can
  evade by delaying the scan (Heckler-style), and exactly that evasion
  is what the differential should surface.  Comparison is pid-level —
  HRKD's count-based path can raise an alert without naming the pid,
  which still counts as a miss of that pid.
* **HT-Ninja** (§VII-C): walking events in timestamp order, a process
  whose annotation says unauthorized root (the shared
  :class:`~repro.auditors.ninja_rules.NinjaPolicy`) at its thread's
  first switch or at an IO syscall must be flagged.

The trust direction matters: the oracle is allowed to read everything
(it lives outside the monitoring stack), while the auditors are
statically confined by the ``trust-boundary`` rule to hardware-derived
inputs.  Agreement between two computations with disjoint failure
modes is the evidence; see DESIGN.md for the full argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.auditors.goshd import DEFAULT_CHECK_PERIOD_NS, DEFAULT_THRESHOLD_NS
from repro.auditors.ninja_rules import NinjaPolicy, ProcessFacts

# The kernel ABI spec for IO syscall numbers, same sanctioned source
# HT-Ninja itself uses.
from repro.core.derive import PF_KTHREAD
from repro.guest.syscalls import IO_SYSCALLS, SYSCALL_NUMBERS
from repro.replay.format import KIND_EVENT, KIND_SCAN, Trace, decode_scan
from repro.replay.source import HORIZON_SLACK_NS
from repro.errors import TraceFormatError

_IO_SYSCALL_NUMBERS = frozenset(SYSCALL_NUMBERS[name] for name in IO_SYSCALLS)

_THREAD_SWITCH = "thread_switch"
_SYSCALL = "syscall"


def _horizon_ns(trace: Trace) -> Optional[int]:
    """The same acceptance horizon replay enforces.

    Ground truth must be computed over the records the auditors could
    have seen: a record replay rejects as malformed (timestamp beyond
    ``end_ns`` plus slack) must not count as an expected detection, or
    every ``corrupt``-timestamp mutation would read as an auditor miss.
    """
    end_ns = trace.header.end_ns
    if end_ns is None:
        return None
    return end_ns + HORIZON_SLACK_NS


def _within_horizon(t: Any, horizon: Optional[int]) -> bool:
    return isinstance(t, int) and (horizon is None or t <= horizon)


# ======================================================================
# Findings
# ======================================================================
@dataclass
class Discrepancy:
    """One disagreement between oracle expectation and auditor output."""

    #: ``miss`` — oracle expects a detection the auditor never raised;
    #: ``false_alarm`` — the auditor named a subject the oracle rules out;
    #: ``crash`` — the auditing container failed outright.
    kind: str
    auditor: str
    #: What the disagreement is about (``{"vcpu": 1}``, ``{"pid": 77}``).
    subject: Dict[str, Any] = field(default_factory=dict)
    detail: str = ""

    def key(self) -> str:
        return finding_key(self.kind, self.auditor, self.subject)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "auditor": self.auditor,
            "subject": dict(self.subject),
            "detail": self.detail,
            "key": self.key(),
        }


def finding_key(kind: str, auditor: str, subject: Dict[str, Any]) -> str:
    """Stable identity of a finding across runs/mutations/shrinking."""
    parts = ",".join(f"{k}={subject[k]}" for k in sorted(subject))
    return f"{kind}:{auditor}:{parts}"


# ======================================================================
# Per-auditor ground truth
# ======================================================================
def _annotated_pid(record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    task = record.get("task")
    if not isinstance(task, dict):
        return None
    pid = task.get("pid")
    if not isinstance(pid, int):
        return None
    return task


@dataclass
class GoshdOracle:
    """Per-vCPU silent-gap ground truth from sorted timestamps."""

    threshold_ns: int = DEFAULT_THRESHOLD_NS
    check_period_ns: int = DEFAULT_CHECK_PERIOD_NS

    auditor = "goshd"

    def expected_hangs(self, trace: Trace) -> Tuple[Set[int], Set[int]]:
        """(certainly hung vCPUs, ambiguous vCPUs)."""
        switches: Dict[int, List[int]] = {
            i: [] for i in range(trace.header.num_vcpus)
        }
        horizon = _horizon_ns(trace)
        for record in trace.records:
            if not isinstance(record, dict):
                continue
            if record.get("kind", KIND_EVENT) != KIND_EVENT:
                continue
            if record.get("type") != _THREAD_SWITCH:
                continue
            t, vcpu = record.get("t"), record.get("vcpu")
            if (
                _within_horizon(t, horizon)
                and isinstance(vcpu, int)
                and vcpu in switches
            ):
                switches[vcpu].append(t)
        start = trace.header.start_ns
        end = trace.header.end_ns if trace.header.end_ns is not None else start
        certain: Set[int] = set()
        ambiguous: Set[int] = set()
        # A check is guaranteed to land inside a gap that exceeds the
        # threshold by two full check periods; inside one period the
        # verdict depends on check phase.
        certain_bar = self.threshold_ns + 2 * self.check_period_ns
        for vcpu, times in switches.items():
            times.sort()
            gap = 0
            prev = start
            for t in times:
                gap = max(gap, t - prev)
                prev = max(prev, t)
            gap = max(gap, end - prev)
            if gap > certain_bar:
                certain.add(vcpu)
            elif gap > self.threshold_ns:
                ambiguous.add(vcpu)
        return certain, ambiguous

    def check(
        self, trace: Trace, alerts: List[dict]
    ) -> List[Discrepancy]:
        certain, ambiguous = self.expected_hangs(trace)
        flagged = {
            a.get("vcpu")
            for a in alerts
            if a.get("kind") == "vcpu_hang"
        }
        out = []
        for vcpu in sorted(certain - flagged):
            out.append(Discrepancy(
                "miss", self.auditor, {"vcpu": vcpu},
                "silent gap exceeds threshold + 2 check periods, "
                "no vcpu_hang raised",
            ))
        for vcpu in sorted(flagged - certain - ambiguous):
            out.append(Discrepancy(
                "false_alarm", self.auditor, {"vcpu": vcpu},
                "vcpu_hang raised but no timestamp gap exceeds the "
                "threshold",
            ))
        return out


@dataclass
class HrkdOracle:
    """Hidden-pid ground truth from sightings vs scan markers."""

    auditor = "hrkd"

    def expected_hidden(self, trace: Trace) -> Set[int]:
        """Pids sighted executing before a scan that omits them."""
        sightings: List[Tuple[int, int, bool]] = []  # (t, pid, kthread)
        scans: List[Dict[str, Any]] = []
        horizon = _horizon_ns(trace)
        for record in trace.records:
            if not isinstance(record, dict):
                continue
            kind = record.get("kind", KIND_EVENT)
            if kind == KIND_SCAN:
                try:
                    scans.append(decode_scan(record))
                except TraceFormatError:
                    continue
            elif kind == KIND_EVENT and record.get("type") == _THREAD_SWITCH:
                task = _annotated_pid(record)
                t = record.get("t")
                if task is not None and _within_horizon(t, horizon):
                    flags = task.get("flags", 0)
                    kthread = isinstance(flags, int) and bool(
                        flags & PF_KTHREAD
                    )
                    sightings.append((t, task["pid"], kthread))
        expected: Set[int] = set()
        for scan in scans:
            untrusted = set(scan["untrusted_pids"])
            for t, pid, kthread in sightings:
                if t <= scan["t"] and pid != 0 and not kthread:
                    if pid not in untrusted:
                        expected.add(pid)
        return expected

    def check(
        self, trace: Trace, alerts: List[dict]
    ) -> List[Discrepancy]:
        expected = self.expected_hidden(trace)
        named: Set[int] = set()
        for alert in alerts:
            if alert.get("kind") != "hidden_tasks":
                continue
            for pid in alert.get("hidden_pids") or ():
                if isinstance(pid, int):
                    named.add(pid)
        out = []
        for pid in sorted(expected - named):
            out.append(Discrepancy(
                "miss", self.auditor, {"pid": pid},
                "pid executed before a scan that omits it, but no "
                "hidden_tasks alert names it",
            ))
        # Pid-level false alarms only: the count-based detection path
        # (trusted_count > untrusted_count) legitimately fires without
        # naming pids and is not modelled here.
        for pid in sorted(named - expected):
            out.append(Discrepancy(
                "false_alarm", self.auditor, {"pid": pid},
                "hidden_tasks names a pid with no pre-scan sighting "
                "absent from the untrusted view",
            ))
        return out


@dataclass
class NinjaOracle:
    """Unauthorized-root ground truth from event annotations."""

    policy: NinjaPolicy = field(default_factory=NinjaPolicy)

    auditor = "ht-ninja"

    def _facts(self, task: Dict[str, Any], parent: Any) -> Optional[ProcessFacts]:
        try:
            parent = parent if isinstance(parent, dict) else {}
            return ProcessFacts(
                pid=int(task["pid"]),
                uid=int(task.get("uid", 0)),
                euid=int(task.get("euid", 0)),
                exe=str(task.get("exe", "")),
                comm=str(task.get("comm", "")),
                is_kthread=bool(int(task.get("flags", 0)) & PF_KTHREAD),
                parent_pid=int(parent.get("pid", 0)),
                parent_uid=int(parent.get("uid", 0)),
                parent_euid=int(parent.get("euid", 0)),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def expected_escalations(self, trace: Trace) -> Set[int]:
        horizon = _horizon_ns(trace)
        records = [
            r
            for r in trace.records
            if isinstance(r, dict)
            and r.get("kind", KIND_EVENT) == KIND_EVENT
            and _within_horizon(r.get("t"), horizon)
        ]
        records.sort(key=lambda r: r["t"])
        seen_threads: Set[int] = set()
        expected: Set[int] = set()
        for record in records:
            rtype = record.get("type")
            checkpoint = False
            if rtype == _THREAD_SWITCH:
                rsp0 = record.get("rsp0")
                if isinstance(rsp0, int) and rsp0 not in seen_threads:
                    seen_threads.add(rsp0)
                    checkpoint = True
            elif rtype == _SYSCALL:
                checkpoint = record.get("nr") in _IO_SYSCALL_NUMBERS
            if not checkpoint:
                continue
            task = _annotated_pid(record)
            if task is None:
                continue
            facts = self._facts(task, record.get("parent"))
            if facts is not None and self.policy.is_unauthorized_root(facts):
                expected.add(facts.pid)
        return expected

    def check(
        self, trace: Trace, alerts: List[dict]
    ) -> List[Discrepancy]:
        expected = self.expected_escalations(trace)
        flagged = {
            a.get("pid")
            for a in alerts
            if a.get("kind") == "privilege_escalation"
        }
        out = []
        for pid in sorted(expected - flagged):
            out.append(Discrepancy(
                "miss", self.auditor, {"pid": pid},
                "unauthorized-root checkpoint in the trace, no "
                "privilege_escalation alert for the pid",
            ))
        for pid in sorted(p for p in flagged - expected if isinstance(p, int)):
            out.append(Discrepancy(
                "false_alarm", self.auditor, {"pid": pid},
                "privilege_escalation raised for a pid with no "
                "unauthorized-root checkpoint in the trace",
            ))
        return out


# ======================================================================
# The differential check
# ======================================================================
class DifferentialOracle:
    """Compares per-auditor ground truth against a replay's alerts."""

    def __init__(self) -> None:
        self._oracles = {
            "goshd": GoshdOracle(),
            "hrkd": HrkdOracle(),
            "ht-ninja": NinjaOracle(),
        }

    def check(self, trace: Trace, report) -> List[Discrepancy]:
        """All discrepancies between ``trace`` ground truth and a
        :class:`~repro.replay.source.ReplayReport`."""
        out: List[Discrepancy] = []
        if report.container_failed:
            out.append(Discrepancy(
                "crash", "container", {},
                report.failure_reason or "auditing container failed",
            ))
        for name, alerts in sorted(report.alerts.items()):
            oracle = self._oracles.get(name)
            if oracle is not None:
                out.extend(oracle.check(trace, alerts))
        return out
