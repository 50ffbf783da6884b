"""Unit tests for the conformance harness (repro.testing).

Coverage map semantics, per-auditor differential oracles over
hand-built traces, seeded fuzzer determinism, ddmin shrinking, and the
CLI surface.  The oracles are exercised on synthetic records — ground
truth must be checkable by eye here, because everything else in the
harness trusts it.
"""

from __future__ import annotations

import json

import pytest

from repro.core.events import GuestEvent
from repro.replay.format import (
    Trace,
    TraceHeader,
    scan_marker,
)
from repro.sim.clock import MILLISECOND, SECOND
from repro.testing import __main__ as cli
from repro.testing.coverage import CoverageAuditor, CoverageMap, gap_bucket
from repro.testing.fuzzer import FuzzConfig, TraceTarget, fuzz
from repro.testing.oracle import (
    DifferentialOracle,
    Discrepancy,
    GoshdOracle,
    HrkdOracle,
    NinjaOracle,
    finding_key,
)
from repro.testing.seeds import base_trace, known_miss_trace
from repro.testing.shrink import FindingPredicate, ddmin, subtrace

THRESHOLD = GoshdOracle().threshold_ns
CERTAIN_BAR = THRESHOLD + 2 * GoshdOracle().check_period_ns


def switch(t, vcpu=0, rsp0=0x1000, task=None, parent=None):
    record = {
        "kind": "event",
        "type": "thread_switch",
        "t": t,
        "vcpu": vcpu,
        "vm": "vm0",
        "rsp0": rsp0,
    }
    if task is not None:
        record["task"] = task
    if parent is not None:
        record["parent"] = parent
    return record


def syscall(t, nr, task=None, parent=None):
    record = {
        "kind": "event",
        "type": "syscall",
        "t": t,
        "vcpu": 0,
        "vm": "vm0",
        "nr": nr,
        "args": [],
    }
    if task is not None:
        record["task"] = task
    if parent is not None:
        record["parent"] = parent
    return record


def task_ann(pid, euid=1000, uid=1000, flags=0, exe="/bin/cat"):
    return {
        "task_struct_gva": 0x8000 + pid,
        "pid": pid,
        "uid": uid,
        "euid": euid,
        "comm": "t",
        "exe": exe,
        "flags": flags,
        "parent_gva": 0,
    }


def make_trace(records, end_ns=30 * SECOND, num_vcpus=1):
    header = TraceHeader(num_vcpus=num_vcpus, end_ns=end_ns, scenario="unit")
    return Trace(header=header, records=list(records))


# ======================================================================
# Coverage
# ======================================================================
class TestCoverage:
    def test_gap_bucket_families(self):
        assert gap_bucket(-1) == -1
        assert gap_bucket(0) == 0
        assert gap_bucket(1) == 1
        assert gap_bucket(1024) == 11
        # Aeons collapse into one terminal bucket.
        assert gap_bucket(10**18) == gap_bucket(10**15)

    def test_map_add_merge_novelty(self):
        a = CoverageMap()
        assert a.add("type:io") is True
        assert a.add("type:io") is False
        b = CoverageMap(["type:io", "trans:io>io"])
        assert a.merge(b) == 1
        assert a.merge(b) == 0
        assert "trans:io>io" in a
        assert len(a) == 2

    def test_auditor_features_from_stream(self):
        probe = CoverageAuditor()
        for record in (switch(1 * SECOND), switch(2 * SECOND),
                       syscall(2 * SECOND, nr=0)):
            probe.audit(GuestEvent.from_record(record))
        features = probe.map.features
        assert "type:thread_switch" in features
        assert "trans:thread_switch>syscall" in features
        assert any(f.startswith("gap:v0:") for f in features)

    def test_absorb_alerts_skips_own(self):
        probe = CoverageAuditor()
        probe.absorb_alerts({
            "goshd": [{"kind": "vcpu_hang", "vcpu": 0}],
            probe.name: [{"kind": "self"}],
        })
        assert "alert:goshd:vcpu_hang" in probe.map
        assert f"alert:{probe.name}:self" not in probe.map


# ======================================================================
# Oracles
# ======================================================================
class TestGoshdOracle:
    def test_certain_gap_is_expected(self):
        trace = make_trace(
            [switch(1 * SECOND), switch(1 * SECOND + CERTAIN_BAR + SECOND)],
            end_ns=CERTAIN_BAR + 3 * SECOND,
        )
        certain, ambiguous = GoshdOracle().expected_hangs(trace)
        assert certain == {0}
        assert ambiguous == set()

    def test_band_between_threshold_and_bar_is_ambiguous(self):
        gap = (THRESHOLD + CERTAIN_BAR) // 2
        trace = make_trace(
            [switch(MILLISECOND), switch(MILLISECOND + gap)],
            end_ns=MILLISECOND + gap,
        )
        certain, ambiguous = GoshdOracle().expected_hangs(trace)
        assert certain == set()
        assert ambiguous == {0}

    def test_dense_switching_expects_nothing(self):
        records = [switch(i * SECOND) for i in range(1, 29)]
        trace = make_trace(records, end_ns=29 * SECOND)
        certain, ambiguous = GoshdOracle().expected_hangs(trace)
        assert certain == set() and ambiguous == set()

    def test_ground_truth_ignores_delivery_order(self):
        records = [switch(20 * SECOND), switch(1 * SECOND)]
        shuffled = make_trace(records, end_ns=21 * SECOND)
        ordered = make_trace(list(reversed(records)), end_ns=21 * SECOND)
        assert (
            GoshdOracle().expected_hangs(shuffled)
            == GoshdOracle().expected_hangs(ordered)
        )

    def test_absurd_timestamp_is_outside_the_horizon(self):
        # Regression: a corrupt t=2**63 must not create a "certain
        # hang" the replayed auditor could never have seen (replay
        # rejects the record at the same horizon).
        records = [switch(i * SECOND) for i in range(1, 29)]
        records.append(switch(2 ** 63))
        trace = make_trace(records, end_ns=29 * SECOND)
        certain, ambiguous = GoshdOracle().expected_hangs(trace)
        assert certain == set() and ambiguous == set()

    def test_check_reports_miss_and_false_alarm(self):
        trace = make_trace(
            [switch(1 * SECOND, vcpu=0), switch(SECOND + CERTAIN_BAR + SECOND, vcpu=0)]
            + [switch(i * SECOND, vcpu=1) for i in range(1, 11)],
            end_ns=CERTAIN_BAR + 3 * SECOND,
            num_vcpus=2,
        )
        out = GoshdOracle().check(
            trace, [{"kind": "vcpu_hang", "vcpu": 1}]
        )
        keys = {d.key() for d in out}
        assert keys == {
            "miss:goshd:vcpu=0",
            "false_alarm:goshd:vcpu=1",
        }


class TestHrkdOracle:
    def test_sighted_pid_absent_from_scan_is_expected(self):
        trace = make_trace([
            switch(1 * SECOND, task=task_ann(42)),
            scan_marker(2 * SECOND, "hrkd", "ssh", [1, 2]),
        ])
        assert HrkdOracle().expected_hidden(trace) == {42}

    def test_pid_in_untrusted_view_is_not_hidden(self):
        trace = make_trace([
            switch(1 * SECOND, task=task_ann(42)),
            scan_marker(2 * SECOND, "hrkd", "ssh", [42]),
        ])
        assert HrkdOracle().expected_hidden(trace) == set()

    def test_sighting_after_the_scan_does_not_count(self):
        trace = make_trace([
            scan_marker(1 * SECOND, "hrkd", "ssh", []),
            switch(2 * SECOND, task=task_ann(42)),
        ])
        assert HrkdOracle().expected_hidden(trace) == set()

    def test_kthreads_and_idle_are_excluded(self):
        from repro.core.derive import PF_KTHREAD

        trace = make_trace([
            switch(1 * SECOND, task=task_ann(0)),
            switch(1 * SECOND, task=task_ann(9, flags=PF_KTHREAD)),
            scan_marker(2 * SECOND, "hrkd", "ssh", []),
        ])
        assert HrkdOracle().expected_hidden(trace) == set()

    def test_no_freshness_window(self):
        # The whole point of the differential: HRKD's 10 s sighting
        # window is evadable, the oracle's "ever executed" is not.
        trace = make_trace([
            switch(1 * SECOND, task=task_ann(42)),
            scan_marker(25 * SECOND, "hrkd", "ssh", []),
        ])
        assert HrkdOracle().expected_hidden(trace) == {42}

    def test_check_pid_level(self):
        trace = make_trace([
            switch(1 * SECOND, task=task_ann(42)),
            scan_marker(2 * SECOND, "hrkd", "ssh", []),
        ])
        # Count-based alert that names no pid: still a miss of pid 42.
        out = HrkdOracle().check(
            trace, [{"kind": "hidden_tasks", "hidden_pids": []}]
        )
        assert {d.key() for d in out} == {"miss:hrkd:pid=42"}
        # Naming the pid clears it; naming a ghost is a false alarm.
        out = HrkdOracle().check(
            trace, [{"kind": "hidden_tasks", "hidden_pids": [42, 99]}]
        )
        assert {d.key() for d in out} == {"false_alarm:hrkd:pid=99"}


class TestNinjaOracle:
    ROOT = dict(euid=0, uid=1000, exe="/home/user/exploit")

    def test_unauthorized_root_at_first_sighting(self):
        trace = make_trace([
            switch(1 * SECOND, rsp0=0xAA, task=task_ann(50, **self.ROOT),
                   parent={"pid": 2, "uid": 1000, "euid": 1000}),
        ])
        assert NinjaOracle().expected_escalations(trace) == {50}

    def test_second_sighting_of_same_thread_is_no_checkpoint(self):
        parent = {"pid": 2, "uid": 1000, "euid": 1000}
        trace = make_trace([
            switch(1 * SECOND, rsp0=0xAA, task=task_ann(50),
                   parent=parent),
            # Same rsp0, now escalated: HT-Ninja only checks the first
            # sighting, and the oracle mirrors that contract.
            switch(2 * SECOND, rsp0=0xAA, task=task_ann(50, **self.ROOT),
                   parent=parent),
        ])
        assert NinjaOracle().expected_escalations(trace) == set()

    def test_io_syscall_is_a_checkpoint(self):
        from repro.guest.syscalls import IO_SYSCALLS, SYSCALL_NUMBERS

        nr = SYSCALL_NUMBERS[sorted(IO_SYSCALLS)[0]]
        trace = make_trace([
            syscall(1 * SECOND, nr=nr, task=task_ann(50, **self.ROOT),
                    parent={"pid": 2, "uid": 1000, "euid": 1000}),
        ])
        assert NinjaOracle().expected_escalations(trace) == {50}

    def test_root_parent_is_authorized(self):
        trace = make_trace([
            switch(1 * SECOND, rsp0=0xAA, task=task_ann(50, **self.ROOT),
                   parent={"pid": 1, "uid": 0, "euid": 0}),
        ])
        assert NinjaOracle().expected_escalations(trace) == set()

    def test_check_roundtrip(self):
        trace = make_trace([
            switch(1 * SECOND, rsp0=0xAA, task=task_ann(50, **self.ROOT),
                   parent={"pid": 2, "uid": 1000, "euid": 1000}),
        ])
        out = NinjaOracle().check(trace, [])
        assert {d.key() for d in out} == {"miss:ht-ninja:pid=50"}
        out = NinjaOracle().check(
            trace, [{"kind": "privilege_escalation", "pid": 50}]
        )
        assert out == []


class TestDifferentialOracle:
    def test_container_crash_is_a_finding(self):
        class Report:
            container_failed = True
            failure_reason = "boom"
            alerts = {}

        out = DifferentialOracle().check(make_trace([]), Report())
        assert out[0].kind == "crash"
        assert out[0].key() == "crash:container:"

    def test_finding_key_is_stable(self):
        key = finding_key("miss", "hrkd", {"pid": 7})
        assert key == "miss:hrkd:pid=7"
        assert Discrepancy("miss", "hrkd", {"pid": 7}).key() == key


# ======================================================================
# Seeds, fuzzer, shrinking
# ======================================================================
def reproduces(trace, key) -> bool:
    return FindingPredicate(TraceTarget, trace, key, None)(trace.records)


class TestKnownMiss:
    def test_known_miss_reproduces_through_replay(self):
        trace, finding = known_miss_trace(seed=0)
        key = finding.key()
        assert key.startswith("miss:hrkd:pid=")
        assert reproduces(trace, key)

    def test_base_scenario_has_no_findings(self):
        # The pristine rootkit recording must be conformant — the
        # known miss is *constructed*, not latent.
        trace = base_trace("rootkit", seed=0)
        assert not reproduces(trace, "miss:hrkd:pid=7")


class TestFuzzerDeterminism:
    def test_same_seed_same_campaign(self):
        results = [
            fuzz(FuzzConfig(target="exploit", seed=3, budget=7))
            for _ in range(2)
        ]
        a, b = results
        assert a.findings == b.findings
        assert a.coverage.features == b.coverage.features
        assert a.pool_size == b.pool_size

    def test_different_seeds_diverge(self):
        a = fuzz(FuzzConfig(target="exploit", seed=3, budget=7))
        b = fuzz(FuzzConfig(target="exploit", seed=4, budget=7))
        assert (
            a.findings != b.findings
            or a.coverage.features != b.coverage.features
        )


def shrink(trace, predicate):
    """ddmin over ``trace``'s records, each candidate judged as a trace."""
    reduced = ddmin(
        list(trace.records), lambda records: predicate(subtrace(trace, records))
    )
    return subtrace(trace, reduced)


class TestShrink:
    def test_rejects_non_reproducing_input(self):
        trace = make_trace([switch(1 * SECOND)])
        with pytest.raises(ValueError):
            shrink(trace, lambda t: False)

    def test_ddmin_reduces_to_the_needle(self):
        records = [switch(i * MILLISECOND, vcpu=0) for i in range(40)]
        records.insert(17, switch(17 * MILLISECOND, vcpu=1))
        trace = make_trace(records, num_vcpus=2)

        def predicate(t):
            return any(r.get("vcpu") == 1 for r in t.records)

        reduced = shrink(trace, predicate)
        assert len(reduced.records) == 1
        assert reduced.records[0]["vcpu"] == 1
        # Input unmodified, header recounted on the output.
        assert len(trace.records) == 41
        assert reduced.header.event_counts == {"thread_switch": 1}

    def test_timestamps_are_preserved(self):
        records = [switch(i * SECOND) for i in range(1, 6)]
        trace = make_trace(records)

        def predicate(t):
            return any(r["t"] == 3 * SECOND for r in t.records)

        reduced = shrink(trace, predicate)
        assert [r["t"] for r in reduced.records] == [3 * SECOND]


# ======================================================================
# CLI
# ======================================================================
class TestCli:
    def test_report_summarizes_by_key(self, tmp_path, capsys):
        findings = tmp_path / "f.jsonl"
        rows = [
            {"key": "miss:hrkd:pid=7", "iteration": 4, "detail": "d"},
            {"key": "miss:hrkd:pid=7", "iteration": 9, "detail": "d"},
        ]
        findings.write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        assert cli.main(["report", str(findings)]) == 0
        out = capsys.readouterr().out
        assert "2 findings, 1 unique keys" in out
        assert "first at iteration 4" in out

    def test_corpus_list_handles_empty_dir(self, tmp_path, capsys):
        assert cli.main(["corpus", "list", "--dir", str(tmp_path)]) == 0
        assert "no corpus entries" in capsys.readouterr().out

    def test_shrink_requires_a_target(self, capsys):
        assert cli.main(["shrink"]) == 2
        assert "known-miss" in capsys.readouterr().err
