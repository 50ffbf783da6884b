"""Tier-1 tests for the flow-sensitive rule families (repro.analysis.flow).

Each family must (a) catch its seeded violation, (b) stay quiet on the
sanctioned pattern, and (c) compose with the pragma machinery exactly
like the syntactic rules.  The runner's ``--jobs`` fan-out and
the SARIF renderer must be byte-deterministic.
"""

from __future__ import annotations

import asyncio
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.runner import (
    expand_rule_patterns,
    render_sarif,
    run_analysis,
)
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"


def write_tree(base: Path, files: dict) -> Path:
    root = base / "src"
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return root


def findings_for(root: Path, rule: str):
    return run_analysis(root, selected_rules=[rule]).findings


# ======================================================================
# flow.guest-taint
# ======================================================================
class TestGuestTaint:
    def test_payload_to_sink_is_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/em.py": """
                class EM:
                    def handle(self, event: "GuestEvent") -> None:
                        gpa = event.payload
                        self.machine.ept.set_permissions(gpa, execute=False)
                """,
            },
        )
        found = findings_for(root, "flow.guest-taint")
        assert len(found) == 1
        assert "set_permissions" in found[0].message
        assert "event: GuestEvent" in found[0].message

    def test_interprocedural_sink_reported_at_call_site(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/em.py": """
                def _apply(machine, gpa):
                    machine.ept.set_permissions(gpa, execute=False)

                class EM:
                    def handle(self, event: "VMExit") -> None:
                        _apply(self.machine, event.value)
                """,
            },
        )
        found = findings_for(root, "flow.guest-taint")
        assert len(found) == 1
        assert "via _apply()" in found[0].message
        # Reported where the tainted value crosses, not inside the helper.
        assert found[0].line == 7

    def test_declared_sanitizer_launders(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/em.py": """
                class EM:
                    def handle(self, event: "GuestEvent") -> None:
                        info = self.deriver.task_info_at(event.rsp0)
                        self.machine.ept.set_permissions(
                            info.task_struct_gva, execute=False
                        )
                """,
            },
        )
        assert findings_for(root, "flow.guest-taint") == []

    def test_tainted_branch_guarding_sink(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/em.py": """
                class EM:
                    def decide(self, event: "GuestEvent") -> None:
                        if event.flags > 0:
                            self.machine.inject_interrupt(14)
                """,
            },
        )
        found = findings_for(root, "flow.guest-taint")
        assert len(found) == 1
        assert "decides" in found[0].message

    def test_auditors_are_out_of_scope(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/policy.py": """
                class Policy:
                    def audit(self, event: "GuestEvent") -> None:
                        if event.flags:
                            self.hypertap.pause_vm("violation")
                """,
            },
        )
        assert findings_for(root, "flow.guest-taint") == []

    def test_pragma_suppresses_with_justification(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/em.py": """
                class EM:
                    def handle(self, event: "GuestEvent") -> None:
                        # hypertap: allow(flow.guest-taint) — fail-safe narrowing
                        self.machine.ept.set_permissions(event.gpa, execute=False)
                """,
            },
        )
        report = run_analysis(root, selected_rules=["flow.guest-taint"])
        assert report.findings == []
        assert report.suppressed == 1


# ======================================================================
# flow.async-blocking
# ======================================================================
class TestAsyncBlocking:
    def test_time_sleep_in_coroutine(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/serve/worker.py": """
                import asyncio
                import time

                async def worker():
                    time.sleep(0.1)
                """,
            },
        )
        found = findings_for(root, "flow.async-blocking")
        assert len(found) == 1
        assert "time.sleep" in found[0].message

    def test_transitive_blocking_through_sync_helper(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/serve/worker.py": """
                def _dump(path, text):
                    with open(path, "w") as fh:
                        fh.write(text)

                async def worker(path):
                    _dump(path, "x")
                """,
            },
        )
        found = findings_for(root, "flow.async-blocking")
        assert len(found) == 1
        assert "_dump()" in found[0].message
        assert "asyncio.to_thread" in found[0].message

    def test_to_thread_offload_is_sanctioned(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/serve/worker.py": """
                import asyncio

                def _dump(path, text):
                    with open(path, "w") as fh:
                        fh.write(text)

                async def worker(path):
                    await asyncio.to_thread(_dump, path, "x")
                """,
            },
        )
        assert findings_for(root, "flow.async-blocking") == []

    def test_unawaited_coroutine_call(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/serve/worker.py": """
                async def step():
                    return 1

                async def worker():
                    step()
                """,
            },
        )
        found = findings_for(root, "flow.async-blocking")
        assert len(found) == 1
        assert "without awaiting" in found[0].message

    def test_gather_and_ensure_future_consume(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/serve/worker.py": """
                import asyncio

                async def step(item):
                    return item

                async def worker(items):
                    asyncio.ensure_future(step(0))
                    await asyncio.gather(*(step(i) for i in items))
                """,
            },
        )
        assert findings_for(root, "flow.async-blocking") == []


# ======================================================================
# flow.pool-picklability
# ======================================================================
_PARALLEL_STUB = """
def parallel_map(fn, items, jobs=None):
    return [fn(item) for item in items]
"""


class TestPoolPicklability:
    def test_lambda_task(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/parallel/__init__.py": _PARALLEL_STUB,
                "repro/jobs.py": """
                from repro.parallel import parallel_map

                def run(items):
                    return parallel_map(lambda x: x + 1, items)
                """,
            },
        )
        found = findings_for(root, "flow.pool-picklability")
        assert len(found) == 1
        assert "lambda" in found[0].message

    def test_closure_task(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/parallel/__init__.py": _PARALLEL_STUB,
                "repro/jobs.py": """
                from repro.parallel import parallel_map

                def run(items, offset):
                    def task(item):
                        return item + offset
                    return parallel_map(task, items)
                """,
            },
        )
        found = findings_for(root, "flow.pool-picklability")
        assert len(found) == 1
        assert "nested def task()" in found[0].message

    def test_to_thread_wrapped_parallel_map_is_checked(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/parallel/__init__.py": _PARALLEL_STUB,
                "repro/serve/svc.py": """
                import asyncio
                from repro.parallel import parallel_map

                async def flush(items):
                    return await asyncio.to_thread(
                        parallel_map, lambda x: x, items
                    )
                """,
            },
        )
        found = findings_for(root, "flow.pool-picklability")
        assert len(found) == 1
        assert "asyncio.to_thread(parallel_map, ...)" in found[0].message

    def test_module_level_def_is_clean(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/parallel/__init__.py": _PARALLEL_STUB,
                "repro/jobs.py": """
                from repro.parallel import parallel_map

                def task(item):
                    return item + 1

                def run(items):
                    return parallel_map(task, items)
                """,
            },
        )
        assert findings_for(root, "flow.pool-picklability") == []

    def test_unpicklable_default_on_task(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/parallel/__init__.py": _PARALLEL_STUB,
                "repro/jobs.py": """
                from repro.parallel import parallel_map

                def task(item, sink=open("/dev/null", "w")):
                    return item

                def run(items):
                    return parallel_map(task, items)
                """,
            },
        )
        found = findings_for(root, "flow.pool-picklability")
        assert len(found) == 1
        assert "computed default" in found[0].message


# ======================================================================
# flow.span-pairing
# ======================================================================
class TestSpanPairing:
    def test_early_return_leaks_span(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/chan.py": """
                class Fanout:
                    def publish(self, event):
                        self.metrics.span_begin(event)
                        if event is None:
                            return
                        self.metrics.span_end()
                """,
            },
        )
        found = findings_for(root, "flow.span-pairing")
        assert len(found) == 1
        assert "fall-through/return" in found[0].message

    def test_raise_path_leaks_span(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/chan.py": """
                class Fanout:
                    def publish(self, event):
                        self.metrics.span_begin(event)
                        if event is None:
                            raise ValueError("no event")
                        self.metrics.span_end()
                """,
            },
        )
        found = findings_for(root, "flow.span-pairing")
        assert len(found) == 1
        assert "explicit raise" in found[0].message

    def test_try_finally_pairing_is_clean(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/chan.py": """
                class Fanout:
                    def publish(self, event):
                        self.metrics.span_begin(event)
                        try:
                            self.deliver(event)
                        finally:
                            self.metrics.span_end()
                """,
            },
        )
        assert findings_for(root, "flow.span-pairing") == []

    def test_rejected_reason_literal_checked_against_pinned_set(
        self, tmp_path
    ):
        cases = [
            # A direct flow.rejected literal outside REJECT_REASONS.
            ("made-up", "REJECT_REASONS", {
                "repro/obs/metrics.py": """
                DROP_REASONS = frozenset({"crash"})
                REJECT_REASONS = frozenset({"decode", "unknown-kind"})
                """,
                "repro/replay/source.py": """
                class Source:
                    def scan(self):
                        self.metrics.inc(
                            "flow.rejected", vm="a", reason="made-up"
                        )
                """,
            }),
            # A trace.spans_dropped reason typo at a forwarding helper's
            # call site; the direct literal and the good call are clean.
            ("merged", "TRACE_DROP_REASONS", {
                "repro/obs/metrics.py": """
                TRACE_DROP_REASONS = frozenset({"ring-full", "merge"})

                class MetricsRegistry:
                    def _count_span_drop(self, vm, reason):
                        self.counter("trace.spans_dropped", vm=vm, reason=reason)

                    def record(self, vm):
                        self._count_span_drop(vm, "ring-full")
                        self.counter(
                            "trace.spans_dropped", vm=vm, reason="ring-full"
                        )

                    def merge(self, vm):
                        self._count_span_drop(vm, "merged")
                """,
            }),
        ]
        for index, (bad, table, files) in enumerate(cases):
            root = write_tree(tmp_path / str(index), files)
            found = findings_for(root, "flow.span-pairing")
            assert len(found) == 1, bad
            assert repr(bad) in found[0].message
            assert table in found[0].message

    def test_forwarding_helper_call_sites_checked(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/obs/metrics.py": """
                REJECT_REASONS = frozenset({"decode"})
                """,
                "repro/replay/source.py": """
                class Source:
                    def _reject(self, reason):
                        self.metrics.inc("flow.rejected", vm="a", reason=reason)

                    def scan(self):
                        self._reject("decode")
                        self._reject("bogus")
                        reject = self._reject
                        reject("also-bogus")
                """,
            },
        )
        found = findings_for(root, "flow.span-pairing")
        messages = sorted(f.message for f in found)
        assert len(found) == 2
        assert any("'bogus'" in m for m in messages)
        assert any("'also-bogus'" in m for m in messages)


# ======================================================================
# Runner mechanics for flow findings
# ======================================================================
class TestFlowMechanics:
    def test_rules_glob_expansion(self):
        expanded = expand_rule_patterns(["flow.*"])
        assert expanded == [
            "flow.async-blocking",
            "flow.guest-taint",
            "flow.pool-picklability",
            "flow.span-pairing",
        ]
        with pytest.raises(ConfigurationError):
            expand_rule_patterns(["flow.zzz*"])
        with pytest.raises(ConfigurationError):
            expand_rule_patterns(["not-a-rule"])

    def test_repo_is_clean_under_flow_rules(self, repo_analysis):
        assert set(expand_rule_patterns(["flow.*"])) <= set(repo_analysis.rules)
        flow = [f for f in repo_analysis.findings if f.rule.startswith("flow.")]
        assert flow == [], "\n".join(
            f"{f.location()}: [{f.rule}] {f.message}" for f in flow
        )
        # The Fig 3E crossing in interception.py is annotated, not absent:
        # the full run audits pragmas, so with no pragma finding the
        # flow.guest-taint pragma there suppressed a flow finding.
        assert repo_analysis.clean and repo_analysis.suppressed >= 1
        interception = SRC_ROOT / "repro" / "core" / "interception.py"
        assert "allow(flow.guest-taint)" in interception.read_text()

    def test_jobs_output_is_byte_identical(self, capsys):
        assert main(["--root", str(SRC_ROOT), "--json", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["--root", str(SRC_ROOT), "--json", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_sarif_output_shape_and_determinism(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/em.py": """
                class EM:
                    def handle(self, event: "GuestEvent") -> None:
                        self.machine.ept.set_permissions(event.gpa, execute=False)
                """,
            },
        )
        report = run_analysis(root, selected_rules=["flow.guest-taint"])
        first = render_sarif(report)
        second = render_sarif(
            run_analysis(root, selected_rules=["flow.guest-taint"])
        )
        assert first == second
        doc = json.loads(first)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert [r["ruleId"] for r in run["results"]] == ["flow.guest-taint"]
        region = run["results"][0]["locations"][0]["physicalLocation"]
        assert region["artifactLocation"]["uri"] == "repro/core/em.py"
        assert region["region"]["startLine"] >= 1
        assert any(
            rule["id"] == "flow.guest-taint"
            for rule in run["tool"]["driver"]["rules"]
        )

    def test_sarif_cli_flag(self, capsys, tmp_path):
        root = write_tree(tmp_path, {"repro/mod.py": "X = 1\n"})
        assert main(["--root", str(root), "--sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"


# ======================================================================
# Regressions for the true positives this analysis caught
# ======================================================================
class TestCaughtBugs:
    def _syscall_event(self):
        from repro.core.events import SyscallEvent
        from repro.hw.exits import GuestStateSnapshot

        return SyscallEvent(
            time_ns=1,
            vcpu_index=0,
            vm_id="vm0",
            hw_state=GuestStateSnapshot(
                cr3=0x1000, tr_base=0x2000, rsp=0x3000, rip=0x4000,
                rax=0, rbx=1, rcx=2, rdx=3, rsi=4, rdi=5, cpl=0,
            ),
            number=1,
            args=(7,),
        )

    def test_publish_closes_span_when_delivery_raises(self):
        from repro.core.channel import EventFanout
        from repro.core.auditor import Auditor
        from repro.core.events import EventType
        from repro.obs.metrics import MetricsRegistry

        class Listener(Auditor):
            name = "listener"
            subscriptions = {EventType.SYSCALL}

            def audit(self, event):
                pass

        class ExplodingContainer:
            def deliver(self, auditor, event):
                raise RuntimeError("container transport died")

        metrics = MetricsRegistry()
        fanout = EventFanout(vm_id="vm0", metrics=metrics)
        fanout.subscribe(Listener(), ExplodingContainer())
        with pytest.raises(RuntimeError):
            fanout.publish(self._syscall_event())
        # The flow span must not leak open: a leaked span would absorb
        # the next publish's hops (the bug flow.span-pairing flagged).
        assert metrics._open_span is None

    def test_publish_still_pairs_span_on_success(self):
        from repro.core.channel import EventFanout
        from repro.core.auditor import Auditor
        from repro.core.events import EventType
        from repro.hypervisor.containers import AuditingContainer
        from repro.obs.metrics import MetricsRegistry

        class Listener(Auditor):
            name = "listener"
            subscriptions = {EventType.SYSCALL}

            def audit(self, event):
                pass

        metrics = MetricsRegistry()
        fanout = EventFanout(vm_id="vm0", metrics=metrics)
        container = AuditingContainer("vm0", metrics=metrics)
        listener = Listener()
        container.add_auditor(listener)
        fanout.subscribe(listener, container)
        fanout.publish(self._syscall_event())
        assert metrics._open_span is None
        assert container.delivered == 1

    def test_service_stop_removes_socket_off_loop(self, tmp_path):
        from repro.serve.service import StreamService

        socket_path = tmp_path / "svc.sock"
        socket_path.write_text("", encoding="utf-8")
        service = StreamService(str(socket_path))
        asyncio.run(service.stop())
        assert not socket_path.exists()

    def test_export_write_helper_round_trips(self, tmp_path):
        from repro.serve.__main__ import _write_lines

        out = tmp_path / "export.txt"
        asyncio.run(asyncio.to_thread(_write_lines, str(out), ["a", "b"]))
        assert out.read_text(encoding="utf-8") == "a\nb\n"


# ======================================================================
# Bench column
# ======================================================================
class TestBenchColumn:
    def test_measure_analysis_reports_wall_and_counts(self):
        from repro.bench import measure_analysis

        result = measure_analysis()
        assert result["wall_s"] > 0
        assert result["files_scanned"] > 50
        assert result["findings"] == 0

    def test_compare_flags_analysis_wall_regression(self):
        from repro.bench import compare_entries

        prev = {"scale": 1.0, "jobs": 1,
                "metrics": {"analysis_wall_s": 1.0}}
        cur = {"scale": 1.0, "jobs": 1,
               "metrics": {"analysis_wall_s": 1.5}}
        problems = compare_entries(prev, cur)
        assert any("analysis_wall_s" in p for p in problems)
        # Improvement and missing-column entries stay comparable.
        assert compare_entries(cur, prev) == []
        assert compare_entries(
            {"scale": 1.0, "jobs": 1, "metrics": {}}, cur
        ) == []
