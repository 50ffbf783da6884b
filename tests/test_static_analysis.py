"""Tier-1 tests for the invariant-aware static analysis (repro.analysis).

The pass must (a) hold the line on this repo — zero unsuppressed
findings — and (b) demonstrably fail on seeded violations, including a
replica of the pre-PR-1 codec gap where event classes existed that the
trace codec could not round-trip.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.runner import run_analysis
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"


def write_tree(base: Path, files: dict) -> Path:
    """Materialize a repro-shaped source tree under ``base``."""
    root = base / "src"
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return root


# ======================================================================
# The repo itself
# ======================================================================
class TestRepoIsClean:
    @pytest.fixture(scope="class")
    def report(self):
        return run_analysis(SRC_ROOT)

    def test_no_findings_on_this_tree(self, report):
        assert report.findings == [], "\n".join(
            f"{f.location()}: [{f.rule}] {f.message}" for f in report.findings
        )
        assert report.files_scanned > 50

    def test_sanctioned_crossings_are_annotated_not_absent(self, report):
        # The deliberate baselines (O-Ninja, H-Ninja) and HRKD's
        # cross-validation input exist and are justified inline — the
        # suppression count proves the rule actually sees them.
        assert report.suppressed >= 10

    def test_exit_code_via_main(self, capsys):
        assert main(["--root", str(SRC_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "OK: hardware-invariant trust boundary holds" in out


# ======================================================================
# trust-boundary
# ======================================================================
class TestTrustBoundary:
    def test_guest_import_in_auditor_fails(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/evil.py": """
                from repro.guest.kernel import GuestKernel
                """,
            },
        )
        report = run_analysis(root)
        assert [f.rule for f in report.findings] == ["trust-boundary"]
        assert "repro.guest.kernel" in report.findings[0].message
        assert report.exit_code == 1

    def test_hw_machine_and_vmi_also_forbidden(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/evil.py": """
                import repro.hw.machine
                from repro.vmi.introspection import OsInvariantView
                """,
            },
        )
        rules = sorted(f.rule for f in run_analysis(root).findings)
        assert rules == ["trust-boundary", "trust-boundary"]

    def test_non_auditor_modules_may_import_guest(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/fine.py": """
                from repro.guest.kernel import GuestKernel
                """,
            },
        )
        assert run_analysis(root).findings == []

    def test_function_level_import_is_caught(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/sneaky.py": """
                def peek():
                    from repro.guest.task import Task
                    return Task
                """,
            },
        )
        assert [f.rule for f in run_analysis(root).findings] == ["trust-boundary"]


# ======================================================================
# event-coverage (the pre-PR-1 codec gap, as a static failure)
# ======================================================================
#: repro.core.events as it effectively was before PR 1: seven event
#: types and classes, but a codec registry covering only four — the
#: TSS_INTEGRITY / MEM_ACCESS / RAW_EXIT payloads fell on the floor.
PRE_PR1_EVENTS = """
import enum


class EventType(enum.Enum):
    PROCESS_SWITCH = "process_switch"
    THREAD_SWITCH = "thread_switch"
    SYSCALL = "syscall"
    IO = "io"
    MEM_ACCESS = "mem_access"
    TSS_INTEGRITY = "tss_integrity"
    RAW_EXIT = "raw_exit"


REQUIRED_EXIT_REASONS = {
    EventType.PROCESS_SWITCH: frozenset(),
    EventType.THREAD_SWITCH: frozenset(),
    EventType.SYSCALL: frozenset(),
    EventType.IO: frozenset(),
    EventType.MEM_ACCESS: frozenset(),
    EventType.TSS_INTEGRITY: frozenset(),
    EventType.RAW_EXIT: frozenset(),
}


class GuestEvent:
    pass


class ProcessSwitchEvent(GuestEvent):
    pass


class ThreadSwitchEvent(GuestEvent):
    pass


class SyscallEvent(GuestEvent):
    pass


class IOEvent(GuestEvent):
    pass


class MemoryAccessEvent(GuestEvent):
    pass


class TssIntegrityAlert(GuestEvent):
    pass


class RawExitEvent(GuestEvent):
    pass


EVENT_CLASSES = {
    EventType.PROCESS_SWITCH.value: ProcessSwitchEvent,
    EventType.THREAD_SWITCH.value: ThreadSwitchEvent,
    EventType.SYSCALL.value: SyscallEvent,
    EventType.IO.value: IOEvent,
}
"""


class TestEventCoverage:
    def test_pre_pr1_codec_gap_is_a_static_failure(self, tmp_path):
        root = write_tree(tmp_path, {"repro/core/events.py": PRE_PR1_EVENTS})
        report = run_analysis(root, selected_rules=["event-coverage"])
        assert report.exit_code == 1
        messages = "\n".join(f.message for f in report.findings)
        # The three dropped classes are called out by name...
        for cls in ("MemoryAccessEvent", "TssIntegrityAlert", "RawExitEvent"):
            assert cls in messages
        # ...and so are the unregistered type keys.
        for member in ("MEM_ACCESS", "TSS_INTEGRITY", "RAW_EXIT"):
            assert f"EventType.{member}" in messages
        assert len(report.findings) == 6

    def test_fully_registered_codec_is_clean(self, tmp_path):
        fixed = PRE_PR1_EVENTS.replace(
            "    EventType.IO.value: IOEvent,\n}",
            "    EventType.IO.value: IOEvent,\n"
            "    EventType.MEM_ACCESS.value: MemoryAccessEvent,\n"
            "    EventType.TSS_INTEGRITY.value: TssIntegrityAlert,\n"
            "    EventType.RAW_EXIT.value: RawExitEvent,\n}",
        )
        root = write_tree(tmp_path, {"repro/core/events.py": fixed})
        assert run_analysis(root, selected_rules=["event-coverage"]).findings == []

    def _full_events(self):
        return PRE_PR1_EVENTS.replace(
            "    EventType.IO.value: IOEvent,\n}",
            "    EventType.IO.value: IOEvent,\n"
            "    EventType.MEM_ACCESS.value: MemoryAccessEvent,\n"
            "    EventType.TSS_INTEGRITY.value: TssIntegrityAlert,\n"
            "    EventType.RAW_EXIT.value: RawExitEvent,\n}",
        )

    _BTRACE_TABLES = """
    TYPE_CODES = {
        "process_switch": 1,
        "thread_switch": 2,
        "syscall": 3,
        "io": 4,
        "mem_access": 5,
        "tss_integrity": 6,
        "raw_exit": 7,
    }

    BTRACE_LAYOUTS = {
        "process_switch": ("<QQ", ()),
        "thread_switch": ("<Q", ()),
        "syscall": ("<QII", ()),
        "io": ("<II", ()),
        "mem_access": ("<QQI", ()),
        "tss_integrity": ("<QQ", ()),
        "raw_exit": ("<II", ()),
    }
    """

    def test_complete_btrace_layouts_are_clean(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/events.py": self._full_events(),
                "repro/replay/btrace.py": self._BTRACE_TABLES,
            },
        )
        assert run_analysis(root, selected_rules=["event-coverage"]).findings == []

    def test_event_type_without_btrace_layout_is_flagged(self, tmp_path):
        # An EventType the binary codec cannot fixed-layout-encode
        # silently demotes to the JSON-escape path — the rule makes the
        # gap a commit-time failure instead of a decode-rate regression.
        gapped = self._BTRACE_TABLES.replace(
            '        "raw_exit": ("<II", ()),\n', ""
        )
        assert gapped != self._BTRACE_TABLES
        root = write_tree(
            tmp_path,
            {
                "repro/core/events.py": self._full_events(),
                "repro/replay/btrace.py": gapped,
            },
        )
        report = run_analysis(root, selected_rules=["event-coverage"])
        assert report.exit_code == 1
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.path.endswith("btrace.py")
        assert "EventType.RAW_EXIT" in finding.message
        assert "BTRACE_LAYOUTS" in finding.message
        assert "JSON-escape" in finding.message

    def test_missing_btrace_table_is_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/events.py": self._full_events(),
                "repro/replay/btrace.py": """
                TYPE_CODES = {
                    "process_switch": 1,
                    "thread_switch": 2,
                    "syscall": 3,
                    "io": 4,
                    "mem_access": 5,
                    "tss_integrity": 6,
                    "raw_exit": 7,
                }
                """,
            },
        )
        report = run_analysis(root, selected_rules=["event-coverage"])
        messages = "\n".join(f.message for f in report.findings)
        assert "BTRACE_LAYOUTS" in messages
        assert "not found" in messages

    def test_missing_required_exit_reasons_entry(self, tmp_path):
        gapped = PRE_PR1_EVENTS.replace(
            "    EventType.RAW_EXIT: frozenset(),\n", ""
        )
        root = write_tree(tmp_path, {"repro/core/events.py": gapped})
        report = run_analysis(root, selected_rules=["event-coverage"])
        assert any(
            "REQUIRED_EXIT_REASONS" in f.message and "RAW_EXIT" in f.message
            for f in report.findings
        )

    def test_undispatched_exit_reason(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/hw/exits.py": """
                import enum


                class ExitReason(enum.Enum):
                    CR_ACCESS = "CR_ACCESS"
                    HLT = "HLT"
                """,
                "repro/core/interception.py": """
                from repro.hw.exits import ExitReason


                class OnlyCr:
                    reasons = frozenset({ExitReason.CR_ACCESS})
                """,
            },
        )
        report = run_analysis(root, selected_rules=["event-coverage"])
        assert len(report.findings) == 1
        assert "ExitReason.HLT" in report.findings[0].message

    def test_iterating_the_enum_covers_everything(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/hw/exits.py": """
                import enum


                class ExitReason(enum.Enum):
                    CR_ACCESS = "CR_ACCESS"
                    HLT = "HLT"
                """,
                "repro/core/interception.py": """
                from repro.hw.exits import ExitReason


                class Firehose:
                    reasons = frozenset(set(ExitReason))
                """,
            },
        )
        assert run_analysis(root, selected_rules=["event-coverage"]).findings == []

    def test_shadow_registry_outside_events_module(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/replay/shadow.py": """
                from repro.core.events import EventType, IOEvent, SyscallEvent

                MY_CODECS = {
                    EventType.SYSCALL.value: SyscallEvent,
                    EventType.IO.value: IOEvent,
                }
                """,
            },
        )
        report = run_analysis(root, selected_rules=["event-coverage"])
        assert [f.rule for f in report.findings] == ["event-coverage"]
        assert "shadow event-type registry" in report.findings[0].message

    def test_event_type_without_stage_counter_label(self, tmp_path):
        # Dropping an EventType from STAGE_COUNTER_LABELS would make its
        # events invisible to flow accounting — a static failure.
        root = write_tree(
            tmp_path,
            {
                "repro/core/events.py": PRE_PR1_EVENTS,
                "repro/obs/metrics.py": """
                from repro.core.events import EventType

                STAGE_COUNTER_LABELS = {
                    EventType.SYSCALL: "flow.published",
                    EventType.IO: "flow.published",
                }
                """,
            },
        )
        report = run_analysis(root, selected_rules=["event-coverage"])
        stage = [f for f in report.findings if f.path.endswith("metrics.py")]
        messages = "\n".join(f.message for f in stage)
        for member in ("PROCESS_SWITCH", "THREAD_SWITCH", "RAW_EXIT"):
            assert member in messages
        assert "SYSCALL" not in messages

    def test_missing_stage_counter_table(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/core/events.py": PRE_PR1_EVENTS,
                "repro/obs/metrics.py": "counters = {}\n",
            },
        )
        report = run_analysis(root, selected_rules=["event-coverage"])
        assert any(
            "STAGE_COUNTER_LABELS" in f.message and f.path.endswith("metrics.py")
            for f in report.findings
        )

    def test_ad_hoc_drop_reason_flagged(self, tmp_path):
        # A shedding path minting its own reason would fragment triage
        # queries and dodge the serve accounting identity.
        root = write_tree(
            tmp_path,
            {
                "repro/obs/metrics.py": """
                DROP_REASONS = frozenset({"crash", "overflow"})
                """,
                "repro/serve/shedder.py": """
                def shed(registry, vm):
                    registry.inc("flow.dropped", vm=vm, reason="mystery")
                """,
            },
        )
        report = run_analysis(root, selected_rules=["event-coverage"])
        assert [f.rule for f in report.findings] == ["event-coverage"]
        assert "mystery" in report.findings[0].message
        assert "DROP_REASONS" in report.findings[0].message
        assert report.findings[0].path.endswith("shedder.py")

    def test_listed_literal_drop_reasons_pass(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/obs/metrics.py": """
                DROP_REASONS = frozenset({"crash", "overflow"})
                """,
                "repro/serve/shedder.py": """
                def shed(registry, vm):
                    registry.inc("flow.dropped", vm=vm, reason="overflow")
                    cell = registry.counter("flow.dropped", reason="crash")
                    cell.inc()
                """,
            },
        )
        assert run_analysis(root, selected_rules=["event-coverage"]).findings == []

    def test_computed_or_missing_drop_reason_flagged(self, tmp_path):
        # The rule audits reasons from the AST, so a computed reason is
        # as much a finding as a missing one.
        root = write_tree(
            tmp_path,
            {
                "repro/obs/metrics.py": """
                DROP_REASONS = frozenset({"crash"})
                """,
                "repro/serve/shedder.py": """
                def shed(registry, vm, why):
                    registry.inc("flow.dropped", vm=vm, reason=why)
                    registry.inc("flow.dropped", vm=vm)
                """,
            },
        )
        report = run_analysis(root, selected_rules=["event-coverage"])
        messages = "\n".join(f.message for f in report.findings)
        assert len(report.findings) == 2
        assert "not a string literal" in messages
        assert "without a reason= label" in messages


# ======================================================================
# determinism
# ======================================================================
class TestDeterminism:
    def test_wall_clock_and_entropy_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/hypervisor/leaky.py": """
                import random
                import time


                def stamp():
                    return time.time()
                """,
            },
        )
        report = run_analysis(root, selected_rules=["determinism"])
        assert len(report.findings) == 3
        assert {"import random", "import time", "time.time()"} <= {
            m for f in report.findings for m in [f.message.split("'")[1]]
        }

    def test_sanctioned_rng_modules_are_exempt(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/sim/rng.py": "import random\n",
                "repro/replay/mutate.py": "import random\n",
            },
        )
        assert run_analysis(root, selected_rules=["determinism"]).findings == []

    def test_from_imports_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/workloads/leaky.py": """
                from os import urandom
                from time import time_ns
                """,
            },
        )
        assert len(run_analysis(root, selected_rules=["determinism"]).findings) == 2

    def test_wall_clock_confined_to_repro_prof(self, tmp_path):
        # `import time` anywhere outside repro.prof is a finding now —
        # even for perf_counter-grade throughput timing.  Consumers
        # import the accessor from repro.prof instead, so one grep
        # enumerates every wall-clock read in the tree.
        root = write_tree(
            tmp_path,
            {
                "repro/replay/bench.py": """
                import time


                def measure():
                    return time.perf_counter()
                """,
                "repro/prof/__init__.py": """
                import time

                perf_counter = time.perf_counter
                """,
            },
        )
        report = run_analysis(root, selected_rules=["determinism"])
        assert len(report.findings) == 1
        assert report.findings[0].path.endswith("bench.py")
        assert "repro.prof" in report.findings[0].message

    def test_wall_clock_import_suppressible_with_pragma(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/replay/bench.py": """
                import time  # hypertap: allow(determinism) — test fixture
                """,
            },
        )
        assert run_analysis(root, selected_rules=["determinism"]).findings == []

    def test_prof_accessor_import_is_clean(self, tmp_path):
        # The sanctioned route: import the accessor, not the module.
        root = write_tree(
            tmp_path,
            {
                "repro/replay/bench.py": """
                from repro.prof import perf_counter


                def measure():
                    return perf_counter()
                """,
            },
        )
        assert run_analysis(root, selected_rules=["determinism"]).findings == []

    def test_wall_clock_banned_inside_repro_obs(self, tmp_path):
        # Inside repro.obs even perf_counter-grade imports are off
        # limits: exports must be byte-identical live vs replay, so the
        # whole module family is flagged at the import, not the call —
        # and with the stricter repro.obs message, not the repro.prof
        # confinement one a non-obs module gets.
        root = write_tree(
            tmp_path,
            {
                "repro/obs/sampler.py": """
                import time
                from datetime import datetime
                """,
                "repro/bench/timer.py": "import time\n",
            },
        )
        report = run_analysis(root, selected_rules=["determinism"])
        assert len(report.findings) == 3
        obs = [f for f in report.findings if f.path.endswith("sampler.py")]
        other = [f for f in report.findings if f.path.endswith("timer.py")]
        assert len(obs) == 2 and len(other) == 1
        assert all("repro.obs" in f.message for f in obs)
        assert "repro.prof" in other[0].message

    def test_scheduling_imports_confined_to_repro_parallel(self, tmp_path):
        # Worker completion order is ambient entropy; only the indexed
        # merge in repro.parallel may touch process pools.
        root = write_tree(
            tmp_path,
            {
                "repro/faults/sneaky.py": """
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor
                """,
                "repro/parallel/executor.py": """
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor
                """,
            },
        )
        report = run_analysis(root, selected_rules=["determinism"])
        assert len(report.findings) == 2
        assert all(f.path.endswith("sneaky.py") for f in report.findings)
        assert all("repro.parallel" in f.message for f in report.findings)

    def test_scheduling_import_suppressible_with_pragma(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/hypervisor/pool.py": """
                import multiprocessing  # hypertap: allow(determinism) — test fixture
                """,
            },
        )
        assert run_analysis(root, selected_rules=["determinism"]).findings == []

    def test_async_imports_confined_to_repro_serve(self, tmp_path):
        # Socket readiness order is kernel-scheduled entropy; only the
        # serving layer (virtual arrival stamps, id-ordered results)
        # may run an event loop.
        root = write_tree(
            tmp_path,
            {
                "repro/obs/pusher.py": """
                import asyncio
                from socket import socketpair
                """,
                "repro/serve/service.py": """
                import asyncio
                import socket
                import selectors
                """,
            },
        )
        report = run_analysis(root, selected_rules=["determinism"])
        assert len(report.findings) == 2
        assert all(f.path.endswith("pusher.py") for f in report.findings)
        assert all("repro.serve" in f.message for f in report.findings)

    def test_binary_layout_imports_confined_to_btrace(self, tmp_path):
        # A second struct-packing site is how codec drift starts; only
        # the btrace module may define byte-level record layouts.
        root = write_tree(
            tmp_path,
            {
                "repro/obs/packer.py": """
                import struct
                import mmap
                from array import array
                """,
                "repro/replay/btrace.py": """
                import mmap
                import struct
                from array import array
                """,
            },
        )
        report = run_analysis(root, selected_rules=["determinism"])
        assert len(report.findings) == 3
        assert all(f.path.endswith("packer.py") for f in report.findings)
        assert all(
            "repro.replay.btrace" in f.message for f in report.findings
        )

    def test_binary_layout_import_suppressible_with_pragma(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/hw/checksum.py": """
                import struct  # hypertap: allow(determinism) — test fixture
                """,
            },
        )
        assert run_analysis(root, selected_rules=["determinism"]).findings == []


# ======================================================================
# auditor-purity
# ======================================================================
class TestAuditorPurity:
    def test_direct_machine_mutation_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/impure.py": """
                class Impure:
                    def audit(self, event):
                        self.hypertap.machine.vm_paused = True
                """,
            },
        )
        report = run_analysis(root, selected_rules=["auditor-purity"])
        assert [f.rule for f in report.findings] == ["auditor-purity"]
        assert "vm_paused" in report.findings[0].message

    def test_mutating_call_flagged(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/impure.py": """
                class Impure:
                    def audit(self, event):
                        self.machine.ept.set_permissions(0x1000, write=False)
                """,
            },
        )
        assert len(run_analysis(root, selected_rules=["auditor-purity"]).findings) == 1

    def test_sanctioned_api_and_reference_storage_allowed(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/pure.py": """
                class Pure:
                    def __init__(self, machine):
                        self.machine = machine

                    def audit(self, event):
                        self.hypertap.pause_vm()
                        self.seen = event
                """,
            },
        )
        assert run_analysis(root, selected_rules=["auditor-purity"]).findings == []


# ======================================================================
# pragmas
# ======================================================================
class TestPragmas:
    def test_same_line_suppression(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/allowed.py": """
                from repro.vmi.introspection import OsInvariantView  # hypertap: allow(trust-boundary) — cross-validation input
                """,
            },
        )
        report = run_analysis(root)
        assert report.findings == []
        assert report.suppressed == 1

    def test_standalone_pragma_covers_next_line(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/allowed.py": """
                # hypertap: allow(trust-boundary) — deliberate baseline for the ablation
                from repro.guest.kernel import GuestKernel
                """,
            },
        )
        report = run_analysis(root)
        assert report.findings == []
        assert report.suppressed == 1

    def test_pragma_without_justification_is_a_finding(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/lazy.py": """
                from repro.guest.kernel import GuestKernel  # hypertap: allow(trust-boundary)
                """,
            },
        )
        report = run_analysis(root)
        rules = sorted(f.rule for f in report.findings)
        # The malformed pragma does not suppress, so both fire.
        assert rules == ["pragma", "trust-boundary"]
        assert "justification" in next(
            f.message for f in report.findings if f.rule == "pragma"
        )

    def test_unknown_rule_in_pragma_is_a_finding(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/typo.py": """
                from repro.guest.kernel import GuestKernel  # hypertap: allow(trust-boundry) — oops
                """,
            },
        )
        report = run_analysis(root)
        assert any(
            f.rule == "pragma" and "unknown rule" in f.message
            for f in report.findings
        )

    def test_unused_pragma_is_a_finding(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/stale.py": """
                from repro.core.auditor import Auditor  # hypertap: allow(trust-boundary) — left over after a refactor
                """,
            },
        )
        report = run_analysis(root)
        assert [f.rule for f in report.findings] == ["pragma"]
        assert "unused suppression" in report.findings[0].message

    def test_docstring_mentioning_pragmas_is_not_a_pragma(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/doc.py": '''
                """Docs may say '# hypertap: allow(trust-boundary)' freely."""
                ''',
            },
        )
        assert run_analysis(root).findings == []


# ======================================================================
# baseline
# ======================================================================
class TestBaseline:
    def test_baseline_roundtrip(self, tmp_path, capsys):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/debt.py": """
                from repro.guest.kernel import GuestKernel
                """,
            },
        )
        baseline = tmp_path / "baseline.json"
        assert (
            main(["--root", str(root), "--write-baseline", str(baseline)]) == 0
        )
        capsys.readouterr()
        # Baselined: the known violation no longer fails the run...
        assert main(["--root", str(root), "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        # ...but a *new* violation still does.
        (root / "repro/auditors/debt2.py").write_text(
            "from repro.guest.task import Task\n", encoding="utf-8"
        )
        assert main(["--root", str(root), "--baseline", str(baseline)]) == 1
        capsys.readouterr()

    def test_missing_baseline_is_a_usage_error(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"repro/ok.py": "X = 1\n"})
        code = main(
            ["--root", str(root), "--baseline", str(tmp_path / "nope.json")]
        )
        capsys.readouterr()
        assert code == 2


# ======================================================================
# CLI behavior
# ======================================================================
class TestCli:
    def _run(self, *args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_ROOT) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )

    def test_json_output_is_deterministic_across_runs(self):
        first = self._run("--json")
        second = self._run("--json")
        assert first.returncode == 0, first.stdout + first.stderr
        assert second.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert payload["suppressed"] >= 10

    def test_seeded_violation_fails_through_the_cli(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/auditors/evil.py": """
                from repro.guest.kernel import GuestKernel
                """,
            },
        )
        proc = self._run("--root", str(root))
        assert proc.returncode == 1
        assert "trust-boundary" in proc.stdout

    def test_unknown_rule_selection_is_exit_2(self):
        proc = self._run("--rules", "no-such-rule")
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for rule in (
            "trust-boundary",
            "event-coverage",
            "determinism",
            "auditor-purity",
        ):
            assert rule in proc.stdout


# ======================================================================
# API
# ======================================================================
class TestApi:
    def test_unknown_selected_rule_raises(self):
        with pytest.raises(ConfigurationError):
            run_analysis(SRC_ROOT, selected_rules=["bogus"])

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        root = write_tree(
            tmp_path, {"repro/broken.py": "def nope(:\n    pass\n"}
        )
        report = run_analysis(root)
        assert [f.rule for f in report.findings] == ["parse"]
