"""Tests for the record & replay subsystem (``repro.replay``).

Covers the codec round trip for every event class, trace file I/O,
replay-verdict reproduction against a checked-in golden trace, the
RHC silence-gap interaction, and fuzz determinism / crash freedom.
"""

import copy
import json
import pathlib
import time

import pytest

from repro.auditors.ht_ninja import HTNinja
from repro.core.derive import DerivedTaskInfo
from repro.core.events import (
    EVENT_CLASSES,
    EventType,
    GuestEvent,
    IOEvent,
    MemoryAccessEvent,
    ProcessSwitchEvent,
    RawExitEvent,
    SyscallEvent,
    ThreadSwitchEvent,
    TssIntegrityAlert,
)
from repro.errors import TraceFormatError
from repro.hw.exits import ExitAction, ExitReason, GuestStateSnapshot, MemAccess
from repro.obs.metrics import MetricsRegistry
from repro.replay.format import (
    FORMAT_VERSION,
    Trace,
    TraceHeader,
    decode_event,
    event_to_record,
    normalize_alerts,
    task_from_record,
    task_to_record,
)
from repro.replay.__main__ import main as replay_main
from repro.replay.btrace import convert_trace, load_any_trace
from repro.replay.mutate import TraceMutator
from repro.replay.recorder import SCENARIOS, auditors_for, record_scenario
from repro.replay.source import ReplaySource
from repro.replay.trace_io import TraceWriter, dumps_trace, load_trace, save_trace
from repro.sim.clock import SECOND
from repro.sim.perturb import PerturbationConfig, SchedulePerturbation

GOLDEN_TRACE = str(pathlib.Path(__file__).parent / "data" / "golden_exploit.jsonl")

SNAPSHOT = GuestStateSnapshot(
    cr3=0x1000, tr_base=0x2000, rsp=0x7FFF_0000, rip=0x4000_1234,
    rax=1, rbx=2, rcx=3, rdx=4, rsi=5, rdi=6, cpl=3,
)

#: One representative instance per event class (payload fields all
#: non-default, enums included, so a lossy codec cannot hide).
SAMPLE_EVENTS = [
    ProcessSwitchEvent(
        time_ns=10, vcpu_index=0, vm_id="vmA", hw_state=SNAPSHOT,
        new_pdba=0xAAAA, old_pdba=0xBBBB,
    ),
    ThreadSwitchEvent(
        time_ns=20, vcpu_index=1, vm_id="vmA", hw_state=SNAPSHOT,
        rsp0=0xDEAD_BEEF,
    ),
    SyscallEvent(
        time_ns=30, vcpu_index=0, vm_id="vmA", hw_state=SNAPSHOT,
        number=57, args=(1, 2, 3), mechanism="int80",
    ),
    IOEvent(
        time_ns=40, vcpu_index=1, vm_id="vmA", hw_state=SNAPSHOT,
        kind="interrupt", detail={"port": 0x3F8, "bytes": 16},
    ),
    MemoryAccessEvent(
        time_ns=50, vcpu_index=0, vm_id="vmA", hw_state=SNAPSHOT,
        gva=0xFFFF_8000_0000_0000, gpa=0x1234_5000, access="x",
    ),
    TssIntegrityAlert(
        time_ns=60, vcpu_index=1, vm_id="vmA", hw_state=SNAPSHOT,
        saved_tr=0x111, current_tr=0x222,
    ),
    RawExitEvent(
        time_ns=70, vcpu_index=0, vm_id="vmA", hw_state=SNAPSHOT,
        reason=ExitReason.EPT_VIOLATION,
        qualification={
            "access": MemAccess.WRITE,
            "action": ExitAction.EMULATE,
            "nested": {"gpa": 0x1000},
            "list": [1, "two"],
        },
    ),
]


class TestCodecRoundTrip:
    @pytest.mark.parametrize(
        "event", SAMPLE_EVENTS, ids=lambda e: type(e).__name__
    )
    def test_every_class_round_trips(self, event):
        record = event.to_record()
        json.dumps(record)  # must be JSON-safe as-is
        decoded = GuestEvent.from_record(json.loads(json.dumps(record)))
        assert type(decoded) is type(event)
        assert decoded == event
        assert decoded.hw_state == SNAPSHOT

    def test_registry_covers_every_event_type(self):
        assert set(EVENT_CLASSES) == {t.value for t in EventType}
        covered = {type(e) for e in SAMPLE_EVENTS}
        assert covered == set(EVENT_CLASSES.values())

    def test_none_snapshot_round_trips(self):
        event = ThreadSwitchEvent(
            time_ns=5, vcpu_index=0, vm_id="vm0", hw_state=None, rsp0=1
        )
        assert GuestEvent.from_record(event.to_record()) == event

    def test_task_annotation_round_trips(self):
        info = DerivedTaskInfo(
            task_struct_gva=0x100, pid=42, uid=1000, euid=0,
            comm="sh", exe="/bin/sh", flags=0, parent_gva=0x200,
        )
        assert task_from_record(task_to_record(info)) == info
        event = SAMPLE_EVENTS[2]
        record = event_to_record(event, task=info, parent=info)
        decoded, task, parent = decode_event(record)
        assert (decoded, task, parent) == (event, info, info)

    @pytest.mark.parametrize("bad", [
        None, [], "x", {},
        {"type": "nope", "t": 1, "vcpu": 0},
        {"type": [], "t": 1, "vcpu": 0},
        {"type": "syscall", "t": -5, "vcpu": 0},
        {"type": "syscall", "t": "soon", "vcpu": 0},
        {"type": "syscall", "t": 1, "vcpu": None},
        {"type": "syscall", "t": 1, "vcpu": 0, "hw": "junk"},
        {"type": "syscall", "t": 1, "vcpu": 0, "hw": [1, 2]},
        {"type": "syscall", "t": 1, "vcpu": 0, "args": "abc"},
        {"type": "raw_exit", "t": 1, "vcpu": 0, "reason": "NOT_A_REASON"},
    ])
    def test_malformed_records_raise_trace_format_error(self, bad):
        with pytest.raises(TraceFormatError):
            GuestEvent.from_record(bad)

    def test_hw_snapshot_rejects_keyed_form(self):
        record = SAMPLE_EVENTS[0].to_record()
        assert isinstance(record["hw"], list)
        keyed = dict(record)
        keyed["hw"] = {
            name: getattr(SNAPSHOT, name)
            for name in (
                "cr3", "tr_base", "rsp", "rip",
                "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "cpl",
            )
        }
        with pytest.raises(TraceFormatError, match="must be a list"):
            GuestEvent.from_record(keyed)


class TestTraceIO:
    def _small_trace(self):
        header = TraceHeader(
            version=FORMAT_VERSION, vm_id="vm0", seed=3, num_vcpus=2,
            scenario="unit", start_ns=0, end_ns=100,
        )
        records = [event_to_record(e) for e in SAMPLE_EVENTS]
        return Trace(header=header, records=records)

    @pytest.mark.parametrize("name", ["t.jsonl", "t.jsonl.gz"])
    def test_save_load_round_trip(self, tmp_path, name):
        trace = self._small_trace()
        path = tmp_path / name
        save_trace(path, trace)
        loaded = load_trace(path)
        assert loaded.header.vm_id == "vm0"
        assert loaded.header.seed == 3
        assert loaded.header.version == FORMAT_VERSION
        assert loaded.header.end_ns == 100
        assert loaded.records == trace.records
        assert loaded.events() == SAMPLE_EVENTS

    def test_header_counts_match_body(self, tmp_path):
        trace = self._small_trace()
        path = tmp_path / "t.jsonl"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert loaded.header.total_events == len(SAMPLE_EVENTS)
        assert loaded.header.event_counts["syscall"] == 1

    def test_torn_lines_counted_not_fatal(self, tmp_path):
        trace = self._small_trace()
        path = tmp_path / "t.jsonl"
        save_trace(path, trace)
        text = path.read_text().rstrip("\n") + '\n{"kind": "event", trunca\n'
        path.write_text(text)
        loaded = load_trace(path)
        assert loaded.records[: len(SAMPLE_EVENTS)] == trace.records

    def test_wrong_version_rejected(self, tmp_path):
        trace = self._small_trace()
        serialized = dumps_trace(trace)
        first, rest = serialized.split("\n", 1)
        header = json.loads(first)
        header["version"] = FORMAT_VERSION + 1
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(header) + "\n" + rest)
        with pytest.raises(TraceFormatError):
            load_trace(path)


class TestGoldenTrace:
    """A checked-in trace replayed by today's code must reproduce the
    verdicts recorded when it was captured."""

    def test_golden_replay_reproduces_recorded_verdicts(self):
        trace = load_trace(GOLDEN_TRACE)
        report = ReplaySource(trace, [HTNinja()]).run()
        assert report.events_rejected == 0
        assert report.events_replayed == trace.header.total_events
        assert report.matches_live(trace.header.meta["live_verdicts"])
        [verdict] = report.verdicts
        assert verdict["kind"] == "privilege_escalation"
        assert verdict["comm"] == "exploit"

    def test_golden_replay_is_deterministic(self):
        trace = load_trace(GOLDEN_TRACE)
        first = ReplaySource(trace, [HTNinja()]).run()
        second = ReplaySource(trace, [HTNinja()]).run()
        assert first.verdicts == second.verdicts
        assert first.events_replayed == second.events_replayed

    def test_live_recording_matches_golden(self, recorded_scenario):
        # Pins the live engine that produced the golden, not only its
        # replay: every record line byte for byte, the header on the
        # golden's keys (it predates ``meta.perturb_seed``) with the
        # wall-clock field masked.
        with open(GOLDEN_TRACE, encoding="utf-8") as fh:
            golden = fh.read().splitlines()
        lines = dumps_trace(recorded_scenario("exploit").trace).splitlines()
        assert lines[1:] == golden[1:]
        header, golden_header = json.loads(lines[0]), json.loads(golden[0])
        for h in (header, golden_header):
            h["meta"]["live_wall_seconds"] = None
        header["meta"] = {k: header["meta"][k] for k in golden_header["meta"]}
        assert {k: header[k] for k in golden_header} == golden_header


class TestScenarioReproduction:
    @pytest.mark.parametrize("name", ["exploit", "rootkit"])
    def test_record_then_replay_matches_live(self, name, recorded_scenario):
        run = recorded_scenario(name)
        auditors = SCENARIOS[name].build_auditors()
        report = ReplaySource(run.trace, auditors).run()
        assert report.verdicts == run.live_verdicts
        assert report.verdicts  # the attack scenarios must alert
        assert not report.container_failed

    def test_recording_survives_serialization(self, recorded_scenario):
        run = recorded_scenario("exploit")
        reloaded = Trace(
            header=run.trace.header,
            records=[json.loads(json.dumps(r)) for r in run.trace.records],
        )
        report = ReplaySource(reloaded, SCENARIOS["exploit"].build_auditors()).run()
        assert report.verdicts == run.live_verdicts


class TestReplayThroughput:
    """Replay re-audits a recording faster than the live simulation
    produced it (the IRIS use case): one live capture supports many
    offline re-audits and fuzzing runs."""

    ROUNDS = 5

    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for name in sorted(SCENARIOS):
            # A fresh recording: both rates are wall-clock, so the live
            # run and its replays are measured back to back, under the
            # same host load.
            run = record_scenario(name, seed=0)
            live_rate = run.trace.header.total_events / run.live_wall_seconds
            walls = []
            for _ in range(self.ROUNDS):
                report = ReplaySource(run.trace, SCENARIOS[name].build_auditors()).run()
                walls.append(report.wall_seconds)
            out[name] = (
                report.matches_live(run.live_verdicts),
                report.events_replayed / min(walls) / live_rate,
            )
        return out

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_replay_reproduces_live_verdicts(self, results, name):
        reproduced, _speedup = results[name]
        assert reproduced, f"{name}: replay diverged from live verdicts"

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_replay_at_least_5x_live(self, results, name):
        _reproduced, speedup = results[name]
        assert speedup >= 5.0, (
            f"{name}: replay only {speedup:.1f}x live (best of {self.ROUNDS}; "
            "the subsystem targets >= 10x on an idle machine)"
        )


class TestSilenceGapLiveness:
    """Satellite: a mutator-injected silence gap must trip the replayed
    RemoteHealthChecker's liveness timeout deterministically."""

    TIMEOUT_NS = 2 * SECOND

    def _replay(self, trace):
        source = ReplaySource(
            trace,
            [HTNinja()],
            rhc_timeout_ns=self.TIMEOUT_NS,
            rhc_sample_every=4,
        )
        report = source.run()
        return source, report

    def test_intact_trace_keeps_rhc_quiet(self):
        trace = load_trace(GOLDEN_TRACE)
        _, report = self._replay(trace)
        assert not report.rhc_alarmed

    def test_silence_gap_trips_rhc(self):
        trace = load_trace(GOLDEN_TRACE)
        mutated = Trace(
            header=copy.deepcopy(trace.header),
            records=copy.deepcopy(trace.records),
        )
        mutator = TraceMutator(seed=7)
        mutator.silence_gap(mutated.records, gap_ns=5 * SECOND)
        max_t = max(
            r["t"] for r in mutated.records
            if isinstance(r, dict) and isinstance(r.get("t"), int)
        )
        mutated.header.end_ns = max(mutated.header.end_ns, max_t)
        _, report = self._replay(mutated)
        assert report.rhc_alarmed

    def test_silence_gap_trip_is_deterministic(self):
        reports = []
        for _ in range(2):
            trace = load_trace(GOLDEN_TRACE)
            mutated = Trace(
                header=copy.deepcopy(trace.header),
                records=copy.deepcopy(trace.records),
            )
            TraceMutator(seed=11).silence_gap(
                mutated.records, gap_ns=5 * SECOND
            )
            mutated.header.end_ns = max(
                mutated.header.end_ns,
                max(
                    r["t"] for r in mutated.records
                    if isinstance(r, dict) and isinstance(r.get("t"), int)
                ),
            )
            _, report = self._replay(mutated)
            reports.append((report.rhc_alarmed, report.events_replayed))
        assert reports[0] == reports[1]
        assert reports[0][0] is True


class TestMutatorAndFuzz:
    def test_mutations_are_seed_deterministic(self):
        trace = load_trace(GOLDEN_TRACE)
        a, ops_a = TraceMutator(seed=5).mutate(trace, n_mutations=4)
        b, ops_b = TraceMutator(seed=5).mutate(trace, n_mutations=4)
        assert ops_a == ops_b
        assert a.records == b.records
        c, ops_c = TraceMutator(seed=6).mutate(trace, n_mutations=4)
        assert (ops_c, c.records) != (ops_a, a.records)

    def test_mutate_does_not_touch_original(self):
        trace = load_trace(GOLDEN_TRACE)
        before = copy.deepcopy(trace.records)
        TraceMutator(seed=5).mutate(trace, n_mutations=8)
        assert trace.records == before

    def test_fuzzed_replays_never_crash_auditors(self):
        trace = load_trace(GOLDEN_TRACE)
        mutator = TraceMutator(seed=1)
        for _ in range(12):
            mutated, _ops = mutator.mutate(trace, n_mutations=3)
            report = ReplaySource(mutated, [HTNinja()]).run()
            assert not report.container_failed, report.failure_reason
            assert report.scan_errors == 0

    def test_corrupted_records_rejected_and_counted(self):
        trace = load_trace(GOLDEN_TRACE)
        mutated = Trace(
            header=copy.deepcopy(trace.header),
            records=copy.deepcopy(trace.records),
        )
        for record in mutated.records[:10]:
            record["t"] = "not-a-time"
        report = ReplaySource(mutated, [HTNinja()]).run()
        assert report.events_rejected == 10
        assert report.events_replayed == trace.header.total_events - 10

    def test_far_future_timestamp_rejected(self):
        trace = load_trace(GOLDEN_TRACE)
        mutated = Trace(
            header=copy.deepcopy(trace.header),
            records=copy.deepcopy(trace.records),
        )
        mutated.records[5]["t"] = 2**62
        report = ReplaySource(mutated, [HTNinja()]).run()
        assert report.events_rejected == 1
        assert not report.container_failed


class TestTimerCapRejection:
    """A gap that would fire more auditor timers than the per-record cap
    is a counted ``timer-cap`` rejection for the rest of the stream, not
    a crash and not an unbounded run."""

    #: Wall budget per replay.  The capped advance fires the per-record
    #: timer cap once (well under a second on a 2-vCPU host); without
    #: the stream-wide rejection every later record would fire it again.
    BUDGET_S = 20.0
    GAP_NS = 10**15

    @pytest.fixture(scope="class")
    def gap_paths(self, tmp_path_factory):
        # GOSHD's periodic timer meets a 10^15 ns jump halfway through.
        trace = record_scenario("hang", seed=0).trace
        half = len(trace.records) // 2
        for record in trace.records[half:]:
            record["t"] += self.GAP_NS
        trace.header.end_ns += self.GAP_NS
        root = tmp_path_factory.mktemp("gap")
        jsonl, btr = str(root / "gap.jsonl.gz"), str(root / "gap.btr")
        save_trace(jsonl, trace)
        convert_trace(jsonl, btr)
        return jsonl, btr, len(trace.records) - half

    @pytest.mark.parametrize("which", [0, 1], ids=["jsonl", "btrace"])
    def test_cli_replay_is_bounded(self, gap_paths, which, capsys):
        started = time.perf_counter()
        code = replay_main(["replay", gap_paths[which]])
        assert time.perf_counter() - started < self.BUDGET_S
        assert code == 0
        assert f"({gap_paths[2]} rejected" in capsys.readouterr().out

    @staticmethod
    def _replay(path, perturb=None):
        trace = load_any_trace(path)
        registry = MetricsRegistry()
        report = ReplaySource(
            trace, auditors_for(trace), perturb=perturb, metrics=registry
        ).run()
        rejected = {
            labels["reason"]: value
            for _name, labels, value in registry.rows("flow.rejected")
        }
        return rejected, report.events_rejected, report.events_replayed

    def test_same_accounting_from_jsonl_and_btrace(self, gap_paths):
        jsonl, btr, shifted = gap_paths
        outcome = self._replay(jsonl)
        assert self._replay(btr) == outcome
        assert outcome[:2] == ({"timer-cap": shifted}, shifted)

    def test_perturbed_drain_accounts_unreached_deliveries(self, gap_paths):
        # Perturbed delivery goes through the engine queue; the capped
        # drain must reject what it never reached, not lose it.
        zero = SchedulePerturbation(0, PerturbationConfig())
        assert self._replay(gap_paths[0], zero) == self._replay(gap_paths[0])


class TestNormalizeAlerts:
    def test_normalization_drops_volatile_keys_and_sorts(self):
        alerts = {
            "b": [{"kind": "x", "t_ns": 5, "detected_at_ns": 9, "pid": 2}],
            "a": [{"kind": "y", "pids": {3, 1}, "trusted_count": 7}],
        }
        verdicts = normalize_alerts(alerts)
        assert verdicts == [
            {"auditor": "a", "kind": "y", "pids": [1, 3]},
            {"auditor": "b", "kind": "x", "pid": 2},
        ]


class TestBufferedWriter:
    """TraceWriter batches line assembly: one file write per
    ``flush_every`` records, identical bytes at any batch size."""

    class _CountingFile:
        def __init__(self, fh):
            self.fh = fh
            self.writes = 0

        def write(self, text):
            self.writes += 1
            return self.fh.write(text)

        def close(self):
            self.fh.close()

    def _records(self, n):
        return [
            {"kind": "event", "type": "thread_switch", "t": i * 100}
            for i in range(n)
        ]

    def test_one_write_per_batch(self, tmp_path):
        writer = TraceWriter(
            str(tmp_path / "t.jsonl"), TraceHeader(), flush_every=4
        )
        counter = self._CountingFile(writer._fh)
        writer._fh = counter
        for record in self._records(6):
            writer.write_record(record)
        # header + 6 records = 7 lines: one flush at 4, three buffered.
        assert counter.writes == 1
        writer.close(end_ns=600)
        # footer fills the second batch; close drains the remainder.
        assert counter.writes == 2

    def test_bytes_identical_at_any_batch_size(self, tmp_path):
        paths = []
        for flush_every in (1, 3, 1024):
            path = tmp_path / f"t{flush_every}.jsonl"
            with TraceWriter(
                str(path), TraceHeader(), flush_every=flush_every
            ) as writer:
                for record in self._records(10):
                    writer.write_record(record)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]
