"""Edge cases for the seeded trace mutator (repro.replay.mutate).

Mutation operators must degrade gracefully at the boundaries replay
actually hits: traces with no events at all, traces where the chosen
victim is the *final* record, and silence gaps opened at the very end
of the trace (where there is no tail left to shift except the victim
itself).  A body item that is not a record (the error a reader left
for a line it could not parse) rides along unmutated, for replay to
count.  Everything must stay deterministic under a fixed seed.
"""

from __future__ import annotations

import copy

from repro.core.events import GuestEvent, ProcessSwitchEvent, SyscallEvent
from repro.errors import TraceFormatError
from repro.hw.exits import GuestStateSnapshot
from repro.obs.metrics import MetricsRegistry
from repro.replay.format import KIND_EVENT, Trace, TraceHeader, event_to_record
from repro.replay.mutate import MUTATION_OPERATORS, TraceMutator
from repro.replay.source import ReplaySource
from repro.sim.clock import SECOND


def snapshot() -> GuestStateSnapshot:
    return GuestStateSnapshot(
        cr3=0x1000,
        tr_base=0x2000,
        rsp=0x3000,
        rip=0x4000,
        rax=0,
        rbx=1,
        rcx=2,
        rdx=3,
        rsi=4,
        rdi=5,
        cpl=0,
    )


def switch_record(t: int) -> dict:
    event = ProcessSwitchEvent(
        time_ns=t,
        vcpu_index=0,
        vm_id="vm0",
        hw_state=snapshot(),
        new_pdba=0x5000,
        old_pdba=0x6000,
    )
    return event_to_record(event)


def syscall_record(t: int) -> dict:
    event = SyscallEvent(
        time_ns=t,
        vcpu_index=0,
        vm_id="vm0",
        hw_state=snapshot(),
        number=1,
        args=(7,),
    )
    return event_to_record(event)


def make_trace(records: list, end_ns: int = 10 * SECOND) -> Trace:
    header = TraceHeader(end_ns=end_ns)
    return Trace(header=header, records=list(records))


# ======================================================================
# Empty trace: every operator is a visible no-op, never a crash
# ======================================================================
class TestEmptyTrace:
    def test_every_operator_is_a_noop(self):
        mutator = TraceMutator(seed=1)
        for op in MUTATION_OPERATORS:
            records: list = []
            description = getattr(mutator, op)(records)
            assert "no-op" in description, (op, description)
            assert records == []

    def test_mutate_on_empty_trace_returns_noop_log(self):
        trace = make_trace([])
        mutated, log = TraceMutator(seed=2).mutate(trace, n_mutations=5)
        assert mutated.records == []
        assert len(log) == 5
        assert all("no-op" in entry for entry in log)
        # The horizon is untouched when no timestamps exist to shift.
        assert mutated.header.end_ns == trace.header.end_ns

    def test_non_event_records_do_not_count_as_targets(self):
        # A header-ish record without kind=event must not be mutated.
        mutator = TraceMutator(seed=3)
        records = [{"kind": "scan", "t": 100}]
        for op in MUTATION_OPERATORS:
            before = copy.deepcopy(records)
            assert "no-op" in getattr(mutator, op)(records)
            assert records == before


# ======================================================================
# Mutation at the final record
# ======================================================================
class TestFinalRecord:
    def test_drop_removes_the_only_event(self):
        records = [switch_record(1 * SECOND)]
        description = TraceMutator(seed=4).drop(records)
        assert description.startswith("drop: record 0")
        assert records == []

    def test_duplicate_of_the_final_record(self):
        records = [syscall_record(1 * SECOND), switch_record(2 * SECOND)]
        # Force the final record: seed chosen so rng picks index 1.
        mutator = TraceMutator(seed=0)
        for seed in range(50):
            mutator = TraceMutator(seed=seed)
            probe = copy.deepcopy(records)
            if mutator.duplicate(probe) == "duplicate: record 1 (process_switch)":
                assert len(probe) == 3
                assert probe[1] == probe[2]
                break
        else:  # pragma: no cover - would mean rng never picks index 1
            raise AssertionError("no seed picked the final record")

    def test_corrupt_the_only_record_touches_exactly_one_field(self):
        records = [switch_record(1 * SECOND)]
        pristine = copy.deepcopy(records[0])
        description = TraceMutator(seed=5).corrupt(records)
        assert description.startswith("corrupt: record 0")
        changed = [k for k in pristine if records[0].get(k) != pristine.get(k)]
        assert len(changed) == 1

    def test_reorder_needs_two_events(self):
        records = [switch_record(1 * SECOND)]
        assert "no-op" in TraceMutator(seed=6).reorder(records)
        assert records == [switch_record(1 * SECOND)]


# ======================================================================
# Silence gap at end-of-trace
# ======================================================================
class TestSilenceGapAtEnd:
    def test_gap_at_final_event_shifts_only_that_event(self):
        records = [switch_record(1 * SECOND), syscall_record(2 * SECOND)]
        # With a single candidate split (force it by leaving one event),
        # the gap lands at end-of-trace and shifts exactly the tail.
        tail_only = [records[1]]
        description = TraceMutator(seed=7).silence_gap(
            tail_only, gap_ns=5 * SECOND
        )
        assert "silence_gap: +" in description
        assert "(1 shifted)" in description
        assert tail_only[0]["t"] == 7 * SECOND

    def test_mutate_extends_the_horizon_past_the_shifted_tail(self):
        records = [switch_record(1 * SECOND)]
        trace = make_trace(records, end_ns=2 * SECOND)
        # Find a seed whose first operator draw is silence_gap, so the
        # gap provably lands on the final (only) record.
        for seed in range(200):
            mutator = TraceMutator(seed=seed)
            mutated, log = mutator.mutate(trace, n_mutations=1)
            if log[0].startswith("silence_gap: +"):
                shifted_t = mutated.records[0]["t"]
                assert shifted_t > 1 * SECOND
                # end_ns must cover the displaced tail or replay's RHC
                # would stop before the gap it is supposed to flag.
                assert mutated.header.end_ns >= shifted_t
                return
        raise AssertionError("no seed drew silence_gap first")

    def test_explicit_gap_is_applied_verbatim(self):
        records = [switch_record(1 * SECOND), switch_record(2 * SECOND)]
        mutator = TraceMutator(seed=8)
        description = mutator.silence_gap(records, gap_ns=3 * SECOND)
        assert "+3000000000ns" in description
        # Whatever the split, the final record always shifts.
        assert records[1]["t"] == 5 * SECOND

    def test_original_trace_is_never_mutated(self):
        records = [switch_record(1 * SECOND), syscall_record(2 * SECOND)]
        trace = make_trace(records)
        before = copy.deepcopy(trace.records)
        TraceMutator(seed=9).mutate(trace, n_mutations=10)
        assert trace.records == before


# ======================================================================
# Determinism
# ======================================================================
class TestDeterminism:
    def test_same_seed_same_mutations(self):
        records = [
            switch_record(1 * SECOND),
            syscall_record(2 * SECOND),
            switch_record(3 * SECOND),
            syscall_record(4 * SECOND),
        ]
        trace = make_trace(records)
        first, first_log = TraceMutator(seed=1234).mutate(trace, n_mutations=8)
        second, second_log = TraceMutator(seed=1234).mutate(trace, n_mutations=8)
        assert first_log == second_log
        assert first.records == second.records
        assert first.header.end_ns == second.header.end_ns

    def test_different_seeds_diverge(self):
        records = [
            switch_record(1 * SECOND),
            syscall_record(2 * SECOND),
            switch_record(3 * SECOND),
        ]
        trace = make_trace(records)
        logs = {
            tuple(TraceMutator(seed=s).mutate(trace, n_mutations=6)[1])
            for s in range(8)
        }
        assert len(logs) > 1

    def test_mutated_records_stay_event_records(self):
        # corrupt may damage any field, including 'kind': everything
        # else must leave kind=event intact so replay still sees them.
        records = [switch_record(1 * SECOND), syscall_record(2 * SECOND)]
        trace = make_trace(records)
        mutated, log = TraceMutator(seed=10).mutate(trace, n_mutations=4)
        corrupted_kind = any("field 'kind'" in entry for entry in log)
        if not corrupted_kind:
            assert all(r.get("kind") == KIND_EVENT for r in mutated.records)


# ======================================================================
# Body items that are not records
# ======================================================================
class TestBodyItems:
    def test_error_item_rides_along_and_is_counted_every_run(self):
        error = TraceFormatError("torn line", records_read=1)
        decoded = (2 * SECOND, GuestEvent.from_record(syscall_record(2 * SECOND)), None, None)
        trace = Trace(
            header=TraceHeader(end_ns=10 * SECOND),
            body=[switch_record(1 * SECOND), error, decoded, switch_record(3 * SECOND)],
        )
        mutator = TraceMutator(seed=5)
        for _ in range(10):
            mutated, _log = mutator.mutate(trace, n_mutations=3)
            assert [item for item in mutated.body if item is error] == [error]
            assert all(type(item) is not tuple for item in mutated.body)
            registry = MetricsRegistry()
            ReplaySource(mutated, [], metrics=registry).run()
            assert registry.value("flow.rejected", vm="vm0", reason="decode") >= 1
        # The base trace keeps its items.
        assert trace.body[1] is error and trace.body[2] is decoded
