"""Property-based tests: the event codec and the engine's ordering.

Hypothesis drives two contracts the whole replay/fuzzing stack leans
on:

* every :class:`GuestEvent` subclass round-trips through
  ``to_record`` → ``json`` → ``from_record`` unchanged — the codec is
  the paper's "replay cannot tell the difference" boundary, so a field
  silently dropped or coerced here would corrupt every trace;
* the simulation engine delivers events in timestamp order, and
  same-instant events in insertion order, under *arbitrary* insertion
  sequences — the determinism the record/replay equivalence tests (and
  the perturbation layer's "inert config changes nothing") assume.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.core.events import (
    GuestEvent,
    IOEvent,
    MemoryAccessEvent,
    ProcessSwitchEvent,
    RawExitEvent,
    SyscallEvent,
    ThreadSwitchEvent,
    TssIntegrityAlert,
)
from repro.hw.exits import ExitReason, GuestStateSnapshot
from repro.sim.engine import Engine

U64 = st.integers(min_value=0, max_value=2**63 - 1)
TEXT = st.text(max_size=12)


@st.composite
def snapshots(draw):
    values = draw(st.lists(U64, min_size=11, max_size=11))
    return GuestStateSnapshot(*values)


BASE = {
    "time_ns": st.integers(min_value=0, max_value=2**62),
    "vcpu_index": st.integers(min_value=0, max_value=63),
    "vm_id": TEXT,
    "hw_state": st.none() | snapshots(),
}

#: JSON-safe qualification/detail values that survive the codec
#: losslessly (tuples intentionally excluded: they decode as lists).
_SCALARS = st.none() | st.booleans() | U64 | TEXT | st.sampled_from(ExitReason)
_DETAILS = st.dictionaries(
    TEXT,
    st.recursive(
        _SCALARS,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(TEXT, inner, max_size=3),
        max_leaves=6,
    ),
    max_size=4,
)

STRATEGY_BY_CLASS = {
    ProcessSwitchEvent: st.builds(
        ProcessSwitchEvent, new_pdba=U64, old_pdba=U64, **BASE
    ),
    ThreadSwitchEvent: st.builds(ThreadSwitchEvent, rsp0=U64, **BASE),
    SyscallEvent: st.builds(
        SyscallEvent,
        number=U64,
        args=st.lists(U64, max_size=6).map(tuple),
        mechanism=st.sampled_from(["sysenter", "int80"]),
        **BASE,
    ),
    IOEvent: st.builds(
        IOEvent,
        kind=st.sampled_from(["pio", "interrupt", "apic"]),
        detail=_DETAILS,
        **BASE,
    ),
    MemoryAccessEvent: st.builds(
        MemoryAccessEvent,
        gva=U64,
        gpa=U64,
        access=st.sampled_from(["r", "w", "x"]),
        **BASE,
    ),
    TssIntegrityAlert: st.builds(
        TssIntegrityAlert, saved_tr=U64, current_tr=U64, **BASE
    ),
    RawExitEvent: st.builds(
        RawExitEvent,
        reason=st.sampled_from(ExitReason),
        qualification=_DETAILS,
        **BASE,
    ),
}
EVENT_STRATEGIES = list(STRATEGY_BY_CLASS.values())


def test_every_event_class_has_a_strategy():
    from repro.core.events import EVENT_CLASSES

    assert set(STRATEGY_BY_CLASS) == set(EVENT_CLASSES.values())


@settings(max_examples=60, deadline=None)
@given(event=st.one_of(EVENT_STRATEGIES))
def test_record_round_trip_through_json(event):
    wire = json.loads(json.dumps(event.to_record()))
    decoded = GuestEvent.from_record(wire)
    assert type(decoded) is type(event)
    assert decoded == event
    # And the round-trip is a fixed point: re-encoding is stable.
    assert decoded.to_record() == event.to_record()


@settings(max_examples=60, deadline=None)
@given(event=st.one_of(EVENT_STRATEGIES))
def test_type_survives_the_wire(event):
    wire = json.loads(json.dumps(event.to_record()))
    assert GuestEvent.from_record(wire).type == event.type


# ======================================================================
# Engine ordering invariants
# ======================================================================
@settings(max_examples=60, deadline=None)
@given(times=st.lists(st.integers(min_value=0, max_value=50), max_size=40))
def test_same_instant_events_fire_in_insertion_order(times):
    engine = Engine()
    fired = []
    for index, when in enumerate(times):
        engine.schedule_at(
            when, lambda w=when, i=index: fired.append((w, i))
        )
    engine.run_until(100)
    assert len(fired) == len(times)
    # Timestamp order overall, insertion order within one instant —
    # i.e. exactly a stable sort of the insertion sequence by time.
    expected = sorted(
        ((w, i) for i, w in enumerate(times)), key=lambda p: p[0]
    )
    assert fired == expected


@settings(max_examples=40, deadline=None)
@given(
    times=st.lists(
        st.integers(min_value=0, max_value=30), min_size=1, max_size=20
    ),
    spawn_at=st.integers(min_value=0, max_value=30),
)
def test_events_scheduled_mid_run_keep_the_invariant(times, spawn_at):
    engine = Engine()
    fired = []

    def spawn():
        fired.append(("spawn", None))
        # Same-instant self-insertion must land after everything
        # already queued for this instant, never starve the queue.
        engine.schedule_at(engine.clock.now, lambda: fired.append(("child", None)))

    engine.schedule_at(spawn_at, spawn)
    for index, when in enumerate(times):
        engine.schedule_at(when, lambda w=when, i=index: fired.append((w, i)))
    engine.run_until(100)
    assert len(fired) == len(times) + 2
    spawned = fired.index(("spawn", None))
    assert ("child", None) in fired[spawned + 1:]
    # Non-decreasing timestamps throughout.
    numbered = [w for w, _ in fired if isinstance(w, int)]
    assert numbered == sorted(numbered)


# ======================================================================
# Binary trace codec (repro.replay.btrace)
# ======================================================================
import pytest

from repro.errors import TraceFormatError
from repro.replay.btrace import BinaryTraceReader, load_any_trace, save_btrace
from repro.replay.format import Trace, TraceHeader, event_to_record


@pytest.fixture(scope="module")
def btrace_dir(tmp_path_factory):
    """Where each example's trace is saved (module-scoped: hypothesis
    runs many examples per test call)."""
    return tmp_path_factory.mktemp("btrace")


def _btrace_bytes(directory, events):
    header = TraceHeader(vm_id="vm0", num_vcpus=2, scenario="prop")
    path = directory / "prop.btr"
    save_btrace(str(path), Trace(header, [event_to_record(e) for e in events]))
    return path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(event=st.one_of(EVENT_STRATEGIES))
def test_btrace_round_trips_every_event_class(btrace_dir, event):
    trace = load_any_trace("<memory>", data=_btrace_bytes(btrace_dir, [event]))
    assert len(trace.records) == 1
    decoded = GuestEvent.from_record(trace.records[0])
    assert type(decoded) is type(event)
    assert decoded == event
    # Fixed point through the binary container, same as the JSON wire.
    assert decoded.to_record() == event.to_record()


@settings(max_examples=40, deadline=None)
@given(
    events=st.lists(st.one_of(EVENT_STRATEGIES), min_size=1, max_size=8),
    data=st.data(),
)
def test_btrace_truncation_always_raises(btrace_dir, events, data):
    blob = _btrace_bytes(btrace_dir, events)
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(TraceFormatError):
        BinaryTraceReader(data=blob[:cut])
