"""Seeded trace mutations: fuzzing the monitoring stack's input edge.

IRIS-style replay makes the auditor pipeline a pure function of a
trace file — which makes it fuzzable without a guest.  The operators
here model what a hostile or broken recorder could feed the stack:

* ``drop``        — lose records (EF overload, torn buffers);
* ``duplicate``   — deliver a record twice (retransmission);
* ``reorder``     — swap records, breaking time monotonicity;
* ``corrupt``     — damage one field (bit-rot, truncation, type holes);
* ``silence_gap`` — shift the tail of the trace later in time,
  opening a heartbeat-free window (what the RHC must catch).

All randomness comes from one seeded :class:`random.Random`, so a
(seed, n) pair names a mutation deterministically.
"""

from __future__ import annotations

import copy
import random
from typing import Any, Dict, List, Tuple

from repro.errors import TraceFormatError
from repro.replay.format import KIND_EVENT, Trace, record_of
from repro.sim.clock import SECOND

#: Values ``corrupt`` may write over an existing field.
_CORRUPTIONS: List[Any] = [
    None,
    -1,
    "XX-CORRUPT-XX",
    2**63,
    [],
    {"$enum": "NoSuchEnum", "v": "?"},
    3.14159,
    True,
]

MUTATION_OPERATORS = ("drop", "duplicate", "reorder", "corrupt", "silence_gap")


class TraceMutator:
    """Applies seeded mutation operators to in-memory traces."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        #: Net time shift applied by ``silence_gap`` during one
        #: :meth:`mutate` call; the only mutation allowed to move the
        #: trace horizon (a ``corrupt`` that writes an absurd timestamp
        #: must stay *beyond* the horizon so replay rejects it).
        self._shift_ns = 0

    # ------------------------------------------------------------------
    # Operators (each edits ``records`` in place, returns a description)
    # ------------------------------------------------------------------
    def _event_indexes(self, records: List[Dict[str, Any]]) -> List[int]:
        return [
            i
            for i, r in enumerate(records)
            if isinstance(r, dict) and r.get("kind") == KIND_EVENT
        ]

    def drop(self, records: List[Dict[str, Any]]) -> str:
        idxs = self._event_indexes(records)
        if not idxs:
            return "drop: no-op (no events)"
        victim = self.rng.choice(idxs)
        removed = records.pop(victim)
        return f"drop: record {victim} ({removed.get('type')})"

    def duplicate(self, records: List[Dict[str, Any]]) -> str:
        idxs = self._event_indexes(records)
        if not idxs:
            return "duplicate: no-op (no events)"
        victim = self.rng.choice(idxs)
        records.insert(victim, copy.deepcopy(records[victim]))
        return f"duplicate: record {victim} ({records[victim].get('type')})"

    def reorder(self, records: List[Dict[str, Any]]) -> str:
        idxs = self._event_indexes(records)
        if len(idxs) < 2:
            return "reorder: no-op (<2 events)"
        a, b = sorted(self.rng.sample(idxs, 2))
        records[a], records[b] = records[b], records[a]
        return f"reorder: records {a} <-> {b}"

    def corrupt(self, records: List[Dict[str, Any]]) -> str:
        idxs = self._event_indexes(records)
        if not idxs:
            return "corrupt: no-op (no events)"
        victim = self.rng.choice(idxs)
        record = records[victim]
        keys = sorted(record.keys())
        key = self.rng.choice(keys)
        value = self.rng.choice(_CORRUPTIONS)
        record[key] = copy.deepcopy(value)
        return f"corrupt: record {victim} field {key!r} -> {value!r}"

    def silence_gap(
        self, records: List[Dict[str, Any]], gap_ns: int = 0
    ) -> str:
        """Shift every record after a random split point ``gap_ns``
        later, creating a window with no events (and no heartbeats)."""
        idxs = self._event_indexes(records)
        if not idxs:
            return "silence_gap: no-op (no events)"
        if gap_ns <= 0:
            gap_ns = self.rng.randrange(1 * SECOND, 10 * SECOND)
        split = self.rng.choice(idxs)
        shifted = 0
        for record in records[split:]:
            if isinstance(record, dict) and isinstance(record.get("t"), int):
                record["t"] += gap_ns
                shifted += 1
        if shifted:
            self._shift_ns += gap_ns
        return f"silence_gap: +{gap_ns}ns after record {split} ({shifted} shifted)"

    # ------------------------------------------------------------------
    def mutate(
        self, trace: Trace, n_mutations: int = 1
    ) -> Tuple[Trace, List[str]]:
        """Return a mutated deep copy of ``trace`` plus an operation log.

        The copy holds the record of each body item (see
        :func:`~repro.replay.format.record_of`); the error a reader left
        in place of a record it could not frame is carried through as
        it is, for replay to count, and no operator picks it.
        """
        mutated = Trace(
            header=copy.deepcopy(trace.header),
            records=[
                item if isinstance(item, TraceFormatError)
                else copy.deepcopy(record_of(item))
                for item in trace.body
            ],
        )
        log: List[str] = []
        self._shift_ns = 0
        for _ in range(max(1, n_mutations)):
            op = self.rng.choice(MUTATION_OPERATORS)
            log.append(getattr(self, op)(mutated.records))
        if mutated.header.end_ns is not None and self._shift_ns:
            # Extend the horizon by exactly the silence-gap shifts —
            # never by whatever timestamp ``corrupt`` wrote, or one
            # 2**63 corruption would legitimize an absurd horizon and
            # drag every periodic auditor check across aeons.
            mutated.header.end_ns += self._shift_ns
        return mutated, log
