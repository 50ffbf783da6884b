"""``repro.testing.hut`` — the fuzzer turned around.

Where the trace target of ``repro.testing`` fuzzes the *monitoring*
stack (auditors consuming a recorded trace), this package supplies the
targets that fuzz the *monitored* stack: the hypervisor and hardware
emulation themselves become the system under test, IRIS-style
(arXiv:2303.12817).  Seeded op programs drive the real machine through
its trap-and-emulate doors; a dict-flat reference model recomputes what
should have happened; a three-way oracle (reference differential,
schedule differential, self-consistency) turns disagreement into stable
findings.  :class:`HutTarget` plugs all of that into the shared
campaign core, corpus and shrinker, so hut witnesses land in
``tests/corpus/hut-*.jsonl`` next to the trace entries.

CLI: ``python -m repro.testing fuzz --target ept|msr|dispatch|interleave``
and ``shrink``.  See DESIGN.md §5i and the triage recipe in TESTING.md.
"""

from repro.testing.hut.bugs import BUG_TARGETS, SEEDED_BUGS
from repro.testing.hut.harness import HutHarness, INTEREST_REASONS
from repro.testing.hut.oracle import (
    consistency_findings,
    differential_findings,
    evaluate,
)
from repro.testing.hut.program import (
    TARGETS,
    HutOp,
    HutProgram,
    generate_program,
    load_program,
    save_program,
)
from repro.testing.hut.reference import ReferenceModel
from repro.testing.hut.target import HutTarget, run_candidate

__all__ = [
    "BUG_TARGETS",
    "SEEDED_BUGS",
    "HutHarness",
    "HutOp",
    "HutProgram",
    "HutTarget",
    "INTEREST_REASONS",
    "ReferenceModel",
    "TARGETS",
    "consistency_findings",
    "differential_findings",
    "evaluate",
    "generate_program",
    "load_program",
    "run_candidate",
    "save_program",
]
