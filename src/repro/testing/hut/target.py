"""The hut fuzz target: op programs run on the real emulation stack.

:class:`HutTarget` is the plug-in :func:`repro.testing.fuzzer.fuzz`
drives for the ``ept``, ``msr``, ``dispatch`` and ``interleave``
targets.  Candidates are op programs
(:mod:`repro.testing.hut.program`) mutated by
:func:`~repro.testing.hut.mutators.mutate_program`; each runs through
:func:`run_candidate` — the real machine/hypervisor stack, the
reference model and, for ``interleave``, a second real-stack run under
a same-instant interleave shuffle — and the three-way oracle of
:mod:`repro.testing.hut.oracle` judges the outcome.

Coverage features are *execution shapes* (op outcome, per-vCPU op
adjacency, exit reasons reached, rejection classes) rather than
branches — the hut analogue of the stream-shape features in
:mod:`repro.testing.coverage`.

The same class describes the hut corpus entry: a program JSONL whose
header carries the finding, the seeded bug and the interleave seed, so
:mod:`repro.testing.corpus` and the shrinker handle hut witnesses and
replay traces through one interface.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TraceFormatError
from repro.parallel import derive_seed
from repro.sim.perturb import interleave_perturbation
from repro.testing.coverage import CoverageMap
from repro.testing.hut.bugs import SEEDED_BUGS
from repro.testing.hut.harness import HutHarness
from repro.testing.hut.mutators import mutate_program
from repro.testing.hut.oracle import evaluate
from repro.testing.hut.program import (
    HutOp,
    HutProgram,
    generate_program,
    save_program,
)
from repro.testing.hut.reference import ReferenceModel
from repro.testing.oracle import Discrepancy


def run_candidate(
    program: HutProgram,
    bug: Optional[str] = None,
    perturb_seed: Optional[int] = None,
) -> Tuple[List[Discrepancy], CoverageMap, HutHarness]:
    """Execute one candidate through the full differential pair.

    Runs the real stack, the reference model, and — when
    ``perturb_seed`` is given — a second real-stack run under a
    same-instant interleave shuffle; returns ``(findings, coverage
    features, the baseline harness)``.
    """
    injector = SEEDED_BUGS[bug] if bug is not None else None
    harness = HutHarness(program, bug=injector)
    harness.run()
    reference = ReferenceModel(program)
    reference.run()

    perturbed_digest = None
    if perturb_seed is not None:
        perturbed = HutHarness(
            program,
            perturb=interleave_perturbation(perturb_seed),
            bug=injector,
        )
        perturbed.run()
        perturbed_digest = perturbed.digest()

    findings = evaluate(
        program.target, harness, reference.digest(), perturbed_digest
    )

    features = CoverageMap()
    prev_by_vcpu: Dict[int, str] = {}
    for vcpu, _seq, op, status, _value in harness.execution.results:
        features.add(f"op:{op}:{status}")
        if status.startswith("reject:"):
            features.add(f"reject:{status.split(':', 1)[1]}")
        prev = prev_by_vcpu.get(vcpu)
        if prev is not None:
            features.add(f"t:{prev}>{op}")
        prev_by_vcpu[vcpu] = op
    for reason, count in harness.kvm.exit_reason_counts().items():
        features.add(f"exit:{reason}")
        if count > 1:
            features.add(f"exit:{reason}:multi")
    if harness.machine.ept.violations:
        features.add("viol")
    if harness.execution.crash is not None:
        features.add(f"crash:{harness.execution.crash['error']}")
    return findings, features, harness


class HutTarget:
    """Fuzz plug-in and corpus-entry kind for hut op programs."""

    #: Named RNG stream of every shard's campaign draws.
    STREAM = "hut-fuzz"
    #: Fixed shard count — part of the determinism contract, never
    #: derived from the job count.
    SHARDS = 2
    #: Per-shard seed-pool cap.
    MAX_POOL = 24
    #: Default ddmin budget (each test runs the stack two or three times).
    SHRINK_TESTS = 400
    UNIT = "ops"
    #: Entry naming: ``hut-divergence-hut-ref-at-results-target-msr.jsonl``.
    PREFIX = "hut-"
    SEP = "-"

    def __init__(self, config, shard: int) -> None:
        self.config = config
        self.seed = derive_seed(config.seed, "hut", config.target, shard)

    def baseline(self) -> HutProgram:
        return generate_program(
            self.config.target, self.seed, length=self.config.length
        )

    def derive(self, parent: HutProgram, rng, iteration: int):
        candidate, applied = (
            mutate_program(parent, rng, self.config.mutations)
            if iteration
            else (parent, [])
        )
        perturb_seed = (
            rng.randrange(2**31)
            if self.config.target == "interleave"
            else None
        )
        return candidate, {
            "target": self.config.target,
            "bug": self.config.bug,
            "mutators": list(applied),
            "perturb_seed": perturb_seed,
            "ops": len(candidate.ops),
        }

    def execute(self, program: HutProgram, fields: Dict[str, Any]):
        findings, coverage, harness = run_candidate(
            program, self.config.bug, fields["perturb_seed"]
        )
        return findings, coverage, harness.metrics.snapshot()

    def witness(self, program: HutProgram, entry: Dict[str, Any]) -> Tuple:
        """``save_entry`` arguments for the first program showing
        ``entry``'s key (named by the campaign seed, not the shard's)."""
        witness = HutProgram(
            target=program.target,
            seed=self.config.seed,
            num_vcpus=program.num_vcpus,
            ops=list(program.ops),
        )
        return witness, entry, (self.config.bug, entry["perturb_seed"]), None

    # ------------------------------------------------------------------
    # Corpus-entry side
    # ------------------------------------------------------------------
    @staticmethod
    def meta(program: HutProgram) -> Dict[str, Any]:
        return program.meta

    @staticmethod
    def items(program: HutProgram) -> List[HutOp]:
        return program.ops

    @staticmethod
    def rebuild(template: HutProgram, ops: List[HutOp]) -> HutProgram:
        return template.replace_ops(ops)

    @staticmethod
    def params(program: HutProgram) -> Tuple[Optional[str], Optional[int]]:
        """``(bug, perturb_seed)`` the header says to replay with; a
        clean (``fixed``) witness replays without its bug."""
        bug = None if program.meta.get("fixed") else program.meta.get("bug")
        perturb_seed = program.meta.get("perturb_seed")
        if bug is not None and (
            not isinstance(bug, str) or bug not in SEEDED_BUGS
        ):
            raise TraceFormatError(f"unknown seeded bug {bug!r}")
        if perturb_seed is not None and type(perturb_seed) is not int:
            raise TraceFormatError(f"bad perturb_seed {perturb_seed!r}")
        return bug, perturb_seed

    @staticmethod
    def check(program: HutProgram, params: Tuple) -> List[Discrepancy]:
        return run_candidate(program, *params)[0]

    @staticmethod
    def stamp(
        program: HutProgram,
        finding: Dict[str, Any],
        params: Tuple,
        original: Optional[int],
    ) -> None:
        program.meta["finding"] = dict(finding)
        program.meta["bug"], program.meta["perturb_seed"] = params
        program.meta["fixed"] = False
        if original is not None:
            program.meta["original_ops"] = original

    write = staticmethod(save_program)
