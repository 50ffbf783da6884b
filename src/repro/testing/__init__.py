"""Coverage-guided adversarial conformance harness.

IRIS (arXiv:2303.12817) demonstrated that record/replay plus
coverage-guided fuzzing is how you explore a hypervisor's exit-event
space; Heckler (arXiv:2404.03387) demonstrated that adversarially
*timed* event streams break guarantees that hold under benign
schedules.  ``repro.testing`` turns both against the two halves of the
reproduction, through one campaign core:

* :mod:`repro.testing.fuzzer` — the campaign core (seeded pool, parent
  draw, coverage-gated admission, findings and witnesses, fixed shards
  merged in order) plus its trace target: recorded scenarios mutated by
  :class:`~repro.replay.mutate.TraceMutator` and schedule perturbation
  (:mod:`repro.sim.perturb`), judged against the auditors;
* :mod:`repro.testing.hut` — the hut targets: the hypervisor and
  hardware emulation as the system under test, checked against an
  independent reference model, perturbed schedules, and the stack's own
  redundant accounting;
* :mod:`repro.testing.coverage` — event-type / transition / timing-gap
  coverage of a replayed stream, the trace target's feedback signal;
* :mod:`repro.testing.oracle` — the differential oracle: expected
  verdicts recomputed from trace ground truth the auditors never parse,
  compared against what the auditors actually raised;
* :mod:`repro.testing.shrink` — ddmin from a failing trace or program
  to a minimal reproducer;
* :mod:`repro.testing.corpus` — checked-in regression entries of both
  kinds under ``tests/corpus/`` (every shrunk finding becomes one);
* :mod:`repro.testing.seeds` — deterministic base traces, including
  the seeded known-miss used by acceptance tests and the nightly job.

Everything is seeded through :class:`repro.sim.rng.RandomStreams`, so a
``(target, seed, budget)`` triple names a byte-reproducible campaign.
"""

from repro.testing.coverage import CoverageAuditor, CoverageMap
from repro.testing.fuzzer import FuzzConfig, FuzzResult, fuzz
from repro.testing.oracle import Discrepancy, DifferentialOracle, finding_key
from repro.testing.shrink import ddmin

__all__ = [
    "CoverageAuditor",
    "CoverageMap",
    "DifferentialOracle",
    "Discrepancy",
    "FuzzConfig",
    "FuzzResult",
    "ddmin",
    "finding_key",
    "fuzz",
]
