"""Hut-target campaign contracts: determinism, bug kill, shrink.

Three acceptance properties of the turned-around fuzzer:

* **byte reproducibility** — the same ``(target, seed, budget)`` names
  the same campaign report, at any job count (sharding is fixed at
  ``HutTarget.SHARDS``, never derived from ``jobs``);
* **mutation kill** — every seeded emulator bug is detected by its
  designated target within a small fixed budget (the audit that the
  oracle actually has teeth);
* **shrink** — ``shrink_entry`` reduces a witness deterministically
  and its predicate rejects non-reproducing op subsets.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.testing.fuzzer import FuzzConfig, fuzz
from repro.testing.hut import (
    BUG_TARGETS,
    HutTarget,
    SEEDED_BUGS,
    TARGETS,
    generate_program,
    run_candidate,
)
from repro.testing.hut.mutators import MUTATORS, mutate_program
from repro.testing.shrink import FindingPredicate, shrink_entry


def _report_json(result) -> str:
    return json.dumps(
        {
            "executions": result.executions,
            "crashes": result.crashes,
            "coverage_features": len(result.coverage),
            "findings": result.findings,
            "metrics": result.metrics,
        },
        sort_keys=True,
    )


def shrink_finding(program, key, bug=None, jobs=None):
    return shrink_entry(HutTarget, program, key, (bug, None), jobs=jobs)


@pytest.mark.parametrize("target", TARGETS)
def test_campaign_byte_reproducible(target):
    config = FuzzConfig(target=target, seed=13, budget=10, length=24)
    first = fuzz(config)
    second = fuzz(config)
    assert _report_json(first) == _report_json(second)


def test_campaign_identical_at_jobs_1_and_2():
    config = FuzzConfig(target="ept", seed=13, budget=12, length=24)
    serial = fuzz(config, jobs=1)
    parallel = fuzz(config, jobs=2)
    assert _report_json(serial) == _report_json(parallel)
    assert serial.executions == 12


@pytest.mark.parametrize("target", TARGETS)
def test_clean_campaign_is_silent(target):
    # No false positives: a bug-free emulator never diverges from the
    # reference, never trips self-consistency, never crashes.
    result = fuzz(
        FuzzConfig(target=target, seed=3, budget=12, length=32)
    )
    assert result.findings == []
    assert result.crashes == 0
    assert len(result.coverage) > 0


@pytest.mark.parametrize(
    "bug,target", sorted(BUG_TARGETS.items()), ids=sorted(BUG_TARGETS)
)
def test_every_seeded_bug_is_killed(bug, target):
    # The mutation-kill audit: budget and seed are fixed, so a detector
    # regression shows up as a deterministic test failure, not flake.
    result = fuzz(
        FuzzConfig(target=target, seed=1, budget=20, length=48, bug=bug)
    )
    assert result.findings, f"seeded bug {bug!r} survived {target} campaign"


def test_bug_targets_cover_all_seeded_bugs():
    assert sorted(BUG_TARGETS) == sorted(SEEDED_BUGS)
    assert set(BUG_TARGETS.values()) <= set(TARGETS)


def test_config_rejects_unknown_target_and_bug():
    with pytest.raises(ValueError):
        FuzzConfig(target="gpu", seed=1)
    with pytest.raises(ValueError):
        FuzzConfig(target="ept", seed=1, bug="no-such-bug")


def test_every_mutator_class_applies():
    # Each mutator must actually fire on at least one target's programs
    # — a silently dead mutator class would shrink the search space
    # without failing any test.
    applied = set()
    rng = random.Random(7)
    for target in TARGETS:
        program = generate_program(target, 5, length=32)
        for _ in range(40):
            _mutated, names = mutate_program(program, rng, n_mutations=2)
            applied.update(names)
    assert applied == set(MUTATORS)


def test_finding_key_reproduces_and_shrinks():
    bug = "msr-truncate"
    program = generate_program("msr", 1, length=48)
    findings, _features, _harness = run_candidate(program, bug=bug)
    assert findings
    key = findings[0].key()

    predicate = FindingPredicate(HutTarget, program, key, (bug, None))
    assert predicate(program.ops)
    assert not predicate([])  # ddmin never tries it, but the contract holds

    shrunk = shrink_finding(program, key, bug=bug)
    assert 0 < len(shrunk.ops) < len(program.ops)
    assert predicate(shrunk.ops)
    # 1-minimality: dropping any single op loses the finding.
    for index in range(len(shrunk.ops)):
        subset = shrunk.ops[:index] + shrunk.ops[index + 1:]
        if subset:
            assert not predicate(subset)


def test_shrink_identical_at_jobs_1_and_2():
    bug = "ept-exec-bypass"
    program = generate_program("ept", 1, length=48)
    findings, _features, _harness = run_candidate(program, bug=bug)
    assert findings
    key = findings[0].key()
    serial = shrink_finding(program, key, bug=bug, jobs=1)
    parallel = shrink_finding(program, key, bug=bug, jobs=2)
    assert [op.to_record() for op in serial.ops] == [
        op.to_record() for op in parallel.ops
    ]


def test_shrink_rejects_non_reproducing_key():
    program = generate_program("ept", 1, length=16)
    with pytest.raises(ValueError):
        shrink_finding(program, "divergence:hut-ref:at=nowhere,target=ept")
