"""Unit tests for the generalized ddmin reducer.

`repro.testing.shrink.ddmin` now takes an arbitrary item sequence and
a pluggable boolean predicate (``shrink_entry`` drives it for hut
programs and traces alike).  These tests pin the reducer contract
in isolation, on predicates cheap enough to exhaust:

* minimization to exactly the relevant subset under a monotone
  predicate, and 1-minimality of the result;
* ``ValueError`` when the predicate does not hold on the full input;
* the ``max_tests`` budget bounds predicate evaluations;
* byte-identical results (and test counts) at ``jobs=1`` vs ``jobs=2``
  — the parallel path is speculative, committing in serial order.

CLI-level byte reproducibility of ``fuzz``/``shrink`` on hut targets
rides along at the bottom, since the acceptance contract is phrased
against the command line.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.testing import ddmin
from repro.testing.__main__ import main


# ======================================================================
# ddmin unit tests
# ======================================================================
class ContainsMarkers:
    """Monotone predicate: candidate keeps every marker item.

    Module-level class so ``jobs=2`` can pickle instances into worker
    processes; it also counts serial-path evaluations.
    """

    def __init__(self, markers):
        self.markers = frozenset(markers)
        self.calls = 0

    def __call__(self, candidate):
        self.calls += 1
        return self.markers <= set(candidate)


def test_ddmin_minimizes_to_marker_set():
    items = list(range(40))
    predicate = ContainsMarkers({3, 17, 31})
    result = ddmin(items, predicate)
    assert result == [3, 17, 31]  # minimal, original order preserved


def test_ddmin_result_is_one_minimal():
    items = list(range(24))
    markers = {1, 8, 9, 20}
    result = ddmin(items, ContainsMarkers(markers))
    check = ContainsMarkers(markers)
    assert check(result)
    for index in range(len(result)):
        assert not check(result[:index] + result[index + 1:])


def test_ddmin_threshold_predicate():
    # Non-singleton minima: "at least 3 even numbers" is monotone but
    # no specific item is required; the reducer must land on exactly 3.
    items = list(range(30))
    result = ddmin(items, lambda c: sum(1 for x in c if x % 2 == 0) >= 3)
    assert len(result) == 3
    assert all(x % 2 == 0 for x in result)


def test_ddmin_raises_on_non_reproducing_input():
    with pytest.raises(ValueError):
        ddmin(list(range(10)), lambda c: 99 in c)


def test_ddmin_respects_max_tests():
    predicate = ContainsMarkers({5})
    ddmin(list(range(64)), predicate, max_tests=10)
    # One qualifying call on the full input plus at most max_tests
    # candidate evaluations.
    assert predicate.calls <= 11


def test_ddmin_single_item_and_trivial_inputs():
    assert ddmin([7], lambda c: 7 in c) == [7]
    always = lambda c: True  # noqa: E731
    assert ddmin([1, 2, 3], always) in ([1], [2], [3])


def test_ddmin_identical_at_jobs_1_and_2():
    items = list(range(50))
    markers = {2, 3, 29, 41, 47}
    serial = ddmin(items, ContainsMarkers(markers), jobs=1)
    parallel = ddmin(items, ContainsMarkers(markers), jobs=2)
    assert serial == parallel == sorted(markers)


def test_ddmin_budget_identical_at_jobs_1_and_2():
    # The parallel path commits in serial order and discards
    # speculative evaluations unpaid, so a tight budget cuts the
    # reduction off at the same point regardless of job count.
    items = list(range(48))
    for budget in (5, 9, 17):
        serial = ddmin(items, ContainsMarkers({11, 30}),
                       max_tests=budget, jobs=1)
        parallel = ddmin(items, ContainsMarkers({11, 30}),
                         max_tests=budget, jobs=2)
        assert serial == parallel


# ======================================================================
# CLI byte-reproducibility (the acceptance phrasing of determinism)
# ======================================================================
def _run_hut_fuzz(tmp_path, name, jobs):
    out = tmp_path / name
    rc = main([
        "fuzz", "--target", "msr", "--seed", "5", "--budget", "8",
        "--length", "24", "--jobs", str(jobs), "--out", str(out),
    ])
    assert rc == 0
    return out.read_bytes()


def test_cli_hut_fuzz_byte_reproducible(tmp_path):
    first = _run_hut_fuzz(tmp_path, "a.jsonl", jobs=1)
    second = _run_hut_fuzz(tmp_path, "b.jsonl", jobs=1)
    sharded = _run_hut_fuzz(tmp_path, "c.jsonl", jobs=2)
    assert first == second == sharded


def test_cli_hut_fuzz_then_shrink_round_trip(tmp_path, capsys):
    artifacts = tmp_path / "findings"
    rc = main([
        "fuzz", "--target", "ept", "--seed", "1", "--budget", "16",
        "--inject-bug", "ept-exec-bypass", "--artifacts", str(artifacts),
    ])
    assert rc == 0
    capsys.readouterr()
    witnesses = sorted(artifacts.glob("hut-*.jsonl"))
    assert witnesses
    shrunk_path = tmp_path / "shrunk.jsonl"
    rc = main([
        "shrink", str(witnesses[0]), "--out", str(shrunk_path),
    ])
    assert rc == 0
    capsys.readouterr()
    lines = shrunk_path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["hut"]["ops"] == len(lines) - 1
    assert header["hut"]["ops"] < 48
    sharded_path = tmp_path / "shrunk-j2.jsonl"
    rc = main([
        "shrink", str(witnesses[0]), "--jobs", "2",
        "--out", str(sharded_path),
    ])
    assert rc == 0
    assert sharded_path.read_bytes() == shrunk_path.read_bytes()


def test_cli_rejects_unknown_bug(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "--target", "msr", "--seed", "1",
              "--inject-bug", "nope"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
