"""The performance ledger (repro.bench): entries, comparison, CLI."""

from __future__ import annotations

import copy
import json

from repro.bench import (
    COLUMNS,
    compare_entries,
    floor_problems,
    ledger_entries,
    write_entry,
)
from repro.bench.__main__ import main


def _entry(**overrides):
    entry = {
        "schema": 1,
        "written_at_unix": 0.0,
        "scale": 1.0,
        "jobs": 2,
        "python": "3.11.7",
        "metrics": {
            "replay_events_per_s": 100_000.0,
            "campaign_trials_per_s_serial": 8.0,
            "campaign_trials_per_s_parallel": 14.0,
            "parallel_speedup": 1.75,
            "figure_wall_s": {"table3": 10.0, "fig7": 20.0},
            "serve_sustained_events_per_s": 60_000.0,
            "serve_p99_exit_to_verdict_ns": 676_607,
            "hut_execs_per_s": 25.0,
            "trace_overhead_pct": 2.0,
        },
        "detail": {},
    }
    entry.update(overrides)
    return entry


class TestLedger:
    def test_entries_number_sequentially(self, tmp_path):
        ledger = str(tmp_path / "ledger")
        first = write_entry(ledger, _entry())
        second = write_entry(ledger, _entry(jobs=4))
        assert first.endswith("BENCH_0001.json")
        assert second.endswith("BENCH_0002.json")
        assert [n for n, _ in ledger_entries(ledger)] == [1, 2]
        with open(ledger_entries(ledger)[-1][1], encoding="utf-8") as fh:
            assert json.load(fh)["jobs"] == 4

    def test_empty_ledger(self, tmp_path):
        assert ledger_entries(str(tmp_path)) == []
        assert ledger_entries(str(tmp_path / "missing")) == []

    def test_non_ledger_files_ignored(self, tmp_path):
        (tmp_path / "README.md").write_text("not an entry")
        (tmp_path / "BENCH_notanumber.json").write_text("{}")
        write_entry(str(tmp_path), _entry())
        assert [n for n, _ in ledger_entries(str(tmp_path))] == [1]

    def test_entries_are_valid_json(self, tmp_path):
        path = write_entry(str(tmp_path), _entry())
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded["metrics"]["replay_events_per_s"] == 100_000.0


class TestCompare:
    def test_identical_entries_pass(self):
        assert compare_entries(_entry(), _entry()) == []

    def test_throughput_regression_flagged(self):
        current = copy.deepcopy(_entry())
        current["metrics"]["replay_events_per_s"] = 70_000.0  # -30%
        problems = compare_entries(_entry(), current, threshold=0.20)
        assert len(problems) == 1
        assert "replay_events_per_s" in problems[0]

    def test_wall_time_regression_flagged(self):
        current = copy.deepcopy(_entry())
        current["metrics"]["figure_wall_s"]["fig7"] = 30.0  # +50%
        problems = compare_entries(_entry(), current, threshold=0.20)
        assert len(problems) == 1
        assert "fig7" in problems[0]

    def test_improvements_and_jitter_pass(self):
        current = copy.deepcopy(_entry())
        current["metrics"]["replay_events_per_s"] = 150_000.0  # faster
        current["metrics"]["figure_wall_s"]["table3"] = 11.5  # +15% < 20%
        current["metrics"]["campaign_trials_per_s_serial"] = 7.0  # -12.5%
        assert compare_entries(_entry(), current, threshold=0.20) == []

    def test_threshold_is_configurable(self):
        current = copy.deepcopy(_entry())
        current["metrics"]["campaign_trials_per_s_serial"] = 7.0  # -12.5%
        assert compare_entries(_entry(), current, threshold=0.10) != []

    def test_mismatched_knobs_are_incomparable(self):
        problems = compare_entries(_entry(), _entry(scale=2.0))
        assert problems and "not comparable" in problems[0]
        problems = compare_entries(_entry(), _entry(jobs=8))
        assert problems and "not comparable" in problems[0]

    def test_unknown_figures_ignored(self):
        # A figure timed only on one side is not comparable; skip it.
        previous = _entry()
        current = copy.deepcopy(_entry())
        del current["metrics"]["figure_wall_s"]["fig7"]
        current["metrics"]["figure_wall_s"]["ninjas"] = 5.0
        assert compare_entries(previous, current) == []

    def test_serve_ingest_regression_flagged(self):
        current = copy.deepcopy(_entry())
        current["metrics"]["serve_sustained_events_per_s"] = 40_000.0  # -33%
        problems = compare_entries(_entry(), current, threshold=0.20)
        assert len(problems) == 1
        assert "serve_sustained_events_per_s" in problems[0]

    def test_serve_p99_is_compared_exactly(self):
        # The p99 column is virtual-clock-deterministic: any drift at
        # all is a behaviour change, threshold notwithstanding.
        current = copy.deepcopy(_entry())
        current["metrics"]["serve_p99_exit_to_verdict_ns"] = 676_608  # +1ns
        problems = compare_entries(_entry(), current, threshold=0.99)
        assert len(problems) == 1
        assert "serve_p99_exit_to_verdict_ns" in problems[0]
        assert "deterministic" in problems[0]

    def test_hut_regression_flagged(self):
        current = copy.deepcopy(_entry())
        current["metrics"]["hut_execs_per_s"] = 15.0  # -40%
        problems = compare_entries(_entry(), current, threshold=0.20)
        assert len(problems) == 1
        assert "hut_execs_per_s" in problems[0]

    def test_entries_without_hut_column_stay_comparable(self):
        previous = _entry()
        del previous["metrics"]["hut_execs_per_s"]
        assert compare_entries(previous, _entry()) == []
        assert compare_entries(_entry(), previous) == []

    def test_entries_without_serve_columns_stay_comparable(self):
        # Ledger entries written before the serve columns existed must
        # not fail the gate on the missing keys.
        previous = _entry()
        del previous["metrics"]["serve_sustained_events_per_s"]
        del previous["metrics"]["serve_p99_exit_to_verdict_ns"]
        assert compare_entries(previous, _entry()) == []
        assert compare_entries(_entry(), previous) == []


class TestFloors:
    """Absolute performance floors — unlike compare_entries, these gate
    even the very first (baseline) ledger entry."""

    def _passing(self):
        entry = _entry()
        entry["metrics"]["replay_events_per_s"] = 1_400_000.0
        entry["metrics"]["parallel_speedup"] = 1.95
        return entry

    def test_passing_entry_has_no_problems(self):
        assert floor_problems(self._passing()) == []

    def test_slow_replay_is_flagged(self):
        [headline] = [c for c in COLUMNS if c.name == "replay_events_per_s"]
        entry = self._passing()
        entry["metrics"]["replay_events_per_s"] = headline.floor * 0.99
        problems = floor_problems(entry)
        assert len(problems) == 1
        assert "replay_events_per_s" in problems[0]
        assert "floor" in problems[0]

    def test_weak_speedup_is_flagged(self):
        entry = self._passing()
        entry["metrics"]["parallel_speedup"] = 1.5
        problems = floor_problems(entry)
        assert len(problems) == 1
        assert "parallel_speedup" in problems[0]

    def test_missing_metric_is_flagged_not_skipped(self):
        entry = self._passing()
        del entry["metrics"]["parallel_speedup"]
        problems = floor_problems(entry)
        assert len(problems) == 1
        assert "missing" in problems[0]

    def test_small_scale_skips_floors(self):
        # Sub-half-scale smoke runs (e.g. the CLI test below at 0.25)
        # measure too little work for the floors to be meaningful.
        entry = _entry(scale=0.25)
        entry["metrics"]["replay_events_per_s"] = 10.0
        entry["metrics"]["parallel_speedup"] = 0.1
        assert floor_problems(entry) == []

    def test_serial_run_skips_speedup_floor_only(self):
        entry = self._passing()
        entry["jobs"] = 1
        entry["metrics"]["parallel_speedup"] = 1.0
        assert floor_problems(entry) == []
        entry["metrics"]["replay_events_per_s"] = 10.0
        problems = floor_problems(entry)
        assert len(problems) == 1
        assert "replay_events_per_s" in problems[0]

    def test_trace_overhead_above_ceiling_is_flagged(self):
        entry = self._passing()
        entry["metrics"]["trace_overhead_pct"] = 7.5
        problems = floor_problems(entry)
        assert len(problems) == 1
        assert "trace_overhead_pct" in problems[0]
        assert "ceiling" in problems[0]

    def test_missing_trace_overhead_is_flagged_not_skipped(self):
        entry = self._passing()
        del entry["metrics"]["trace_overhead_pct"]
        problems = floor_problems(entry)
        assert len(problems) == 1
        assert "trace_overhead_pct" in problems[0]
        assert "missing" in problems[0]

    def test_trace_overhead_is_not_relatively_compared(self):
        # The overhead column is wall-clock-noisy: it is gated by the
        # absolute ceiling, never by run-to-run relative drift.
        current = copy.deepcopy(_entry())
        current["metrics"]["trace_overhead_pct"] = 4.9  # vs 2.0 baseline
        assert compare_entries(_entry(), current, threshold=0.20) == []


class TestColumnCompat:
    """Entries written before this ledger's columns existed must stay
    comparable — the gate skips what one side never measured."""

    def test_entries_without_parallel_speedup_stay_comparable(self):
        previous = _entry()
        del previous["metrics"]["parallel_speedup"]
        assert compare_entries(previous, _entry()) == []
        assert compare_entries(_entry(), previous) == []

    def test_entries_without_pipeline_column_stay_comparable(self):
        current = copy.deepcopy(_entry())
        current["metrics"]["replay_pipeline_events_per_s"] = 120_000.0
        assert compare_entries(_entry(), current) == []
        assert compare_entries(current, _entry()) == []

    def test_pipeline_regression_flagged_when_both_sides_have_it(self):
        previous = copy.deepcopy(_entry())
        previous["metrics"]["replay_pipeline_events_per_s"] = 120_000.0
        current = copy.deepcopy(_entry())
        current["metrics"]["replay_pipeline_events_per_s"] = 80_000.0  # -33%
        problems = compare_entries(previous, current, threshold=0.20)
        assert len(problems) == 1
        assert "replay_pipeline_events_per_s" in problems[0]


class TestCli:
    def test_quick_run_writes_and_checks(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger")
        argv = [
            "--scale",
            "0.25",
            "--rounds",
            "1",
            "--jobs",
            "2",
            "--figures",
            "none",
            "--ledger-dir",
            ledger,
            "--check",
        ]
        # First run: baseline (no prior entry), writes BENCH_0001.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "baseline run" in out
        [(number, path)] = ledger_entries(ledger)
        assert number == 1
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        assert entry["scale"] == 0.25
        assert entry["jobs"] == 2
        assert entry["detail"]["campaign"]["parallel_identical"] is True
        metrics = entry["metrics"]
        assert metrics["replay_events_per_s"] > 0
        assert metrics["campaign_trials_per_s_serial"] > 0
        assert metrics["campaign_trials_per_s_parallel"] > 0
        assert metrics["figure_wall_s"] == {}
        assert metrics["hut_execs_per_s"] > 0
        assert entry["detail"]["hut"]["clean"] is True

        # Second run: compared against the first; measurements of the
        # same deterministic workload land within the 20% gate unless
        # the machine is pathologically loaded, and --no-write keeps
        # the ledger at one entry either way.
        status = main(argv + ["--no-write", "--threshold", "0.95"])
        assert status == 0
        assert len(ledger_entries(ledger)) == 1


class TestHistory:
    """``--check`` gates against the best of the recent comparable
    entries, so drift cannot ratchet one tolerated step at a time."""

    def _check(self, monkeypatch, ledger, fresh):
        monkeypatch.setattr("repro.bench.__main__.collect", lambda **_: fresh)
        return main(["--check", "--no-write", "--ledger-dir", ledger])

    def _at(self, rate, **knobs):
        entry = _entry(**{"scale": 0.25, "schema": 2, **knobs})
        entry["metrics"]["replay_events_per_s"] = rate
        return entry

    def test_ten_percent_steps_do_not_ratchet(self, tmp_path, monkeypatch):
        ledger = str(tmp_path / "ledger")
        for rate in (100.0, 90.0, 81.0):
            write_entry(ledger, self._at(rate))
        # -10% against the latest entry, -27% against the best of three.
        assert self._check(monkeypatch, ledger, self._at(72.9)) == 1
        assert self._check(monkeypatch, ledger, self._at(81.0)) == 0

    def test_only_the_last_three_comparable_entries_count(
        self, tmp_path, monkeypatch
    ):
        ledger = str(tmp_path / "ledger")
        write_entry(ledger, self._at(1000.0))  # fell out of the window
        write_entry(ledger, self._at(5000.0, jobs=4))  # other knobs
        write_entry(ledger, self._at(5000.0, schema=1))  # other schema
        for rate in (100.0, 90.0, 95.0):
            write_entry(ledger, self._at(rate))
        assert self._check(monkeypatch, ledger, self._at(85.0)) == 0
        assert self._check(monkeypatch, ledger, self._at(79.0)) == 1

    def test_exact_columns_compare_against_the_latest_entry(
        self, tmp_path, monkeypatch
    ):
        ledger = str(tmp_path / "ledger")
        for p99 in (600_000, 676_607):
            entry = self._at(100.0)
            entry["metrics"]["serve_p99_exit_to_verdict_ns"] = p99
            write_entry(ledger, entry)
        assert self._check(monkeypatch, ledger, self._at(100.0)) == 0
        fresh = self._at(100.0)
        fresh["metrics"]["serve_p99_exit_to_verdict_ns"] = 600_000
        assert self._check(monkeypatch, ledger, fresh) == 1
