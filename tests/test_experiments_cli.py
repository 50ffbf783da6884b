"""Tests for the experiments CLI.

Reports come from the session's one run of each runner (the
``paper_result`` fixture, which drives ``main``).
"""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.__main__ import main


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        assert set(EXPERIMENTS) >= {
            "fig4", "fig5", "table2", "table3", "ninjas", "fig7",
            "ablation", "rhc", "detectors", "threshold",
        }

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestRunners:
    def test_table2_report(self, paper_result):
        report = paper_result("table2")[1]
        assert "SucKIT" in report
        assert "DETECTED" in report
        assert "MISSED" not in report

    def test_rhc_report(self, paper_result):
        report = paper_result("rhc")[1]
        assert "alarm latency" in report
        assert "YES" not in report  # no false alarms

    def test_ablation_report(self, paper_result):
        report = paper_result("ablation")[1]
        assert "unified" in report
        assert "separate" in report


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out

    def test_unknown_name_exit_code(self, capsys):
        assert main(["not-an-experiment"]) == 2

    def test_run_single(self, paper_result):
        out = paper_result("rhc")[1]
        assert out.startswith("\n===== rhc =====\n")
        assert "RHC liveness" in out
