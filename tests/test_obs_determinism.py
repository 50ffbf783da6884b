"""The repro.obs reproducibility contract: byte-identical exports
live vs replayed, at any job count, and against the committed golden
snapshot — plus the CLI surfaces fuzz triage keys on."""

from __future__ import annotations

import os

import pytest

from repro.faults.campaign import run_campaign
from repro.faults.sites import FaultClass, build_site_catalog
from repro.faults.injector import InjectionMode
from repro.faults.campaign import TrialConfig
from repro.obs.__main__ import main as obs_main
from repro.obs.metrics import merge_snapshots
from repro.obs.report import (
    collect_live,
    collect_replay,
    collect_seeds,
    export_lines,
)
from repro.replay.recorder import record_scenario
from repro.sim.clock import SECOND
from repro.testing.fuzzer import FuzzConfig, fuzz

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_TRACE = os.path.join(DATA_DIR, "golden_exploit.jsonl")
GOLDEN_OBS = os.path.join(DATA_DIR, "golden_exploit_obs.jsonl")


class TestLiveVsReplay:
    @pytest.mark.parametrize("scenario", ["exploit", "rootkit"])
    def test_pipeline_scope_is_byte_identical(self, scenario):
        run = record_scenario(scenario, seed=0)
        live = export_lines(run.metrics)
        replay = export_lines(collect_replay(run.trace))
        assert live == replay

    def test_live_export_contains_verdict_accounting(self):
        lines = "\n".join(export_lines(collect_live("exploit", seed=0)))
        assert '"verdicts"' in lines
        assert '"latency.exit_to_verdict_ns"' in lines
        assert '"kind": "span"' in lines

    def test_host_scope_only_exists_live(self):
        run = record_scenario("exploit", seed=0)
        live_host = export_lines(run.metrics, scope="host")
        replay_host = export_lines(collect_replay(run.trace), scope="host")
        assert any('"exits"' in line for line in live_host)
        assert not any('"exits"' in line for line in replay_host)


class TestJobCountInvariance:
    def test_seed_fanout_identical_at_1_2_8_jobs(self):
        exports = [
            export_lines(
                collect_seeds("exploit", [0, 1, 2, 3], jobs=jobs)
            )
            for jobs in (1, 2, 8)
        ]
        assert exports[0] == exports[1] == exports[2]

    def test_campaign_metrics_identical_serial_vs_parallel(self):
        sites = [
            s
            for s in build_site_catalog()
            if s.function == "tty_write"
            and s.fault_class is FaultClass.MISSING_RELEASE
        ][:1]
        kwargs = dict(
            workloads=("hanoi",),
            modes=(InjectionMode.TRANSIENT,),
            preempt_options=(False, True),
            seeds=(0,),
            base_config=TrialConfig(
                warmup_ns=1 * SECOND,
                detect_window_ns=6 * SECOND,
                classify_window_ns=8 * SECOND,
            ),
        )
        serial = run_campaign(sites, jobs=1, **kwargs)
        fanned = run_campaign(sites, jobs=2, **kwargs)
        def merged(summary):
            # Trials fold in grid order, never completion order.
            return merge_snapshots(r.metrics for r in summary.results).snapshot()

        a = export_lines(merged(serial), scope="all")
        b = export_lines(merged(fanned), scope="all")
        assert a == b
        assert any('"exits"' in line for line in a)

    def test_fuzz_campaign_metrics_are_reproducible(self):
        # One trace target and one hut target through the same core.
        for target in ("exploit", "msr"):
            config = FuzzConfig(target=target, seed=5, budget=4)
            first = fuzz(config)
            second = fuzz(config)
            assert first.metrics == second.metrics, target
            assert export_lines(first.metrics), target  # non-empty pipeline scope


class TestGoldenSnapshot:
    def test_golden_trace_reproduces_committed_obs_export(self, tmp_path):
        # The CI obs-smoke step runs this same comparison from the
        # command line, for the JSONL trace and its btrace conversion;
        # regenerate with
        #   python -m repro.obs report tests/data/golden_exploit.jsonl
        with open(GOLDEN_OBS, "r", encoding="utf-8") as fh:
            committed = fh.read().splitlines()
        from repro.obs.report import collect_trace
        from repro.replay.btrace import convert_trace

        btr = str(tmp_path / "golden.btr")
        convert_trace(GOLDEN_TRACE, btr)
        for path in (GOLDEN_TRACE, btr):
            fresh = export_lines(collect_trace(path))
            assert fresh == committed, path


class TestCli:
    def test_report_trace_then_diff_identical(self, tmp_path, capsys):
        assert obs_main(["report", GOLDEN_TRACE]) == 0
        out = capsys.readouterr().out
        export = tmp_path / "a.jsonl"
        export.write_text(out, encoding="utf-8")
        assert obs_main(["diff", str(export), GOLDEN_OBS]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_nonidentical_exits_1(self, tmp_path, capsys):
        with open(GOLDEN_OBS, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        mutated = tmp_path / "b.jsonl"
        mutated.write_text(
            "\n".join(lines[:-1]) + "\n", encoding="utf-8"
        )
        assert obs_main(["diff", GOLDEN_OBS, str(mutated)]) == 1
        assert "only in A" in capsys.readouterr().out

    def test_report_without_source_is_usage_error(self, capsys):
        assert obs_main(["report"]) == 2
        assert "trace path or --scenario" in capsys.readouterr().err

    def test_bad_input_is_graceful_exit_2(self, tmp_path, capsys):
        # Same contract as python -m repro.replay: bad input must give
        # a one-line error and exit 2, never a traceback.
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\n", encoding="utf-8")
        assert obs_main(["diff", GOLDEN_OBS, str(garbage)]) == 2
        assert "error:" in capsys.readouterr().err
        assert obs_main(["top", str(tmp_path / "missing.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_top_renders_largest_counters(self, capsys):
        assert obs_main(["top", GOLDEN_OBS, "-n", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        assert "flow.published" in "".join(out)

    def test_report_scenario_live_equals_replay(self, capsys):
        assert obs_main(
            ["report", "--scenario", "exploit", "--source", "live"]
        ) == 0
        live = capsys.readouterr().out
        assert obs_main(
            ["report", "--scenario", "exploit", "--source", "replay"]
        ) == 0
        assert live == capsys.readouterr().out
