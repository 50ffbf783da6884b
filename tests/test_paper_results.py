"""Every paper result of ``repro.experiments``, pinned and checked.

Each runner runs once a session (the ``paper_result`` fixture, at the
arguments in ``conftest.GOLDEN_ARGS``).  Its CLI report must match
``tests/data/golden_<name>.txt`` byte for byte, and its result object
must show the paper's shape: who wins, and roughly by how much.  The
three slowest results (``ninjas``, ``detectors``, ``threshold``) carry
the ``nightly`` marker, which tier-1 deselects.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.stats import fraction_at_or_below
from repro.experiments.runners import detection_rates
from repro.faults.campaign import Outcome
from repro.sim.clock import SECOND

DATA = Path(__file__).parent / "data"

nightly = pytest.mark.nightly


@pytest.mark.parametrize(
    "name",
    ["table2", "table3", "ablation", "rhc", "fig7", "fig4",
     pytest.param("ninjas", marks=nightly),
     pytest.param("detectors", marks=nightly),
     pytest.param("threshold", marks=nightly)],
)
def test_report_matches_golden(paper_result, name):
    _result, stdout = paper_result(name)
    assert stdout == (DATA / f"golden_{name}.txt").read_text(encoding="utf-8")


# ======================================================================
# Fig 4 / Fig 5 — GOSHD coverage and detection latency (§VIII-A)
# ======================================================================
class TestFig4:
    @pytest.fixture
    def summary(self, paper_result):
        return paper_result("fig4")[0].summary

    def test_goshd_detects_nearly_all_hangs(self, summary):
        assert summary.coverage() >= 0.95, "GOSHD must detect nearly all true hangs"

    def test_campaign_produces_hangs(self, summary):
        hangs = sum(
            1
            for r in summary.results
            if r.outcome in (Outcome.PARTIAL_HANG, Outcome.FULL_HANG)
        )
        assert hangs > 0, "the campaign must produce hangs"

    def test_partial_hangs_are_significant(self, summary):
        assert summary.partial_hang_fraction() > 0.05, (
            "partial hangs are a significant fraction (the paper's new "
            "failure mode)"
        )


class TestFig5:
    @pytest.fixture
    def summary(self, paper_result):
        return paper_result("fig4")[0].summary

    def test_campaign_has_detections(self, summary):
        assert summary.detection_latencies_s(), (
            "campaign produced no detections to measure"
        )

    def test_most_hangs_detected_soon_after_threshold(self, summary):
        assert fraction_at_or_below(summary.detection_latencies_s(), 8.0) >= 0.6, (
            "most hangs must be detected shortly after the 4s threshold"
        )

    def test_no_detection_takes_longer_than_32s(self, summary):
        assert max(summary.detection_latencies_s()) <= 32.0

    def test_partial_alarm_comes_no_later_than_full_hang(self, summary):
        # Partial-hang detection buys warning time: in every trial that
        # reached a full hang, the first (partial) alarm came no later.
        for result in summary.results:
            full_latency = result.full_hang_latency_ns
            if full_latency is not None:
                assert result.detection_latency_ns <= full_latency


# ======================================================================
# Table II — HRKD vs the rootkit zoo (§VIII-B)
# ======================================================================
class TestTable2:
    @pytest.fixture
    def rows(self, paper_result):
        return paper_result("table2")[0].rows

    def test_every_rootkit_hides_its_victim(self, rows):
        assert all(r.hidden for r in rows), "every rootkit must hide its victim"

    def test_hrkd_detects_every_rootkit(self, rows):
        assert all(r.detected for r in rows), "HRKD must detect every rootkit"

    def test_vmi_is_fooled_only_by_some_techniques(self, rows):
        # DKOM/kmem rootkits also fool the OS-invariant (VMI) view; pure
        # syscall hijackers do not — the technique split of §VII-B.
        assert any(r.fools_vmi for r in rows)
        assert any(not r.fools_vmi for r in rows)


# ======================================================================
# Table III — /proc side channel on O-Ninja's interval (§VIII-C1)
# ======================================================================
class TestTable3:
    @pytest.fixture
    def estimates(self, paper_result):
        return paper_result("table3")[0].estimates

    def test_every_interval_is_estimated(self, estimates):
        for estimate in estimates.values():
            assert estimate is not None and estimate.samples

    def test_predicted_mean_within_5ms(self, estimates):
        for interval, estimate in estimates.items():
            assert abs(estimate.mean - interval) < 0.005

    def test_spread_is_tight(self, estimates):
        # Precise enough to time transient attacks into the blind window.
        for estimate in estimates.values():
            assert estimate.stdev < 0.002


# ======================================================================
# §VIII-C2 — the three Ninjas
# ======================================================================
@nightly
class TestNinjas:
    @pytest.fixture
    def result(self, paper_result):
        return paper_result("ninjas")[0]

    def test_every_attack_escalates(self, result):
        for curve in (result.spam, result.interval):
            for trials in curve.values():
                assert all(trial.escalated for trial in trials)

    def test_spamming_kills_oninja_monotonically(self, result):
        o = {spam: detection_rates(trials).o_ninja for spam, trials in result.spam.items()}
        assert o[0] >= o[100] >= o[200]

    def test_oninja_catches_some_attacks_unspammed(self, result):
        assert detection_rates(result.spam[0]).o_ninja > 0.0, (
            "some baseline detections expected"
        )

    def test_oninja_collapses_under_heavy_spam(self, result):
        assert detection_rates(result.spam[200]).o_ninja <= 0.10

    def test_htninja_immune_to_spamming(self, result):
        for trials in result.spam.values():
            assert detection_rates(trials).ht_ninja == 1.0

    def test_hninja_catches_all_at_4ms(self, result):
        assert detection_rates(result.interval[4]).h_ninja >= 0.9, (
            "4ms interval must catch ~all attacks"
        )

    def test_hninja_falls_off_with_interval(self, result):
        h = {ms: detection_rates(trials).h_ninja for ms, trials in result.interval.items()}
        assert h[4] >= h[8] >= h[20] >= h[40]

    def test_hninja_mostly_misses_at_40ms(self, result):
        assert detection_rates(result.interval[40]).h_ninja <= 0.35

    def test_htninja_immune_to_interval(self, result):
        for trials in result.interval.values():
            assert detection_rates(trials).ht_ninja == 1.0


# ======================================================================
# Fig 7 — monitoring overhead (§IX)
# ======================================================================
class TestFig7:
    @pytest.fixture
    def fig7(self, paper_result):
        return paper_result("fig7")[0]

    def test_cpu_bound_under_2_percent(self, fig7):
        for workload in ("dhrystone", "whetstone"):
            assert fig7.overhead("all", workload) < 2.0

    def test_disk_bound_under_5_percent(self, fig7):
        for workload in ("file-copy-256", "file-copy-1024", "file-copy-4096",
                         "disk-io"):
            assert fig7.overhead("all", workload) < 5.0

    def test_syscall_micro_heaviest_and_led_by_htninja(self, fig7):
        assert 10.0 < fig7.overhead("all", "syscall") < 25.0
        assert fig7.overhead("HT-Ninja", "syscall") > fig7.overhead("HRKD", "syscall")

    def test_context_switch_noticeable_below_syscall(self, fig7):
        ctx_all = fig7.overhead("all", "context-switch")
        assert 3.0 < ctx_all < 16.0
        assert ctx_all < fig7.overhead("all", "syscall")

    def test_combined_tracks_slowest_not_sum(self, fig7):
        # Unified logging: combined ~= max(individual), well below the sum.
        for workload in ("syscall", "context-switch", "file-copy-1024"):
            individuals = [
                fig7.overhead(name, workload) for name in ("GOSHD", "HRKD", "HT-Ninja")
            ]
            combined = fig7.overhead("all", workload)
            assert combined <= max(individuals) + 2.0, (
                f"{workload}: combined {combined:.1f}% should track the "
                f"slowest individual {max(individuals):.1f}%"
            )
            assert combined < sum(individuals) + 2.0


# ======================================================================
# §IV-A ablation — unified logging vs per-monitor pipelines
# ======================================================================
class TestUnifiedAblation:
    @pytest.fixture
    def timings(self, paper_result):
        return paper_result("ablation")[0].timings

    def test_separate_pipelines_cost_more(self, timings):
        for workload, t in timings.items():
            assert t["separate"] > t["unified"], (
                f"{workload}: separate pipelines must cost more than the "
                "unified channel"
            )

    def test_duplication_clear_on_switch_heavy_work(self, timings):
        # Three monitors sharing switch events: the duplication should be
        # clearly visible, not marginal.
        ctx = timings["context-switch"]
        assert ctx["separate"] - ctx["baseline"] >= 1.5 * (
            ctx["unified"] - ctx["baseline"]
        )


# ======================================================================
# §VII-D ablation — invariant-based GOSHD vs a learned detector
# ======================================================================
@nightly
class TestDetectors:
    @pytest.fixture
    def result(self, paper_result):
        return paper_result("detectors")[0]

    def test_learned_detector_trains_before_each_failure(self, result):
        for trial in result.hangs:
            assert trial.trained
        assert result.storm.trained

    def test_both_detect_every_hang(self, result):
        for trial in result.hangs:
            assert trial.goshd_latency_s is not None
            assert trial.vigilant_latency_s is not None

    def test_syscall_storm_is_not_a_hang(self, result):
        assert not result.storm.goshd_detected

    def test_learned_detector_flags_the_storm(self, result):
        assert result.storm.vigilant_detected


# ======================================================================
# §VII-A2 ablation — GOSHD threshold selection
# ======================================================================
@nightly
class TestThreshold:
    @pytest.fixture
    def result(self, paper_result):
        return paper_result("threshold")[0]

    def test_short_threshold_false_alarms(self, result):
        assert result.rows[0.25].false_alarms > 0, (
            "a threshold below the profiled switch gap must false-alarm"
        )

    def test_profiled_and_longer_thresholds_stay_quiet(self, result):
        assert result.rows[2].false_alarms == 0
        assert result.rows[4].false_alarms == 0
        assert result.rows[8].false_alarms == 0

    def test_latency_grows_with_threshold(self, result):
        assert result.rows[2].latency_s < result.rows[8].latency_s

    def test_profiling_lands_above_switch_gap(self, result):
        # The procedure lands just above the kthread-bounded switch gap
        # (x2 safety), and clears every false-alarming value.
        assert 0.5 * SECOND <= result.profiled_ns <= 4 * SECOND
        assert result.profiled_ns / SECOND > 0.25


# ======================================================================
# §V-C — Remote Health Checker
# ======================================================================
class TestRhc:
    @pytest.fixture
    def rows(self, paper_result):
        return paper_result("rhc")[0].rows

    def test_no_false_alarm_while_healthy(self, rows):
        for row in rows:
            assert not row.false_alarm

    def test_heartbeats_arrive_while_healthy(self, rows):
        for row in rows:
            assert row.heartbeats > 0

    def test_alarm_soon_after_pipeline_death(self, rows):
        # Within the 3 s timeout plus ~2 check periods.
        for row in rows:
            assert row.alarm_latency_s <= 6.0
