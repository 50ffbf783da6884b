"""Tests of the benchmark's own arithmetic, plus a tiny run of each workload."""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common
import layers
import speed
import tracing
from serve_client import LatencyBook, run_open_loop

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
#: Counts that must repeat exactly between runs of the same code.
DETERMINISTIC = ("kvm.exits", "fanout.publishes", "decode.records", "auditor.verdicts")


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert tracing.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_merges_overlapping_children():
    # Async children may overlap: [1,5] and [3,6] cover 5 s, not 6.
    parent = [-1, 0, 0]
    start = [0.0, 1.0, 3.0]
    end = [10.0, 5.0, 6.0]
    selfs = tracing.self_times(parent, start, end)
    assert selfs[0] == pytest.approx(5.0)
    assert sum(selfs) == pytest.approx(10.0 + 4.0 + 3.0 - 5.0)


def test_self_time_clips_children_to_parent():
    parent = [-1, 0]
    start = [0.0, 8.0]
    end = [10.0, 12.0]
    assert tracing.self_times(parent, start, end)[0] == pytest.approx(8.0)


def test_self_times_sum_to_root_wall():
    parent = [-1, 0, 1, 1, 0, 4]
    start = [0.0, 0.5, 0.6, 1.0, 3.0, 3.5]
    end = [5.0, 2.0, 0.9, 1.9, 4.5, 4.0]
    assert sum(tracing.self_times(parent, start, end)) == pytest.approx(5.0)


class _Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    @staticmethod
    def static(x):
        return x


def test_install_records_nested_spans_and_restores():
    module = __name__
    rows = [
        tracing.Boundary(module, "_Toy.outer", "fanout"),
        tracing.Boundary(module, "_Toy.inner", "auditor"),
        tracing.Boundary(module, "_Toy.static", "decode", "count"),
    ]
    original = _Toy.__dict__["outer"]
    tracer = tracing.Tracer()
    with tracing.traced(tracer, rows):
        with tracer.root():
            assert _Toy().outer(3) == 7
            assert _Toy.static(5) == 5
    assert _Toy.__dict__["outer"] is original
    assert isinstance(_Toy.__dict__["static"], staticmethod)
    counts = tracer.span_counts()
    assert counts["fanout:_Toy.outer"] == 1
    assert counts["auditor:_Toy.inner"] == 1
    assert counts["decode:_Toy.static"] == 1
    # inner's parent is outer, whose parent is the root.
    assert list(tracer.parent) == [-1, 0, 1]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["trace.self_sum_pct"][0] == pytest.approx(100.0)
    assert set(tracing.LAYERS) <= {k.split(".")[0] for k in metrics}


def test_missing_boundary_raises_and_restores():
    original = _Toy.__dict__["outer"]
    rows = [tracing.Boundary(__name__, "_Toy.outer", "fanout"),
            tracing.Boundary(__name__, "_Toy.gone", "x")]
    with pytest.raises(KeyError):
        with tracing.traced(tracing.Tracer(), rows):
            pass
    assert _Toy.__dict__["outer"] is original


def test_span_file_round_trip(tmp_path):
    tracer = tracing.Tracer()
    with tracer.root():
        pass
    path = tmp_path / "spans.bin"
    tracing.write_spans(tracer, path, {"workload": "t"})
    back = tracing.read_spans(path)
    assert back["header"]["count"] == 1
    assert list(back["parent"]) == [-1]
    assert back["end"][0] >= back["start"][0]


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_ten_samples_beyond_the_reported_percentile():
    assert common.samples_beyond(100, 0.9) == 10
    assert common.samples_beyond(99, 0.9) == 9
    assert common.samples_beyond(20, 0.5) == 10
    assert common.samples_beyond(19, 0.5) == 9
    assert common.min_samples_for(0.9) == 100
    assert common.min_samples_for(0.99) == 1000
    assert common.MIN_OPS == 100


def test_percentile_is_nearest_rank_and_failures_count_high():
    values = list(range(1, 101))
    assert common.percentile(values, 0.5) == 50
    assert common.percentile(values, 0.9) == 90
    assert common.percentile([1.0, math.inf, 2.0], 0.9) == math.inf


def test_timings_gate_corrected_figures_only():
    timings = common.Timings()
    # Raw walls are far off and must not leak into the gated figures.
    timings.rounds = [(9.0, 2.0), (9.0, 1.0), (9.0, 4.0)]
    timings.ops = [(9.0, 0.001 * i) for i in range(1, 101)]
    metrics = timings.metrics(events=100, ops=4)
    assert metrics["events_per_s"] == (50.0, "1/s")
    assert metrics["ops_per_s"] == (2.0, "1/s")
    assert metrics["latency_ms_p90"][0] == pytest.approx(90.0)
    assert any("raw wall" in note for note in timings.notes(100, 4))


def test_speed_correction_scales_to_the_reference_probe():
    ref = speed.PROBE_REF_S
    assert speed.correct(1.0, (ref, ref)) == pytest.approx(1.0)
    # Probes running 1.5x slow: the interval ran 1.5x slow too.
    assert speed.correct(1.5, (1.4 * ref, 1.6 * ref)) == pytest.approx(1.0)
    result, wall, corrected = speed.timed(lambda: 7)
    assert result == 7 and wall >= 0 and corrected >= 0
    assert speed.probe() > 0


# ----------------------------------------------------------------------
# Open-loop lateness
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self, overshoot):
        self.now = 0.0
        self.overshoot = list(overshoot)

    def __call__(self):
        return self.now

    async def sleep(self, seconds):
        await asyncio.sleep(0)  # let started operations run first
        self.now += seconds + (self.overshoot.pop(0) if self.overshoot else 0.0)


def test_open_loop_times_from_due_not_from_send():
    clock = _FakeClock(overshoot=[0.3, 0.0])
    book = LatencyBook([0.0, 1.0, 2.0])

    async def op(i):
        if i == 2:
            return None  # a failed operation
        return clock() + 0.1

    asyncio.run(run_open_loop(book, op, clock=clock, sleep=clock.sleep))
    assert book.send_lags() == pytest.approx([0.0, 0.3, 0.0])
    latencies = book.latencies()
    # The sender's 0.3 s stall is charged to the stream it delayed.
    assert latencies[:2] == pytest.approx([0.1, 0.4])
    assert latencies[2] == math.inf


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_matches_layer_table():
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    for m in SPEC["per_layer"]:
        assert (m["unit"], m["better"]) == layers.PER_LAYER[m["name"]]
    assert {w["name"] for w in SPEC["workloads"]} == {
        "replay-btrace", "serve-socket", "live-campaign"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# ----------------------------------------------------------------------
# Tiny runs of each workload
# ----------------------------------------------------------------------
@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    import wl_campaign
    import wl_replay
    import wl_serve

    for module in (common, wl_replay, wl_serve, wl_campaign):
        monkeypatch.setattr(module, "OUT_DIR", tmp_path)
        for name in ("SETUP_REPEATS", "MIN_OPS", "MIN_ROUNDS"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, 1)
    return tmp_path


def _assert_run(result, names):
    outcome, metrics, _ = result
    assert outcome.correct, outcome.problems
    assert set(metrics) == names
    for name in END_TO_END & set(metrics):
        assert metrics[name][0] > 0, name


def test_replay_smoke(out_dir, monkeypatch):
    import wl_replay

    monkeypatch.setattr(wl_replay, "SCENARIO_ORDER", ("exploit", "hang"))
    _assert_run(wl_replay.run(0, 0.01, trace=False), END_TO_END)
    outcome, metrics, _ = wl_replay.run(0, 0.01, trace=True)
    _assert_run((outcome, metrics, None), PER_LAYER)
    assert metrics["decode.records"][0] > 0
    assert metrics["kvm.exits"][0] == 0  # replay bypasses the live path
    _, again, _ = wl_replay.run(0, 0.01, trace=True)
    for name in DETERMINISTIC:
        assert again[name] == metrics[name], name


def test_replay_detects_a_corrupted_verdict(out_dir, monkeypatch):
    import wl_replay

    monkeypatch.setattr(wl_replay, "SCENARIO_ORDER", ("exploit",))
    real = wl_replay.record_scenario

    def corrupted(name, seed=0):
        run = real(name, seed=seed)
        run.trace.header.meta["live_verdicts"] = [{"auditor": "x", "kind": "forged"}]
        return run

    monkeypatch.setattr(wl_replay, "record_scenario", corrupted)
    outcome, _, _ = wl_replay.run(0, 0.01, trace=False)
    assert not outcome.correct
    assert outcome.failed == outcome.attempted >= 1


def test_serve_smoke(out_dir, monkeypatch):
    import wl_serve

    monkeypatch.setattr(wl_serve, "OPEN_STREAMS", 4)
    monkeypatch.setattr(wl_serve, "CLOSED_CYCLE", 2)
    _assert_run(wl_serve.run(0, 0.01, trace=False), END_TO_END)
    outcome, metrics, _ = wl_serve.run(0, 0.01, trace=True)
    _assert_run((outcome, metrics, None), PER_LAYER)
    assert metrics["transport.frames"][0] > 0
    assert metrics["pipeline.self_s"][0] > 0


def test_campaign_smoke(out_dir, monkeypatch):
    import wl_campaign

    real = wl_campaign.build_sites
    monkeypatch.setattr(wl_campaign, "build_sites", lambda: real()[:1])
    _assert_run(wl_campaign.run(0, 0.01, trace=False), END_TO_END)
    outcome, metrics, _ = wl_campaign.run(0, 0.01, trace=True)
    _assert_run((outcome, metrics, None), PER_LAYER)
    assert metrics["kvm.exits"][0] > 0
    assert metrics["decode.records"][0] == 0  # the live path decodes nothing
    _, again, _ = wl_campaign.run(0, 0.01, trace=True)
    for name in DETERMINISTIC:
        assert again[name] == metrics[name], name


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-btrace",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
