"""Tests for the Ether-style trace recorder's JSONL output."""

import json

from repro.replay.btrace import load_any_trace
from repro.replay.format import Trace, TraceHeader
from repro.replay.recorder import RecordingAuditor
from repro.replay.trace_io import save_trace


def worker(ctx):
    while True:
        yield ctx.compute(300_000)
        yield ctx.sys_write(1, 8)


class TestTraceRecorder:
    def test_jsonl_round_trips(self, testbed, tmp_path):
        recorder = RecordingAuditor()
        testbed.monitor([recorder])
        testbed.kernel.spawn_process(worker, "w", uid=1000)
        testbed.run_s(0.5)
        path = tmp_path / "w.jsonl"
        save_trace(path, Trace(header=TraceHeader(), records=recorder.records))
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert lines
        parsed = [json.loads(line) for line in lines]
        assert all("t" in r and "type" in r for r in parsed)
        # Time order holds per vCPU; across vCPUs records go in
        # delivery order, which a vCPU running ahead can put out of step.
        for vcpu in {r["vcpu"] for r in parsed}:
            times = [r["t"] for r in parsed if r["vcpu"] == vcpu]
            assert times == sorted(times)
        assert load_any_trace(path).records == parsed
