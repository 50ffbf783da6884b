"""The repo-wide CLI error contract, enforced as a regression test.

Every user-facing CLI (``repro.obs``, ``repro.replay``, ``repro.serve``)
must turn bad input — missing files, malformed traces, dead sockets,
unknown names — into a **one-line** ``error:`` message on stderr and
exit code 2.  Tracebacks are for bugs, not for typos.

Also covers the stdin conveniences: ``replay replay`` and ``obs
report``/``top``/``diff`` accept ``-`` (plain or gzipped JSONL, or
btrace), so serve and replay output pipes straight into triage without
temp files.
"""

from __future__ import annotations

import gzip
import io
import json
import re
import sys

import pytest

from repro.errors import TraceFormatError
from repro.obs.__main__ import main as obs_main
from repro.replay.__main__ import main as replay_main
from repro.replay.btrace import load_any_trace
from repro.serve.__main__ import main as serve_main
from tests.conftest import COERCED_HEADER_FIELDS
from tests.test_btrace import empty_btrace

MAINS = {"obs": obs_main, "replay": replay_main, "serve": serve_main}

BAD_INVOCATIONS = [
    ("obs", ["report", "no/such/trace.jsonl"]),
    ("obs", ["top", "no/such/export.jsonl"]),
    ("obs", ["diff", "no/such/a.jsonl", "no/such/b.jsonl"]),
    ("obs", ["trace", "export", "no/such/trace.jsonl"]),
    ("obs", ["trace", "critical-path", "no/such/trace.jsonl"]),
    ("obs", ["trace", "slice", "no/such/trace.jsonl", "--vm", "vm0"]),
    ("replay", ["replay", "no/such/trace.jsonl"]),
    ("replay", ["replay", "--profile", "no/such/trace.jsonl"]),
    ("serve", ["load", "--socket", "no/such/serve.sock"]),
    ("serve", ["load", "--scenarios", "not-a-scenario"]),
    # NB: the wall-profiler flag on `serve load` is --prof (--profile
    # selects the burst shape there); both spellings must honor the
    # error contract.
    ("serve", ["load", "--prof", "--socket", "no/such/serve.sock"]),
]


def run_cli(which, argv, capsys):
    code = MAINS[which](argv)
    captured = capsys.readouterr()
    return code, captured


def feed_stdin(monkeypatch, data: bytes) -> None:
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stream)


@pytest.fixture(scope="module")
def golden_trace_text():
    with open("tests/data/golden_exploit.jsonl", encoding="utf-8") as fh:
        return fh.read()


def _torn_golden(tmp_path, golden_trace_text):
    """The golden trace with a line that is not JSON first in its body."""
    header_line, body = golden_trace_text.split("\n", 1)
    torn = tmp_path / "torn.jsonl"
    torn.write_text(header_line + '\n{"kind": "event", "t": 12\n' + body,
                    encoding="utf-8")
    return torn


class TestErrorContract:
    @pytest.mark.parametrize("which,argv", BAD_INVOCATIONS)
    def test_bad_input_is_one_line_and_exit_2(self, which, argv, capsys):
        code, captured = run_cli(which, argv, capsys)
        assert code == 2
        err_lines = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error:")
        assert "Traceback" not in captured.err

    def test_malformed_trace_not_just_missing_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("this is not a trace\n", encoding="utf-8")
        for which, argv in (
            ("replay", ["replay", str(bogus)]),
            ("obs", ["report", str(bogus)]),
        ):
            code, captured = run_cli(which, argv, capsys)
            assert code == 2, f"{which} {argv}"
            assert captured.err.startswith("error:")
            assert "Traceback" not in captured.err

    def test_malformed_stdin_honors_the_same_contract(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, b"not a trace, not an export\n")
        code, captured = run_cli("obs", ["top", "-"], capsys)
        assert code == 2
        assert captured.err.startswith("error:")

    def test_convert_names_a_line_that_is_not_json(
        self, tmp_path, capsys, golden_trace_text
    ):
        """Such a line is a counted rejection for replay, but it has no
        record to convert: one line, exit 2, naming its position."""
        torn = _torn_golden(tmp_path, golden_trace_text)
        out = tmp_path / "t.btr"
        code, captured = run_cli("replay", ["convert", str(torn), str(out)], capsys)
        assert code == 2
        assert captured.err.startswith("error:")
        assert "bad JSON line after record 0" in captured.err
        assert captured.err.count("\n") == 1
        # The source is read before the destination is opened: a failed
        # convert writes nothing, and an existing file keeps its bytes.
        assert not out.exists()
        out.write_bytes(b"kept")
        code, _ = run_cli("replay", ["convert", str(torn), str(out)], capsys)
        assert code == 2
        assert out.read_bytes() == b"kept"
        code, captured = run_cli("replay", ["replay", str(torn)], capsys)
        assert code == 0
        assert "(1 rejected" in captured.out

    def test_fuzz_counts_a_line_that_is_not_json(
        self, tmp_path, capsys, golden_trace_text
    ):
        """fuzz judges the line as replay does: each mutated run carries
        it through as one counted rejection."""
        torn = _torn_golden(tmp_path, golden_trace_text)
        code, captured = run_cli(
            "replay", ["fuzz", str(torn), "--n", "3", "--seed", "1"], capsys
        )
        assert code == 0, captured.err
        assert "auditor crashes:      0" in captured.out
        rejected = int(re.search(r"records rejected: +(\d+)", captured.out)[1])
        assert rejected >= 3

    def test_a_footer_line_is_one_rejection(self, tmp_path, capsys, golden_trace_text):
        """The format has no footer: a footer-kind line is a record of
        an unknown kind whatever it holds, and a header with empty
        counts gets them from the body."""
        header_line, body = golden_trace_text.split("\n", 1)
        header = {**json.loads(header_line), "event_counts": {}}
        footer = {"kind": "footer", "event_counts": {"io": "x"}, "end_ns": 5}
        path = tmp_path / "footer.jsonl"
        path.write_text(
            json.dumps(header) + "\n" + body + json.dumps(footer) + "\n",
            encoding="utf-8",
        )
        btr = str(tmp_path / "footer.btr")
        assert run_cli("replay", ["convert", str(path), btr], capsys)[0] == 0
        for trace in (str(path), btr):
            code, captured = run_cli("replay", ["replay", trace], capsys)
            assert code == 0, captured.err
            assert "replayed 442 events (1 rejected" in captured.out
            assert "verdicts REPRODUCED" in captured.out


class TestCoercedHeader:
    """A header field of the wrong type is a format error at every
    mouth (file, stdin, btrace), never a value coerced into shape."""

    @pytest.fixture(params=COERCED_HEADER_FIELDS, ids=lambda case: next(iter(case[0])))
    def hostile(self, request, tmp_path, golden_trace_text):
        override, message = request.param
        header_line, body = golden_trace_text.split("\n", 1)
        bad_line = json.dumps({**json.loads(header_line), **override})
        jsonl = tmp_path / "t.jsonl"
        jsonl.write_text(bad_line + "\n" + body, encoding="utf-8")
        btr = tmp_path / "t.btr"
        btr.write_bytes(empty_btrace(bad_line))
        return str(jsonl), str(btr), message


    def test_loaders_raise(self, hostile):
        jsonl, btr, message = hostile
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            load_any_trace(jsonl)
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            load_any_trace(btr)

    def test_every_cli_mouth_exits_2_with_one_line(self, hostile, monkeypatch, capsys):
        jsonl, btr, message = hostile
        for which, argv, stdin in (
            ("replay", ["replay", jsonl], None),
            ("replay", ["replay", btr], None),
            ("replay", ["replay", "-"], jsonl),
            ("replay", ["replay", "-"], btr),
            ("obs", ["report", "-"], jsonl),
            ("obs", ["report", "-"], btr),
        ):
            if stdin is not None:
                with open(stdin, "rb") as fh:
                    feed_stdin(monkeypatch, fh.read())
            code, captured = run_cli(which, argv, capsys)
            assert code == 2, f"{which} {argv} < {stdin}"
            [line] = [ln for ln in captured.err.splitlines() if ln.strip()]
            assert line.startswith("error:") and message in line


class TestStdinSupport:
    def test_report_from_stdin_matches_report_from_path(
        self, monkeypatch, capsys, golden_trace_text
    ):
        _, from_path = run_cli(
            "obs", ["report", "tests/data/golden_exploit.jsonl"], capsys
        )
        feed_stdin(monkeypatch, golden_trace_text.encode("utf-8"))
        code, from_stdin = run_cli("obs", ["report", "-"], capsys)
        assert code == 0
        assert from_stdin.out == from_path.out

    def test_gzipped_stdin_is_sniffed(
        self, monkeypatch, capsys, golden_trace_text
    ):
        _, from_path = run_cli(
            "obs", ["report", "tests/data/golden_exploit.jsonl"], capsys
        )
        feed_stdin(monkeypatch, gzip.compress(golden_trace_text.encode("utf-8")))
        code, from_stdin = run_cli("obs", ["report", "-"], capsys)
        assert code == 0
        assert from_stdin.out == from_path.out

    @pytest.mark.parametrize("encode", [bytes, gzip.compress], ids=["plain", "gzip"])
    def test_replay_from_stdin_matches_replay_from_path(
        self, monkeypatch, capsys, golden_trace_text, encode
    ):
        _, from_path = run_cli(
            "replay", ["replay", "tests/data/golden_exploit.jsonl"], capsys
        )
        feed_stdin(monkeypatch, encode(golden_trace_text.encode("utf-8")))
        code, from_stdin = run_cli("replay", ["replay", "-"], capsys)
        assert code == 0
        assert "REPRODUCED" in from_stdin.out
        # Wall-clock and path lines differ; the verdict block must not.
        verdicts = lambda text: text[text.index("replay verdicts:"):]  # noqa: E731
        assert verdicts(from_stdin.out) == verdicts(from_path.out)

    @pytest.mark.parametrize(
        "data",
        [b"", b"not a trace\n", b"\xff\xfe\n", b"\x1f\x8b\x08\x00garbage",
         b"HTBT\x01\r\n\x00truncated"],
        ids=["empty", "not-json", "not-utf8", "bad-gzip", "bad-btrace"],
    )
    def test_bad_stdin_exits_2_with_one_line(self, monkeypatch, capsys, data):
        for which, argv in (("replay", ["replay", "-"]), ("obs", ["report", "-"])):
            feed_stdin(monkeypatch, data)
            code, captured = run_cli(which, argv, capsys)
            assert code == 2, f"{which} {argv}"
            [line] = [ln for ln in captured.err.splitlines() if ln.strip()]
            assert line.startswith("error:")

    def test_truncated_gzip_export_on_stdin_exits_2(self, monkeypatch, capsys):
        with open("tests/data/golden_exploit_obs.jsonl", "rb") as fh:
            packed = gzip.compress(fh.read())
        feed_stdin(monkeypatch, packed[: len(packed) // 2])
        code, captured = run_cli("obs", ["top", "-"], capsys)
        assert code == 2
        [line] = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert line.startswith("error:") and "truncated export" in line

    def test_top_reads_an_export_from_stdin(self, monkeypatch, capsys):
        with open("tests/data/golden_exploit_obs.jsonl", "rb") as fh:
            feed_stdin(monkeypatch, fh.read())
        code, captured = run_cli("obs", ["top", "-"], capsys)
        assert code == 0
        assert "flow.published" in captured.out

    def test_top_reads_a_trace_from_stdin(
        self, monkeypatch, capsys, golden_trace_text
    ):
        # First-line sniffing: a trace header means "replay it first".
        feed_stdin(monkeypatch, golden_trace_text.encode("utf-8"))
        code, captured = run_cli("obs", ["top", "-"], capsys)
        assert code == 0
        assert "flow.published" in captured.out

    def test_diff_accepts_stdin_for_one_side(self, monkeypatch, capsys):
        with open("tests/data/golden_exploit_obs.jsonl", "rb") as fh:
            feed_stdin(monkeypatch, fh.read())
        code, captured = run_cli(
            "obs", ["diff", "tests/data/golden_exploit_obs.jsonl", "-"], capsys
        )
        assert code == 0
        assert "identical" in captured.out


@pytest.fixture(scope="module")
def golden_btrace(tmp_path_factory):
    """The golden exploit trace, converted to a btrace container."""
    path = str(tmp_path_factory.mktemp("btr") / "golden_exploit.btr")
    code = replay_main(["convert", "tests/data/golden_exploit.jsonl", path])
    assert code == 0
    return path


class TestBtraceSupport:
    """Both trace formats must be interchangeable at every CLI mouth:
    the magic bytes decide, never the extension or the flag soup."""

    def test_convert_round_trip_via_cli(self, tmp_path, capsys, golden_btrace):
        back = str(tmp_path / "back.jsonl")
        code, captured = run_cli("replay", ["convert", golden_btrace, back], capsys)
        assert code == 0
        assert "jsonl" in captured.out
        with open("tests/data/golden_exploit.jsonl", encoding="utf-8") as fh:
            original = fh.read()
        with open(back, encoding="utf-8") as fh:
            assert fh.read() == original

    def test_replay_accepts_btrace(self, capsys, golden_btrace):
        _, from_jsonl = run_cli(
            "replay", ["replay", "tests/data/golden_exploit.jsonl"], capsys
        )
        code, from_btrace = run_cli("replay", ["replay", golden_btrace], capsys)
        assert code == 0
        # Wall-clock and path lines differ; the verdict block must not.
        verdicts = lambda text: text[text.index("replay verdicts:"):]  # noqa: E731
        assert verdicts(from_btrace.out) == verdicts(from_jsonl.out)
        assert "REPRODUCED" in from_btrace.out

    def test_fuzz_accepts_btrace(self, capsys, golden_btrace):
        code, captured = run_cli(
            "replay",
            ["fuzz", golden_btrace, "--n", "2", "--mutations", "1"],
            capsys,
        )
        assert code == 0
        assert "auditor crashes:      0" in captured.out

    def test_obs_report_btrace_matches_jsonl(self, capsys, golden_btrace):
        _, from_jsonl = run_cli(
            "obs", ["report", "tests/data/golden_exploit.jsonl"], capsys
        )
        code, from_btrace = run_cli("obs", ["report", golden_btrace], capsys)
        assert code == 0
        assert from_btrace.out == from_jsonl.out

    def test_obs_report_btrace_on_stdin(
        self, monkeypatch, capsys, golden_btrace
    ):
        _, from_path = run_cli("obs", ["report", golden_btrace], capsys)
        with open(golden_btrace, "rb") as fh:
            feed_stdin(monkeypatch, fh.read())
        code, from_stdin = run_cli("obs", ["report", "-"], capsys)
        assert code == 0
        assert from_stdin.out == from_path.out

    def test_replay_btrace_on_stdin(self, monkeypatch, capsys, golden_btrace):
        _, from_path = run_cli("replay", ["replay", golden_btrace], capsys)
        with open(golden_btrace, "rb") as fh:
            feed_stdin(monkeypatch, fh.read())
        code, from_stdin = run_cli("replay", ["replay", "-"], capsys)
        assert code == 0
        verdicts = lambda text: text[text.index("replay verdicts:"):]  # noqa: E731
        assert verdicts(from_stdin.out) == verdicts(from_path.out)

    def test_obs_top_btrace_on_stdin(self, monkeypatch, capsys, golden_btrace):
        with open(golden_btrace, "rb") as fh:
            feed_stdin(monkeypatch, fh.read())
        code, captured = run_cli("obs", ["top", "-"], capsys)
        assert code == 0
        assert "flow.published" in captured.out

    def test_obs_diff_across_formats_is_identical(self, capsys, golden_btrace):
        code, captured = run_cli(
            "obs",
            ["diff", "tests/data/golden_exploit.jsonl", golden_btrace],
            capsys,
        )
        assert code == 0
        assert "identical" in captured.out

    def test_convert_missing_source_honors_error_contract(self, capsys):
        code, captured = run_cli(
            "replay", ["convert", "no/such/trace.btr", "out.jsonl"], capsys
        )
        assert code == 2
        err_lines = [ln for ln in captured.err.splitlines() if ln.strip()]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error:")

    def test_truncated_btrace_honors_error_contract(
        self, tmp_path, capsys, golden_btrace
    ):
        with open(golden_btrace, "rb") as fh:
            data = fh.read()
        broken = tmp_path / "broken.btr"
        broken.write_bytes(data[: len(data) // 2])
        for which, argv in (
            ("replay", ["replay", str(broken)]),
            ("obs", ["report", str(broken)]),
        ):
            code, captured = run_cli(which, argv, capsys)
            assert code == 2, f"{which} {argv}"
            assert captured.err.startswith("error:")
            assert "Traceback" not in captured.err


class TestTraceAndProfileEntryPoints:
    """The PR-10 mouths: ``obs trace`` and the wall-profiler flags."""

    def test_trace_export_btrace_matches_jsonl(self, capsys, golden_btrace):
        _, from_jsonl = run_cli(
            "obs", ["trace", "export", "tests/data/golden_exploit.jsonl"], capsys
        )
        code, from_btrace = run_cli(
            "obs", ["trace", "export", golden_btrace], capsys
        )
        assert code == 0
        assert from_btrace.out == from_jsonl.out

    def test_trace_export_perfetto_is_json(self, capsys):
        import json

        code, captured = run_cli(
            "obs",
            ["trace", "export", "tests/data/golden_exploit.jsonl",
             "--format", "perfetto"],
            capsys,
        )
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["displayTimeUnit"] == "ns"
        assert doc["traceEvents"]

    def test_trace_critical_path_attributes_stages(self, capsys):
        code, captured = run_cli(
            "obs",
            ["trace", "critical-path", "tests/data/golden_exploit.jsonl"],
            capsys,
        )
        assert code == 0
        assert "per-stage attribution" in captured.out
        assert "deliver" in captured.out

    def test_trace_slice_filters_by_trace_id(self, capsys):
        code, captured = run_cli(
            "obs",
            ["trace", "slice", "tests/data/golden_exploit.jsonl",
             "--trace-id", "vm0:0"],
            capsys,
        )
        assert code == 0
        lines = [ln for ln in captured.out.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert '"trace": "vm0:0"' in lines[0]

    def test_replay_profile_keeps_stdout_contract(self, capsys):
        # --profile writes its breakdown to stderr only: the stdout
        # verdict block must stay byte-identical to an unprofiled run.
        _, plain = run_cli(
            "replay", ["replay", "tests/data/golden_exploit.jsonl"], capsys
        )
        code, profiled = run_cli(
            "replay",
            ["replay", "--profile", "tests/data/golden_exploit.jsonl"],
            capsys,
        )
        assert code == 0
        verdicts = lambda text: text[text.index("replay verdicts:"):]  # noqa: E731
        assert verdicts(profiled.out) == verdicts(plain.out)
        assert "profile (wall breakdown):" in profiled.err
        assert "profile (collapsed stacks):" in profiled.err
        assert "replay;run" in profiled.err
