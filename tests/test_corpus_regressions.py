"""Replay every checked-in corpus entry; its finding must reproduce.

Each file under ``tests/corpus/`` is a shrunk finding of one fuzz
target kind (``python -m repro.testing``), told apart by its header:

* trace entries — conformance findings against the auditors, with the
  finding key (and, for schedule findings, the perturbation parameters)
  stored in the trace header;
* hut entries — hypervisor-under-test divergence witnesses in the hut
  program format, replayed through the real emulation stack with their
  recorded seeded bug re-injected (or, for ``fixed`` entries, asserting
  the differential stays silent on the clean emulator).

These are the harnesses' regression anchors: if a change makes one stop
reproducing, either the discrepancy was fixed (delete the entry and say
so) or the replay path regressed.  Hostile entries must be counted as
failures by ``corpus verify``, never crash it.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro.errors import TraceFormatError
from repro.testing.__main__ import main
from repro.testing.corpus import (
    corpus_entries,
    kind_of,
    load_entry,
    verify_entry,
)
from repro.testing.hut import HutTarget, load_program

CORPUS_DIR = str(pathlib.Path(__file__).parent / "corpus")

ALL_ENTRIES = corpus_entries(CORPUS_DIR)
HUT_ENTRIES = [p for p in ALL_ENTRIES if kind_of(load_entry(p)) is HutTarget]
ENTRIES = [p for p in ALL_ENTRIES if p not in HUT_ENTRIES]


def test_corpus_is_populated():
    # The harness's acceptance floor: at least three distinct shrunk
    # findings are checked in.
    assert len(ENTRIES) >= 3


def test_hut_corpus_is_populated():
    # At least two bug witnesses and one clean (fixed) witness.
    assert len(HUT_ENTRIES) >= 3


@pytest.mark.parametrize(
    "path", ENTRIES, ids=[pathlib.Path(p).stem for p in ENTRIES]
)
def test_corpus_entry_reproduces(path):
    ok, detail = verify_entry(path)
    assert ok, f"{path}: {detail}"


@pytest.mark.parametrize(
    "path", HUT_ENTRIES, ids=[pathlib.Path(p).stem for p in HUT_ENTRIES]
)
def test_hut_corpus_entry_reproduces(path):
    ok, detail = verify_entry(path)
    assert ok, f"{path}: {detail}"


_HUT_HEADER = {
    "kind": "header",
    "hut": {"version": 1, "target": "msr", "seed": 1, "num_vcpus": 1},
    "finding": {"key": "divergence:hut-ref:at=results,target=msr"},
}
_OP = {"kind": "op", "op": "rdmsr", "vcpu": 0, "args": {"index": 16}}


def _hut_text(hut=None, op=None) -> str:
    header = dict(_HUT_HEADER, hut=dict(_HUT_HEADER["hut"], **(hut or {})))
    op_line = op if op is not None else _OP
    return json.dumps(header) + "\n" + json.dumps(op_line) + "\n"


@pytest.mark.parametrize(
    "text",
    [
        "not json\n",
        "[1, 2]\n",
        json.dumps(dict(_HUT_HEADER, hut=[1])) + "\n",
        _hut_text(op=[1]),
        _hut_text(op=dict(_OP, args=[1])),
        _hut_text(hut={"seed": "1"}),
        _hut_text(hut={"num_vcpus": 1.5}),
        _hut_text(hut={"num_vcpus": 0}),
        _hut_text(hut={"target": "gpu"}),
        _hut_text(op=dict(_OP, vcpu="0")),
        _hut_text(op=dict(_OP, vcpu=3)),
        _hut_text(op=dict(_OP, op="explode")),
        _hut_text(op=dict(_OP, args={"index": "16"})),
        json.dumps({"kind": "header", "version": 1, "meta": [1]}) + "\n",
    ],
    ids=[
        "not-json", "header-array", "hut-not-object", "op-array",
        "args-array", "seed-string", "vcpus-float", "vcpus-zero",
        "unknown-target", "vcpu-string", "vcpu-absent", "unknown-op",
        "arg-string", "trace-meta-array",
    ],
)
def test_hostile_entry_is_a_counted_failure(tmp_path, capsys, text):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, corpus)
    hostile = corpus / "hut-hostile.jsonl"
    hostile.write_text(text, encoding="utf-8")
    if text.startswith('{"kind": "header", "hut": {'):
        with pytest.raises(TraceFormatError):
            load_program(str(hostile))

    assert main(["corpus", "list", "--dir", str(corpus)]) == 0
    assert f"{hostile}: UNREADABLE (" in capsys.readouterr().out

    assert main(["corpus", "verify", "--dir", str(corpus)]) == 1
    out = capsys.readouterr().out
    assert f"FAILED {hostile}: unreadable (" in out
    oks = [line for line in out.splitlines() if line.startswith("ok ")]
    assert len(oks) == len(ALL_ENTRIES)
    assert f"verified {len(ALL_ENTRIES) + 1} entries, 1 failures" in out
