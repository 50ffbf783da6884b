"""The regression corpus: every shrunk finding becomes a test.

Entries live under ``tests/corpus/`` in two kinds, told apart by their
header line (:func:`load_entry`), never by file name:

* **trace entries** — a replay trace whose header ``meta`` carries a
  ``finding`` block:

  .. code-block:: json

     {"key": "miss:hrkd:pid=77", "kind": "miss", "auditor": "hrkd",
      "subject": {"pid": 77}, "perturb": null, "original_records": 2215}

  Verification replays the trace (under the recorded schedule
  perturbation, if any) and asks the differential oracle for the key.
* **hut entries** (``hut-*.jsonl``) — a hut op program whose header
  holds a ``hut`` block plus the finding, the seeded ``bug`` and the
  interleave ``perturb_seed``.  A bug witness (``fixed: false``) must
  reproduce its key with the bug re-injected; a clean witness
  (``fixed: true``) must produce no finding at all on the unmodified
  emulator — the differential agreement itself is the regression
  property.

Each kind is the target class that fuzzes it (:func:`kind_of`), so
listing, keys, saving, verifying and shrinking go through one
interface.  Entries are replayed by ``tests/test_corpus_regressions.py``
and ``corpus verify``; the nightly job uses :func:`corpus_keys` to tell
new findings (build-failing) from known, already-shrunk ones.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import TraceFormatError
from repro.replay.btrace import load_any_trace
from repro.replay.format import Trace
from repro.testing.fuzzer import TraceTarget
from repro.testing.hut.program import HutProgram, load_program
from repro.testing.hut.target import HutTarget

#: Default corpus location, relative to the repository root.
DEFAULT_CORPUS_DIR = "tests/corpus"

#: What a corpus entry fails to load with.
UNREADABLE = (TraceFormatError, OSError)


def kind_of(subject: Union[Trace, HutProgram]):
    """The target class describing a loaded entry."""
    return HutTarget if isinstance(subject, HutProgram) else TraceTarget


def load_entry(path: str) -> Union[Trace, HutProgram]:
    """A hut program when the header line has a ``hut`` key, else a
    trace in any format :func:`~repro.replay.btrace.load_any_trace`
    reads."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
    except (OSError, ValueError):
        header = None
    if isinstance(header, dict) and "hut" in header:
        return load_program(path)
    return load_any_trace(path)


def entry_finding(subject: Union[Trace, HutProgram]) -> Dict[str, Any]:
    finding = kind_of(subject).meta(subject).get("finding")
    return finding if isinstance(finding, dict) else {}


def entry_name(finding: Dict[str, Any], prefix: str = "", sep: str = "") -> str:
    """Canonical file name for one finding's corpus entry."""
    subject = finding.get("subject") or {}
    parts = [finding.get("kind", "finding"), finding.get("auditor", "any")]
    parts.extend(f"{k}{sep}{subject[k]}" for k in sorted(subject))
    slug = re.sub(r"[^a-z0-9]+", "-", "-".join(map(str, parts)).lower())
    return prefix + (slug.strip("-") or "finding") + ".jsonl"


def save_entry(
    directory: str,
    subject: Union[Trace, HutProgram],
    finding: Dict[str, Any],
    params: Any,
    original: Optional[int] = None,
) -> str:
    """Persist a (shrunk) finding witness; returns the file path.

    ``params`` are what the entry replays with (see each kind's
    ``params``); ``original`` is the item count before shrinking.
    """
    kind = kind_of(subject)
    kind.stamp(subject, finding, params, original)
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    path = path / entry_name(finding, kind.PREFIX, kind.SEP)
    kind.write(str(path), subject)
    return str(path)


def corpus_entries(corpus_dir: str = DEFAULT_CORPUS_DIR) -> List[str]:
    """Every corpus entry file, both kinds, sorted by path."""
    directory = pathlib.Path(corpus_dir)
    if not directory.is_dir():
        return []
    return sorted(
        str(p)
        for p in directory.iterdir()
        if p.suffix in (".jsonl", ".gz") and p.is_file()
    )


def corpus_keys(corpus_dir: str = DEFAULT_CORPUS_DIR) -> List[str]:
    """The finding keys already covered by checked-in bug witnesses."""
    keys = set()
    for path in corpus_entries(corpus_dir):
        try:
            subject = load_entry(path)
        except UNREADABLE:
            continue
        key = entry_finding(subject).get("key")
        if key and not kind_of(subject).meta(subject).get("fixed"):
            keys.add(str(key))
    return sorted(keys)


def verify_entry(path: str) -> Tuple[bool, str]:
    """Replay one corpus entry against its recorded expectation."""
    try:
        subject = load_entry(path)
        kind = kind_of(subject)
        fixed = bool(kind.meta(subject).get("fixed"))
        key = entry_finding(subject).get("key")
        if not fixed and not key:
            return False, "no finding key recorded in the entry header"
        found = {d.key() for d in kind.check(subject, kind.params(subject))}
    except UNREADABLE as exc:
        return False, f"unreadable ({exc})"
    if fixed:
        if found:
            return False, f"clean witness produced findings: {sorted(found)}"
        return True, "clean witness: differential agreement holds"
    if key in found:
        return True, f"reproduced {key}"
    return False, f"expected {key}, replay produced {sorted(found) or 'none'}"
