"""CLI: ``python -m repro.testing {fuzz,shrink,corpus,report}``.

* ``fuzz``   — run a seeded coverage-guided campaign against a target:
  a recorded scenario (the auditors under test) or a hut target (the
  hypervisor/hardware emulation under test).  Findings go out as JSONL,
  byte-reproducible for a given ``--seed``/``--budget`` at any
  ``--jobs``; with ``--corpus-dir``, exit non-zero only on findings
  whose key no checked-in (shrunk) corpus entry covers — the nightly
  contract;
* ``shrink`` — ddmin a witness (trace or hut program, told apart by its
  header) or the built-in seeded known-miss to a minimal reproducer,
  optionally saving it as a corpus entry;
* ``corpus`` — list or re-verify the checked-in regression entries;
* ``report`` — summarize a findings JSONL by key.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import TraceFormatError
from repro.obs.report import export_lines
from repro.testing.corpus import (
    DEFAULT_CORPUS_DIR,
    UNREADABLE,
    corpus_entries,
    corpus_keys,
    entry_finding,
    kind_of,
    load_entry,
    save_entry,
    verify_entry,
)
from repro.testing.fuzzer import FuzzConfig, TraceTarget, fuzz, target_names
from repro.testing.hut.bugs import SEEDED_BUGS
from repro.testing.seeds import known_miss_trace
from repro.testing.shrink import (
    FindingPredicate,
    materialize_schedule,
    shrink_entry,
)


def _write_lines(path: str, lines: List[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


# ======================================================================
# Subcommands
# ======================================================================
def cmd_fuzz(args) -> int:
    config = FuzzConfig(
        target=args.target,
        seed=args.seed,
        budget=args.budget,
        length=args.length,
        mutations=args.mutations,
        bug=args.inject_bug,
    )
    result = fuzz(config, jobs=args.jobs)

    if args.out:
        _write_lines(
            args.out, [json.dumps(f, sort_keys=True) for f in result.findings]
        )
    bug_note = f" (bug {config.bug})" if config.bug else ""
    print(f"fuzzed target {config.target!r}{bug_note}: "
          f"{result.executions} executions (seed {config.seed})")
    print(f"  coverage features:  {len(result.coverage)} "
          f"({result.coverage_events} executions added new ones)")
    print(f"  seed pool:          {result.pool_size} entries")
    print(f"  crashes:            {result.crashes}")
    print(f"  findings:           {len(result.findings)} "
          f"({len(result.unique_keys)} unique keys)")
    for key in result.unique_keys:
        print(f"    {key}")
    if args.out:
        print(f"  findings written to {args.out}")
    if args.artifacts:
        for witness in result.witnesses.values():
            print(f"  witness saved: {save_entry(args.artifacts, *witness)}")
    if args.obs_out:
        _write_lines(args.obs_out, export_lines(result.metrics, scope="all"))
        print(f"  obs export written to {args.obs_out}")

    if args.corpus_dir is not None:
        known = set(corpus_keys(args.corpus_dir))
        new = [k for k in result.unique_keys if k not in known]
        if new:
            print(f"NEW unshrunk findings (not in {args.corpus_dir}):",
                  file=sys.stderr)
            for key in new:
                print(f"  {key}", file=sys.stderr)
            print("shrink each witness with `python -m repro.testing "
                  "shrink` and check the result into the corpus.",
                  file=sys.stderr)
            return 1
        print(f"  all finding keys already covered by {args.corpus_dir}")
    return 0


def cmd_shrink(args) -> int:
    if args.known_miss:
        subject, disc = known_miss_trace(seed=args.seed)
        finding = disc.as_dict()
    elif args.file:
        subject = load_entry(args.file)
        finding = entry_finding(subject)
    else:
        print("error: provide a witness file or --known-miss",
              file=sys.stderr)
        return 2
    kind = kind_of(subject)
    params = kind.params(subject)
    key = args.key or finding.get("key")
    if key is None:
        print("error: no --key given and none recorded in the header",
              file=sys.stderr)
        return 2
    if key != finding.get("key"):
        finding = {"key": key}

    # A perturbation finding shrinks poorly (removing records shifts
    # the seeded schedule): bake the adversarial delivery order into
    # the trace first, when the finding survives materialization.
    if kind is TraceTarget and params:
        materialized = materialize_schedule(subject, params)
        if FindingPredicate(kind, materialized, key, None)(
            materialized.records
        ):
            print("materialized the perturbed schedule into the trace")
            subject, params = materialized, None

    original = len(kind.items(subject))
    reduced = shrink_entry(
        kind, subject, key, params, max_tests=args.max_tests, jobs=args.jobs
    )
    shrunk = len(kind.items(reduced))
    print(f"shrunk {original} -> {shrunk} {kind.UNIT} "
          f"({shrunk / max(1, original):.1%}) for {key}")

    if args.corpus_dir is not None:
        path = save_entry(args.corpus_dir, reduced, finding, params, original)
        print(f"saved corpus entry {path}")
    elif args.out:
        kind.write(args.out, reduced)
        print(f"saved shrunk witness to {args.out}")
    return 0


def cmd_corpus(args) -> int:
    entries = corpus_entries(args.dir)
    if args.action == "list":
        if not entries:
            print(f"(no corpus entries under {args.dir})")
            return 0
        for path in entries:
            try:
                subject = load_entry(path)
            except UNREADABLE as exc:
                print(f"{path}: UNREADABLE ({exc})")
                continue
            kind = kind_of(subject)
            tag = " (fixed)" if kind.meta(subject).get("fixed") else ""
            key = entry_finding(subject).get("key", "(no key)")
            print(f"{path}: {key}{tag} "
                  f"[{len(kind.items(subject))} {kind.UNIT}]")
        return 0
    # verify
    failures = 0
    for path in entries:
        ok, detail = verify_entry(path)
        status = "ok" if ok else "FAILED"
        print(f"{status:6s} {path}: {detail}")
        if not ok:
            failures += 1
    print(f"verified {len(entries)} entries, {failures} failures")
    return 1 if failures else 0


def cmd_report(args) -> int:
    by_key = {}
    total = 0
    with open(args.findings, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            total += 1
            by_key.setdefault(entry.get("key", "?"), []).append(entry)
    print(f"{total} findings, {len(by_key)} unique keys")
    for key in sorted(by_key):
        entries = by_key[key]
        iters = sorted(e.get("iteration", -1) for e in entries)
        print(f"  {key}: {len(entries)} occurrences "
              f"(first at iteration {iters[0]})")
        sample = entries[0]
        if sample.get("detail"):
            print(f"      {sample['detail']}")
    return 0


# ======================================================================
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing",
        description="Coverage-guided adversarial conformance harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuzz = sub.add_parser("fuzz", help="run a seeded fuzzing campaign")
    p_fuzz.add_argument("--target", default="exploit",
                        choices=target_names(),
                        help="a recorded scenario (auditors under test) "
                             "or a hut target (emulation under test)")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--budget", type=int, default=60,
                        help="executions, baseline included")
    p_fuzz.add_argument("--length", type=int, default=48,
                        help="hut targets: ops in each shard's baseline "
                             "program")
    p_fuzz.add_argument("--mutations", type=int, default=2)
    p_fuzz.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the shard fan-out "
                             "(default: REPRO_JOBS; results are "
                             "byte-identical at any job count)")
    p_fuzz.add_argument("--inject-bug", default=None,
                        choices=sorted(SEEDED_BUGS),
                        help="hut targets: run with this seeded emulator "
                             "bug (mutation-kill audit)")
    p_fuzz.add_argument("--out", default=None,
                        help="write findings JSONL here")
    p_fuzz.add_argument("--artifacts", default=None,
                        help="save the first witness of each finding key "
                             "into this directory")
    p_fuzz.add_argument("--obs-out", default=None,
                        help="write the campaign's merged metrics "
                             "(canonical obs export lines) here")
    p_fuzz.add_argument("--corpus-dir", default=None,
                        help="fail only on finding keys not already "
                             "covered by this corpus (nightly mode)")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_shrink = sub.add_parser("shrink", help="minimize a witness")
    p_shrink.add_argument("file", nargs="?", default=None,
                          help="a trace or hut program witness")
    p_shrink.add_argument("--known-miss", action="store_true",
                          help="shrink the built-in seeded HRKD "
                               "known-miss instead of a file")
    p_shrink.add_argument("--key", default=None,
                          help="finding key to preserve (default: the "
                               "one recorded in the header)")
    p_shrink.add_argument("--seed", type=int, default=0,
                          help="seed for --known-miss")
    p_shrink.add_argument("--max-tests", type=int, default=None,
                          help="ddmin budget (default: 2000 for traces, "
                               "400 for hut programs)")
    p_shrink.add_argument("--jobs", type=int, default=None,
                          help="speculative ddmin workers (result is "
                               "byte-identical at any job count)")
    p_shrink.add_argument("--out", default=None,
                          help="write the shrunk witness here")
    p_shrink.add_argument("--corpus-dir", default=None,
                          help="save the shrunk witness as a corpus entry")
    p_shrink.set_defaults(func=cmd_shrink)

    p_corpus = sub.add_parser("corpus", help="list/verify regression "
                                             "entries")
    p_corpus.add_argument("action", choices=("list", "verify"))
    p_corpus.add_argument("--dir", default=DEFAULT_CORPUS_DIR)
    p_corpus.set_defaults(func=cmd_corpus)

    p_report = sub.add_parser("report", help="summarize a findings JSONL")
    p_report.add_argument("findings")
    p_report.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TraceFormatError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
