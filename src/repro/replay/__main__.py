"""CLI: ``python -m repro.replay {list,record,replay,fuzz,convert}``.

* ``record``  — run a named scenario live, persist its trace (JSONL,
  gzip when the path ends in ``.gz``; btrace when it ends in ``.btr``);
* ``replay``  — re-audit a trace through fresh auditors, print the
  verdicts, compare against the recorded live verdicts, and report
  replay throughput vs the live event rate;
* ``fuzz``    — N seeded mutations of a trace, each replayed; reports
  auditor crashes vs gracefully rejected records;
* ``convert`` — lossless JSONL <-> btrace conversion (direction
  inferred by sniffing the source's magic bytes).

``replay`` and ``fuzz`` accept either trace format transparently — the
first bytes of the file decide, never the extension — and read the
trace from stdin when its path is ``-``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import TraceFormatError
from repro.prof import Profiler, profile_scope
from repro.replay.btrace import (
    BTRACE_SUFFIX,
    convert_trace,
    load_any_trace,
    save_btrace,
)
from repro.replay.mutate import TraceMutator
from repro.replay.recorder import SCENARIOS, auditors_for, record_scenario
from repro.replay.trace_io import save_trace
from repro.replay.source import ReplaySource
from repro.sim.clock import SECOND

def _format_verdicts(verdicts: List[dict]) -> str:
    if not verdicts:
        return "  (no alerts)"
    lines = []
    for v in verdicts:
        detail = ", ".join(
            f"{k}={v[k]}" for k in sorted(v) if k not in ("auditor", "kind")
        )
        lines.append(f"  [{v.get('auditor')}] {v.get('kind')}"
                     + (f" ({detail})" if detail else ""))
    return "\n".join(lines)


# ======================================================================
# Subcommands
# ======================================================================
def cmd_list(args) -> int:
    for name, scenario in sorted(SCENARIOS.items()):
        print(f"{name:10s} {scenario.description}")
    return 0


def cmd_record(args) -> int:
    run = record_scenario(args.scenario, seed=args.seed)
    if args.output.endswith(BTRACE_SUFFIX):
        save_btrace(args.output, run.trace)
    else:
        save_trace(args.output, run.trace)
    header = run.trace.header
    print(f"recorded scenario {args.scenario!r} (seed {args.seed}) "
          f"-> {args.output}")
    print(f"  events: {header.total_events} "
          f"({', '.join(f'{k}={v}' for k, v in sorted(header.event_counts.items()))})")
    print(f"  sim span: {header.end_ns / SECOND:.3f}s  "
          f"live wall: {run.live_wall_seconds:.3f}s  "
          f"live rate: {run.live_events_per_second:,.0f} events/s")
    print("live verdicts:")
    print(_format_verdicts(run.live_verdicts))
    return 0


def cmd_replay(args) -> int:
    profiler = Profiler() if getattr(args, "profile", False) else None
    if profiler is not None:
        profiler.install()
    try:
        with profile_scope("replay"):
            with profile_scope("load-trace"):
                trace = load_any_trace(args.trace)
            auditors = auditors_for(trace)
            with profile_scope("run"):
                source = ReplaySource(trace, auditors)
                report = source.run()
    finally:
        if profiler is not None:
            profiler.uninstall()
    if profiler is not None:
        # Stderr, so the stdout verdict block stays byte-comparable
        # across formats and profiled/unprofiled runs.
        print("profile (wall breakdown):", file=sys.stderr)
        for line in profiler.report_lines():
            print(f"  {line}", file=sys.stderr)
        print("profile (collapsed stacks):", file=sys.stderr)
        for line in profiler.flamegraph_lines():
            print(f"  {line}", file=sys.stderr)

    print(f"replayed {report.events_replayed} events "
          f"({report.events_rejected} rejected, {report.scans_run} scans) "
          f"from {args.trace}")
    print(f"  wall: {report.wall_seconds:.3f}s  "
          f"throughput: {report.events_per_second:,.0f} events/s")
    live_wall = trace.header.meta.get("live_wall_seconds")
    if live_wall:
        live_rate = trace.header.total_events / live_wall
        speedup = (
            report.events_per_second / live_rate if live_rate > 0 else 0.0
        )
        print(f"  live rate: {live_rate:,.0f} events/s  "
              f"replay speedup: {speedup:.1f}x")
    print("replay verdicts:")
    print(_format_verdicts(report.verdicts))

    live_verdicts = trace.header.meta.get("live_verdicts")
    if live_verdicts is not None:
        if report.matches_live(live_verdicts):
            print("verdicts REPRODUCED (match the recorded live run)")
            return 0
        print("verdicts DIVERGED from the recorded live run:", file=sys.stderr)
        print(_format_verdicts(live_verdicts), file=sys.stderr)
        return 1
    return 0


def cmd_fuzz(args) -> int:
    if args.trace:
        base = load_any_trace(args.trace)
        origin = args.trace
    else:
        base = record_scenario(args.scenario, seed=args.seed).trace
        origin = f"scenario {args.scenario!r} (recorded in-memory)"
    mutator = TraceMutator(seed=args.seed)

    crashes = 0
    rejected_total = 0
    alarmed = 0
    for i in range(args.n):
        mutated, ops = mutator.mutate(base, n_mutations=args.mutations)
        auditors = auditors_for(base)
        report = ReplaySource(mutated, auditors).run()
        rejected_total += report.events_rejected
        if report.container_failed or report.scan_errors:
            crashes += 1
            print(f"  mutation {i}: AUDITOR CRASH "
                  f"({report.failure_reason or 'scan error'}) after {ops}")
        if report.verdicts:
            alarmed += 1

    print(f"fuzzed {args.n} mutated traces of {origin} "
          f"(seed {args.seed}, {args.mutations} mutation(s) each)")
    print(f"  auditor crashes:      {crashes}")
    print(f"  records rejected:     {rejected_total} (gracefully)")
    print(f"  runs raising alerts:  {alarmed}")
    return 1 if crashes else 0


def cmd_convert(args) -> int:
    info = convert_trace(args.source, args.output, to=args.to)
    print(f"converted {args.source} -> {args.output} "
          f"({info['format']}, {info['records']} records)")
    if info["format"] == "btrace":
        print(f"  fixed-layout records: {info['records'] - info['escapes']}  "
              f"json escapes: {info['escapes']}  "
              f"interned strings: {info['strings']}")
    return 0


# ======================================================================
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.replay",
        description="Record, replay, and fuzz HyperTap event traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list recordable scenarios")
    p_list.set_defaults(func=cmd_list)

    p_record = sub.add_parser("record", help="record a scenario's trace")
    p_record.add_argument(
        "scenario", choices=sorted(SCENARIOS), help="scenario to record"
    )
    p_record.add_argument("-o", "--output", default="trace.jsonl.gz",
                          help="output path (.gz compresses)")
    p_record.add_argument("--seed", type=int, default=0)
    p_record.set_defaults(func=cmd_record)

    p_replay = sub.add_parser("replay", help="re-audit a recorded trace")
    p_replay.add_argument(
        "trace", help="trace file to replay ('-' reads the trace from stdin)"
    )
    p_replay.add_argument(
        "--profile",
        action="store_true",
        help="print a wall breakdown + flamegraph to stderr (repro.prof)",
    )
    p_replay.set_defaults(func=cmd_replay)

    p_fuzz = sub.add_parser("fuzz", help="replay N seeded mutations")
    p_fuzz.add_argument("trace", nargs="?", default=None,
                        help="base trace (default: record --scenario fresh)")
    p_fuzz.add_argument("--scenario", default="exploit",
                        choices=sorted(SCENARIOS))
    p_fuzz.add_argument("--n", type=int, default=50,
                        help="number of mutated traces")
    p_fuzz.add_argument("--mutations", type=int, default=3,
                        help="mutation operators applied per trace")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_convert = sub.add_parser(
        "convert", help="convert a trace between JSONL and btrace"
    )
    p_convert.add_argument("source", help="trace to convert (format sniffed)")
    p_convert.add_argument("output", help="destination path")
    p_convert.add_argument(
        "--to", choices=("jsonl", "btrace"), default=None,
        help="target format (default: the opposite of the source)",
    )
    p_convert.set_defaults(func=cmd_convert)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TraceFormatError, OSError, KeyError) as exc:
        # The documented CLI contract: bad input is a one-line error
        # and exit 2, never a traceback.  OSError covers the whole
        # filesystem surface (missing file, directory path, EACCES),
        # not just FileNotFoundError.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
