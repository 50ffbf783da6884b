"""``python -m repro.bench`` — run the benchmarks, append to the ledger.

Typical uses::

    python -m repro.bench                  # standard run, new ledger entry
    python -m repro.bench --quick          # CI smoke: small fixed scale
    python -m repro.bench --check          # also fail on a broken bound, or
                                           # on regression vs the best of
                                           # the recent comparable entries
    python -m repro.bench --no-write       # measure + compare only
    python -m repro.bench --profile        # per-stage wall breakdown +
                                           # collapsed-stack flamegraph

Exit status: 0 on success, 1 when ``--check`` found a regression or a
broken bound, or when measured work diverged from its reference answer.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import (
    COLUMNS,
    DEFAULT_LEDGER_DIR,
    DEFAULT_THRESHOLD,
    STANDARD_FIGURES,
    Diverged,
    cells,
    collect,
    compare_entries,
    floor_problems,
    reference_entry,
    write_entry,
)
from repro.parallel import job_count
from repro.prof import Profiler


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the reproduction pipeline into the ledger.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: half scale, 2 rounds, one figure",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="grid scale factor (default 1.0; --quick implies 0.5)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS, else 1)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help=(
            "timed rounds per measurement, best kept (default 3; --quick "
            "implies 2; some columns need more and raise it)"
        ),
    )
    parser.add_argument(
        "--figures",
        default=None,
        help=(
            "comma-separated experiment figures to time "
            "(default: the standard set, first-only under --quick; "
            "'none' skips figure timing)"
        ),
    )
    parser.add_argument(
        "--ledger-dir",
        default=DEFAULT_LEDGER_DIR,
        help=f"ledger directory (default: {DEFAULT_LEDGER_DIR})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "fail (exit 1) on a broken floor/ceiling or on regression vs "
            "the best of the recent comparable ledger entries"
        ),
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=(
            "fractional regression tolerance for --check "
            f"(default {DEFAULT_THRESHOLD:.2f})"
        ),
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="measure (and --check) without appending a ledger entry",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print a per-stage wall breakdown and collapsed-stack "
            "flamegraph of the suite itself (repro.prof)"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    scale = args.scale if args.scale is not None else (0.5 if args.quick else 1.0)
    rounds = args.rounds if args.rounds is not None else (2 if args.quick else 3)
    jobs = args.jobs if args.jobs is not None else job_count()
    figures = STANDARD_FIGURES[:1] if args.quick else STANDARD_FIGURES
    if args.figures is not None:
        wanted = args.figures.strip().lower()
        figures = (
            ()
            if wanted in ("", "none")
            else tuple(name.strip() for name in args.figures.split(","))
        )

    print(f"repro.bench: scale={scale} jobs={jobs} rounds={rounds}")
    profiler = Profiler() if args.profile else None
    if profiler is not None:
        profiler.install()
    try:
        entry = collect(
            scale=scale,
            jobs=jobs,
            rounds=rounds,
            figures=figures,
            progress=lambda msg: print(f"  measuring {msg}"),
        )
    except Diverged as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    finally:
        if profiler is not None:
            profiler.uninstall()

    for column in COLUMNS:
        for label, value in cells(column.name, entry["metrics"].get(column.name)):
            shown = "n/a" if value is None else f"{value:,.2f}"
            print(f"{label:<44} {shown:>16} {column.unit}")
    if profiler is not None:
        print("profile (wall breakdown):")
        for line in profiler.report_lines():
            print(f"  {line}")
        print("profile (collapsed stacks):")
        for line in profiler.flamegraph_lines():
            print(f"  {line}")

    status = 0
    if args.check:
        # Absolute bounds first: they hold even on an empty ledger.
        bounds = floor_problems(entry)
        if bounds:
            print("check: FLOOR/CEILING VIOLATION:")
            for problem in bounds:
                print(f"  - {problem}")
            status = 1
        reference = reference_entry(args.ledger_dir, entry)
        if reference is None:
            print(f"check: no comparable entry in {args.ledger_dir}; baseline run")
        else:
            against = (
                f"the best of the last {reference['entries']} comparable "
                "ledger entries"
            )
            problems = compare_entries(reference, entry, threshold=args.threshold)
            if problems:
                print(f"check: REGRESSION vs {against}:")
                for problem in problems:
                    print(f"  - {problem}")
                status = 1
            else:
                print(f"check: within {args.threshold:.0%} of {against}")

    if not args.no_write:
        path = write_entry(args.ledger_dir, entry)
        print(f"ledger: wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
