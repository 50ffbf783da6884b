"""CLI entry point: ``python -m repro.experiments <name>``."""

from __future__ import annotations

import argparse
import sys

from repro.experiments.runners import EXPERIMENTS, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Rerun the HyperTap paper's tables and figures.",
    )
    parser.add_argument(
        "name",
        help="experiment name, 'list', or 'all'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply trial counts (default 1.0 = quick subset)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale grids (hours for fig4/ninjas)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override each experiment's built-in RNG seed",
    )
    args = parser.parse_args(argv)

    if args.name == "list":
        for name, (_runner, description) in EXPERIMENTS.items():
            print(f"{name:10s} {description}")
        return 0
    names = (
        [n for n in EXPERIMENTS if n != "fig5"]
        if args.name == "all"
        else [args.name]
    )
    for name in names:
        print(f"\n===== {name} =====")
        try:
            print(run_experiment(
                name, scale=args.scale, full=args.full, seed=args.seed
            ).render())
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
