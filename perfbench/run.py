"""End-to-end benchmark of the HyperTap reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-btrace --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``replay-btrace`` — recorded btrace files -> verdicts (``wl_replay``);
* ``serve-socket``  — a ``repro.serve run`` child fed over its socket
  (``wl_serve``);
* ``live-campaign`` — a seeded fault-injection grid at ``jobs=2``
  (``wl_campaign``).

With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation; with ``--trace 1`` it instead times each layer from
outside (``tracing``, ``layers``) and prints the per-layer metrics.
Every operation's output is checked; any miss makes ``correct`` false
and the exit code 1.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("replay-btrace", "serve-socket", "live-campaign")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Terminated, leave through the workloads' cleanup (service child,
    # fork pool), not around it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    from common import emit

    if args.workload == "replay-btrace":
        import wl_replay as workload
    elif args.workload == "serve-socket":
        import wl_serve as workload
    else:
        import wl_campaign as workload
    outcome, metrics, notes = workload.run(args.seed, args.seconds, bool(args.trace))
    emit(outcome, metrics, notes)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
