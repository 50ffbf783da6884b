"""CLI: ``python -m repro.analysis`` — invariant-aware static analysis.

Exit codes: 0 clean (all violations fixed or suppressed inline),
1 findings remain, 2 usage/configuration error.

Examples::

    python -m repro.analysis                       # analyze src/ (auto)
    python -m repro.analysis --json                # machine-readable
    python -m repro.analysis --rules trust-boundary,determinism
    python -m repro.analysis --root /tmp/tree/src  # any repro-shaped tree
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.runner import (
    render_json,
    render_sarif,
    render_text,
    run_analysis,
)
from repro.analysis.rules import all_rules
from repro.errors import ConfigurationError


def default_root() -> Path:
    """The source tree this installation of ``repro`` was loaded from."""
    candidate = Path.cwd() / "src" / "repro"
    if candidate.is_dir():
        return candidate.parent
    import repro

    return Path(repro.__file__).resolve().parent.parent


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static analysis enforcing HyperTap's hardware-invariant trust "
            "boundary, event-coverage completeness, determinism, and "
            "auditor purity."
        ),
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="source root containing the repro package (default: ./src or "
        "the installed package's parent)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids or glob patterns (e.g. 'flow.*') to "
        "run (default: all; disables the pragma-hygiene audit)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of text"
    )
    parser.add_argument(
        "--sarif",
        action="store_true",
        help="emit a SARIF 2.1.0 report instead of text",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="fan rules across N worker processes via repro.parallel "
        "(output is byte-identical to --jobs 1)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:16s} {rule.summary}")
        return 0

    root = args.root if args.root is not None else default_root()
    if not root.is_dir():
        print(f"error: analysis root {root} is not a directory", file=sys.stderr)
        return 2
    selected = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules
        else None
    )
    try:
        report = run_analysis(
            root,
            selected_rules=selected,
            jobs=max(1, args.jobs),
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.sarif:
        print(render_sarif(report))
    elif args.json:
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
