"""Findings: what the static-analysis pass reports.

A finding is one violation of one rule at one source location.  The
tuple (rule, path, message) — deliberately *without* the line number —
is the finding's **fingerprint**: baselines key on fingerprints so an
unrelated edit that shifts lines does not resurrect a baselined
violation, while moving the same violation to a new file (or changing
what it says) does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at ``path:line``."""

    path: str  #: POSIX-style path relative to the analysis root.
    line: int  #: 1-based line of the offending node.
    rule: str  #: Stable rule identifier (e.g. ``trust-boundary``).
    message: str
    col: int = 0

    @property
    def fingerprint(self) -> str:
        return f"{self.rule}|{self.path}|{self.message}"

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def to_json(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
