"""Findings: what the static-analysis pass reports.

A finding is one violation of one rule at one source location.
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
