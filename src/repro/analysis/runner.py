"""Orchestration: discover → rule sweep → suppress → render.

The output is deterministic by construction — files discovered in
sorted order, rules run in sorted-id order, findings sorted before
rendering, no timestamps — so two runs over the same tree are
byte-identical (a property the test suite asserts; diffable CI logs
depend on it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.pragmas import PRAGMA_RULE
from repro.analysis.repo import AnalysisContext
from repro.analysis.rules import REGISTRY, all_rules, rule_ids
from repro.errors import ConfigurationError

#: Schema version of the ``--json`` output.
REPORT_VERSION = 2


@dataclass
class Report:
    """Outcome of one analysis run."""

    root: str
    rules: List[str]
    files_scanned: int
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def expand_rule_patterns(patterns: Sequence[str]) -> List[str]:
    """Resolve ``--rules`` entries to concrete rule ids.

    An entry containing a glob metacharacter (``flow.*``) expands
    against the registry; plain entries must name a rule exactly.  A
    pattern matching nothing is a configuration error — a silently
    empty selection would report "clean" without checking anything.
    """
    known = rule_ids()
    selected: List[str] = []
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            matched = [r for r in known if fnmatchcase(r, pattern)]
            if not matched:
                raise ConfigurationError(
                    f"rule pattern {pattern!r} matches no rules "
                    f"(known: {', '.join(known)})"
                )
            selected.extend(matched)
        elif pattern not in known:
            raise ConfigurationError(
                f"unknown rule(s): {pattern} (known: {', '.join(known)})"
            )
        else:
            selected.append(pattern)
    return sorted(set(selected))


#: Per-process context cache for ``--jobs`` workers, keyed by root.
#: The parent primes its own entry before fanning out; forked workers
#: inherit the parsed tree zero-copy, spawn-started workers (or a tree
#: whose entry is missing for any reason) rebuild it on first use.
_WORKER_CTX: Dict[str, AnalysisContext] = {}


def _rule_task(task: Tuple[str, str]) -> List[Finding]:
    """Run one rule over the (cached) context — the ``parallel_map``
    unit of work.  Findings are frozen dataclasses, so the result
    pickles back to the parent unchanged."""
    root, rule_id = task
    ctx = _WORKER_CTX.get(root)
    if ctx is None:
        ctx = AnalysisContext(Path(root), known_rules=set(rule_ids()))
        _WORKER_CTX[root] = ctx
    rule = REGISTRY[rule_id]()
    return list(rule.check(ctx))


def run_analysis(
    root: Path,
    selected_rules: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> Report:
    """Run the pass over the tree rooted at ``root``.

    ``jobs > 1`` fans rules across worker processes via
    ``repro.parallel.parallel_map``; suppression and the pragma audit
    stay in the parent, so the report is byte-identical to a serial
    run.
    """
    known = set(rule_ids())
    if selected_rules is not None:
        selected_rules = expand_rule_patterns(selected_rules)
    ctx = AnalysisContext(root, known_rules=known)

    rules = [
        rule
        for rule in all_rules()
        if selected_rules is None or rule.id in selected_rules
    ]
    raw: List[Finding] = list(ctx.parse_errors)
    if jobs > 1 and len(rules) > 1:
        from repro.parallel import parallel_map

        key = str(root)
        _WORKER_CTX[key] = ctx
        try:
            batches = parallel_map(
                _rule_task, [(key, rule.id) for rule in rules], jobs=jobs
            )
        finally:
            _WORKER_CTX.pop(key, None)
        for batch in batches:
            raw.extend(batch)
    else:
        for rule in rules:
            raw.extend(rule.check(ctx))

    # Inline suppressions (marks pragmas used as a side effect).
    sheets = {source.rel: source.pragmas for source in ctx.files}
    active: List[Finding] = []
    suppressed = 0
    for finding in raw:
        sheet = sheets.get(finding.path)
        if sheet is not None and sheet.suppresses(finding):
            suppressed += 1
        else:
            active.append(finding)

    # Pragma hygiene is only meaningful on a full-rule run: a filtered
    # run would misreport pragmas for unselected rules as unused.
    if selected_rules is None:
        for source in ctx.files:
            active.extend(source.pragmas.audit(source.rel))

    return Report(
        root=str(root),
        rules=[rule.id for rule in rules] + ([PRAGMA_RULE] if selected_rules is None else []),
        files_scanned=len(ctx.files),
        findings=sorted(
            active, key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
        ),
        suppressed=suppressed,
    )


# ======================================================================
# Rendering
# ======================================================================
def render_text(report: Report) -> str:
    lines: List[str] = []
    for finding in report.findings:
        lines.append(f"{finding.location()}: [{finding.rule}] {finding.message}")
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_scanned} file(s)"
    )
    if report.suppressed:
        summary += f" ({report.suppressed} suppressed inline)"
    lines.append(summary)
    if report.clean:
        lines.append("OK: hardware-invariant trust boundary holds")
    return "\n".join(lines)


def render_json(report: Report) -> str:
    payload = {
        "version": REPORT_VERSION,
        "rules": report.rules,
        "files_scanned": report.files_scanned,
        "findings": [f.to_json() for f in report.findings],
        "counts_by_rule": report.counts_by_rule(),
        "suppressed": report.suppressed,
        "clean": report.clean,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


#: Description for the synthetic pragma-hygiene rule in SARIF output.
_PRAGMA_SUMMARY = "every hypertap pragma must be used and justified"


def render_sarif(report: Report) -> str:
    """SARIF 2.1.0 — the interchange format code-scanning UIs ingest.

    Deterministic like the other renderers: rules sorted by id,
    results in the report's canonical finding order, no timestamps.
    """
    summaries = {rule.id: rule.summary for rule in all_rules()}
    summaries[PRAGMA_RULE] = _PRAGMA_SUMMARY
    sarif_rules = [
        {
            "id": rule_id,
            "shortDescription": {
                "text": summaries.get(rule_id, rule_id)
            },
        }
        for rule_id in sorted(report.rules)
    ]
    results = [
        {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": max(1, finding.line),
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in report.findings
    ]
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis",
                        "version": str(REPORT_VERSION),
                        "informationUri": (
                            "https://example.invalid/repro/analysis"
                        ),
                        "rules": sarif_rules,
                    }
                },
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
