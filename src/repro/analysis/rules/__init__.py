"""Rule registry for the invariant-aware static-analysis pass.

A rule is a class with a stable ``id``, a one-line ``summary``, and a
``check(ctx)`` generator yielding :class:`~repro.analysis.findings.Finding`
objects.  Registering it here is all it takes to ship a new rule — the
runner, the pragma mechanism (``# hypertap: allow(<id>) — why``) and
``--rules`` selection pick it up automatically.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Type

from repro.analysis.findings import Finding
from repro.analysis.repo import AnalysisContext


class Rule:
    """Base class: subclass, set ``id``/``summary``, implement ``check``."""

    id: str = ""
    summary: str = ""

    def check(self, ctx: AnalysisContext) -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def finding(cls, path: str, line: int, message: str, col: int = 0) -> Finding:
        return Finding(path=path, line=line, rule=cls.id, message=message, col=col)


#: id -> rule class, populated by :func:`register`.
REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id!r}")
    REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, sorted by id."""
    _ensure_loaded()
    return [REGISTRY[rule_id]() for rule_id in sorted(REGISTRY)]


def rule_ids() -> List[str]:
    _ensure_loaded()
    return sorted(REGISTRY)


def _ensure_loaded() -> None:
    """Import the built-in rule modules exactly once."""
    # Imported lazily so ``repro.analysis.rules`` can be imported by the
    # rule modules themselves without a cycle.
    from repro.analysis.rules import (  # noqa: F401
        determinism,
        event_coverage,
        purity,
        trust_boundary,
    )
    from repro.analysis.flow import (  # noqa: F401
        async_blocking,
        guest_taint,
        pool_pickle,
        span_pairing,
    )
