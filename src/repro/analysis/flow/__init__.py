"""Flow-sensitive analysis layer (``repro.analysis.flow``).

PR 2's rules are syntactic: they can say *who imports whom* but not
*where a value travels*.  The paper's trust argument is a dataflow
property — guest-controlled event payloads flow one way, into isolated
auditors, never back into hypervisor control decisions — so this
package adds the machinery to check flows:

* :mod:`~repro.analysis.flow.callgraph` — a repo-wide index of every
  def/method with import-, alias- and re-export-aware call resolution;
* :mod:`~repro.analysis.flow.cfg` — small per-function control-flow
  graphs with distinct normal-exit and explicit-raise exits;
* :mod:`~repro.analysis.flow.lattice` — a generic forward worklist
  dataflow driver over those CFGs;
* :mod:`~repro.analysis.flow.taint` — the taint engine: sources,
  propagation, interprocedural summaries, sink matching;
* :mod:`~repro.analysis.flow.sanitizers` — the declared-sanitizer
  registry harvested from ``repro.core.derive.TAINT_SANITIZERS``.

Four rule families ride on it (all pragma-suppressible with
``# hypertap: allow(flow.<family>) — why``):

* ``flow.guest-taint``      (:mod:`~repro.analysis.flow.guest_taint`)
* ``flow.async-blocking``   (:mod:`~repro.analysis.flow.async_blocking`)
* ``flow.pool-picklability``(:mod:`~repro.analysis.flow.pool_pickle`)
* ``flow.span-pairing``     (:mod:`~repro.analysis.flow.span_pairing`)

The expensive shared state (call graph, harvested registries, CFG
cache) is built once per :class:`~repro.analysis.repo.AnalysisContext`
and memoized on it, so the four rules — and any future flow rule —
pay for one index regardless of how many of them run.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Optional

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.cfg import CFG, build_cfg
from repro.analysis.flow.sanitizers import harvest_sanitizers
from repro.analysis.repo import AnalysisContext

#: Event classes whose instances carry guest-controlled payloads even
#: when the tree under analysis does not define them (synthetic test
#: fixtures); real trees extend this from ``repro.core.events``.
BASE_EVENT_TYPES = frozenset({"GuestEvent", "VMExit"})


def harvest_event_types(ctx: AnalysisContext) -> FrozenSet[str]:
    """``GuestEvent`` + every subclass defined in ``repro.core.events``
    (+ ``VMExit``): annotating a parameter with one of these marks it a
    taint source."""
    names = set(BASE_EVENT_TYPES)
    source = ctx.module("repro.core.events")
    if source is None:
        return frozenset(names)
    # Two passes so chains (A(GuestEvent), B(A)) resolve without
    # caring about definition order.
    for _ in range(2):
        for node in source.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                base_name = base.attr if isinstance(base, ast.Attribute) else (
                    base.id if isinstance(base, ast.Name) else None
                )
                if base_name in names:
                    names.add(node.name)
    return frozenset(names)


class FlowIndex:
    """Shared, lazily built state for every flow rule."""

    def __init__(self, ctx: AnalysisContext) -> None:
        self.ctx = ctx
        self.callgraph = CallGraph(ctx)
        self.event_types = harvest_event_types(ctx)
        self.sanitizers = harvest_sanitizers(ctx)
        self._cfgs: Dict[int, CFG] = {}

    def cfg(self, func: ast.AST) -> CFG:
        """Memoized CFG for one function node."""
        key = id(func)
        cached = self._cfgs.get(key)
        if cached is None:
            cached = build_cfg(func)
            self._cfgs[key] = cached
        return cached

    @classmethod
    def for_context(cls, ctx: AnalysisContext) -> "FlowIndex":
        """The one index per context (built on first use)."""
        index: Optional[FlowIndex] = getattr(ctx, "_flow_index", None)
        if index is None:
            index = cls(ctx)
            ctx._flow_index = index  # type: ignore[attr-defined]
        return index
