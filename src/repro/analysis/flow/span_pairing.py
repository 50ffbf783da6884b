"""``flow.span-pairing`` — CFG span pairing + pinned counter labels.

**Span pairing.**  ``MetricsRegistry.span_begin`` opens a publish-order
flow span that ``span_end`` must close; a span left open on any
non-exception path silently eats the next publish's hops, skewing the
flow-span telemetry that replay determinism tests diff byte-for-byte.
For every function that calls ``span_begin`` this rule runs a forward
dataflow over its CFG tracking the open-span state, and reports a span
still open at the normal exit (fall-through/return) or at an explicit
``raise`` exit — the "leak on raise" an early ``return``-style bug
pattern produces.  ``finally``-closed spans are handled correctly (the
CFG replays ``finally`` bodies on abrupt exits).

**Pinned labels.**  Some counters carry a label that must come from a
pinned vocabulary — ``flow.dropped{reason=…}`` from ``DROP_REASONS``,
``flow.rejected{reason=…}`` from ``REJECT_REASONS``,
``trace.spans_dropped{reason=…}`` from ``TRACE_DROP_REASONS`` — because
ad-hoc labels fragment triage queries (``obs diff`` keys on exact label
rows) and dodge the accounting identity (delivered + dropped + rejected
== published).  Every call whose first argument is a pinned counter's
name — ``registry.inc``, ``registry.counter`` or a helper such as
``AuditingContainer._count`` — must carry the label, as a literal from
the set.  The check is **interprocedural**: a function that forwards a
parameter into the label (``ReplaySource._reject``) is detected, and
every call site of it — including through local aliases like ``reject
= self._reject`` — must pass a literal from the set.  A forwarder with
no call site in the tree is flagged too, since nothing audits its
label.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow import FlowIndex
from repro.analysis.flow.cfg import BranchTest, LoopIter
from repro.analysis.flow.lattice import forward
from repro.analysis.flow.callgraph import FunctionScope, iter_function_scopes
from repro.analysis.repo import AnalysisContext
from repro.analysis.rules import Rule, register

#: (counter, label, table in repro.obs.metrics).
PINNED_LABEL_SETS: Tuple[Tuple[str, str, str], ...] = (
    ("flow.dropped", "reason", "DROP_REASONS"),
    ("flow.rejected", "reason", "REJECT_REASONS"),
    ("trace.spans_dropped", "reason", "TRACE_DROP_REASONS"),
)

_METRICS_MODULE = "repro.obs.metrics"


def _find_str_set(tree: ast.Module, name: str) -> Optional[FrozenSet[str]]:
    """``NAME = frozenset({...})`` (or a plain set/tuple literal)."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            continue
        value = node.value
        if isinstance(value, ast.Call) and value.args:
            value = value.args[0]
        if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
            return frozenset(
                elt.value
                for elt in value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return None


def _literal_first_arg(call: ast.Call) -> Optional[str]:
    """The call's first argument when it is a string literal."""
    if call.args and isinstance(call.args[0], ast.Constant) and isinstance(
        call.args[0].value, str
    ):
        return call.args[0].value
    return None


def _span_calls(stmt: ast.AST) -> List[Tuple[str, ast.Call]]:
    """("begin"|"end", call) nodes inside one statement, lexical order."""
    found: List[Tuple[str, ast.Call]] = []
    stack = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            attr = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if attr == "span_begin":
                found.append(("begin", node))
            elif attr == "span_end":
                found.append(("end", node))
        stack.extend(ast.iter_child_nodes(node))
    found.sort(key=lambda item: (item[1].lineno, item[1].col_offset))
    return found


@register
class SpanPairingRule(Rule):
    id = "flow.span-pairing"
    summary = (
        "span_begin needs span_end on every non-exception path; pinned "
        "counter labels must be literals from their declared set"
    )

    def check(self, ctx: AnalysisContext) -> Iterator[Finding]:
        index = FlowIndex.for_context(ctx)
        for source in ctx.files:
            for scope in iter_function_scopes(source):
                if any(
                    isinstance(n, ast.Call)
                    and _span_calls(n)
                    for n in scope.walk_own()
                    if isinstance(n, ast.Call)
                ):
                    yield from self._check_spans(index, scope)
        yield from self._check_pinned_labels(ctx, index)

    # ------------------------------------------------------------------
    # Span pairing (CFG dataflow)
    # ------------------------------------------------------------------
    def _check_spans(self, index: FlowIndex, scope: FunctionScope
                     ) -> Iterator[Finding]:
        cfg = index.cfg(scope.node)
        rel = scope.source.rel
        emitted: Set[Tuple[int, str]] = set()

        def transfer(block, state):
            open_lines = set(state)
            for stmt in block.stmts:
                node = stmt.test if isinstance(stmt, BranchTest) else (
                    stmt.iter if isinstance(stmt, LoopIter) else stmt
                )
                for kind, call in _span_calls(node):
                    if kind == "begin":
                        open_lines = {call.lineno}
                    else:
                        open_lines = set()
            return frozenset(open_lines)

        in_states = forward(cfg, frozenset(), transfer, frozenset.union)

        findings: List[Finding] = []
        for block_id, state in in_states.items():
            # Re-run with double-begin detection at fixpoint states.
            open_lines = set(state)
            for stmt in cfg.blocks[block_id].stmts:
                node = stmt.test if isinstance(stmt, BranchTest) else (
                    stmt.iter if isinstance(stmt, LoopIter) else stmt
                )
                for kind, call in _span_calls(node):
                    if kind == "begin":
                        if open_lines:
                            key = (call.lineno, "nested")
                            if key not in emitted:
                                emitted.add(key)
                                findings.append(self.finding(
                                    rel, call.lineno,
                                    f"span_begin() in {scope.qualname}() "
                                    f"while a span opened earlier on this "
                                    f"path is still open (the open span's "
                                    f"hops are silently abandoned)",
                                ))
                        open_lines = {call.lineno}
                    else:
                        open_lines = set()
        for exit_id, path in ((cfg.exit, "fall-through/return"),
                              (cfg.raise_exit, "explicit raise")):
            for line in sorted(in_states.get(exit_id, frozenset())):
                findings.append(self.finding(
                    rel, line,
                    f"span_begin() in {scope.qualname}() has no matching "
                    f"span_end() on a {path} path",
                ))
        findings.sort(key=lambda f: (f.line, f.message))
        yield from findings

    # ------------------------------------------------------------------
    # Pinned label sets (direct + interprocedural)
    # ------------------------------------------------------------------
    def _check_pinned_labels(self, ctx: AnalysisContext, index: FlowIndex
                             ) -> Iterator[Finding]:
        metrics = ctx.module(_METRICS_MODULE)
        tables: Dict[str, FrozenSet[str]] = {}
        if metrics is not None:
            for counter, _label, table in PINNED_LABEL_SETS:
                pinned = _find_str_set(metrics.tree, table)
                if pinned is not None:
                    tables[counter] = pinned
        if not tables:
            return
        graph = index.callgraph
        forwarders: List[Tuple[object, str, int, str]] = []
        for source in ctx.files:
            for scope in iter_function_scopes(source):
                params = _positional_params(scope.node)
                for node in scope.walk_own():
                    if not isinstance(node, ast.Call):
                        continue
                    counter = _literal_first_arg(node)
                    if counter is None or counter not in tables:
                        continue
                    label = _pin_label(counter)
                    value = _keyword(node, label)
                    if value is None:
                        yield self.finding(
                            source.rel, node.lineno,
                            f"{counter} call without a {label}= label; "
                            f"unlabelled rows dodge the accounting "
                            f"identity and the pinned set "
                            f"{_table_name(counter)}",
                        )
                    elif isinstance(value, ast.Constant):
                        yield from self._check_literal(
                            source.rel, node, counter, label, value,
                            tables[counter],
                        )
                    elif isinstance(value, ast.Name) and value.id in params:
                        info = graph.functions.get(
                            (source.module, scope.qualname)
                        )
                        if info is not None:
                            forwarders.append(
                                (info, counter,
                                 params.index(value.id), label)
                            )
                    else:
                        yield self.finding(
                            source.rel, node.lineno,
                            f"{counter}{{{label}=…}} must carry a literal "
                            f"{label} from "
                            f"{_table_name(counter)} (or forward a "
                            f"parameter checked at every call site)",
                        )
        for info, counter, param_index, label in forwarders:
            yield from self._check_forwarder(
                graph, info, counter, param_index, label, tables[counter]
            )

    def _check_literal(self, rel, node, counter, label, value, pinned
                       ) -> Iterator[Finding]:
        if not isinstance(value.value, str) or value.value not in pinned:
            yield self.finding(
                rel, node.lineno,
                f"{counter}{{{label}={value.value!r}}} is not in the "
                f"pinned set {_table_name(counter)} "
                f"({', '.join(sorted(pinned))})",
            )

    def _check_forwarder(self, graph, info, counter, param_index, label,
                         pinned) -> Iterator[Finding]:
        param_names = _positional_params(info.node)
        param = param_names[param_index]
        sites = graph.call_sites_of(info)
        if not sites:
            yield self.finding(
                info.rel, info.lineno,
                f"{info.name}() forwards its argument into "
                f"{counter}{{{label}=…}} but has no call site in the tree; "
                f"nothing audits the label against {_table_name(counter)}",
            )
        for source, _scope, call in sites:
            value: Optional[ast.expr] = None
            if param_index < len(call.args):
                candidate = call.args[param_index]
                if not isinstance(candidate, ast.Starred):
                    value = candidate
            for kw in call.keywords:
                if kw.arg == param:
                    value = kw.value
            if value is None:
                continue
            if not isinstance(value, ast.Constant):
                yield self.finding(
                    source.rel, call.lineno,
                    f"{info.name}() forwards its argument into "
                    f"{counter}{{{label}=…}}; call sites must pass a "
                    f"literal from {_table_name(counter)}",
                )
            elif (not isinstance(value.value, str)
                  or value.value not in pinned):
                yield self.finding(
                    source.rel, call.lineno,
                    f"{info.name}() reason {value.value!r} is not in the "
                    f"pinned set {_table_name(counter)} "
                    f"({', '.join(sorted(pinned))})",
                )


def _pin_label(counter: str) -> str:
    for name, label, _table in PINNED_LABEL_SETS:
        if name == counter:
            return label
    raise KeyError(counter)


def _table_name(counter: str) -> str:
    for name, _label, table in PINNED_LABEL_SETS:
        if name == counter:
            return f"{_METRICS_MODULE}.{table}"
    return "<unknown>"


def _keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _positional_params(node: ast.AST) -> List[str]:
    args = getattr(node, "args", None)
    if args is None or not hasattr(args, "args"):
        return []
    names = [a.arg for a in args.posonlyargs + args.args]
    return [n for n in names if n != "self"]
