"""Forward taint dataflow: sources, propagation, summaries, sinks.

*Sources* are parameters annotated with ``GuestEvent`` (or a subclass)
or ``VMExit`` — everything on those objects (``payload``, ``qual()``,
``qualification``) is guest-controlled.  *Sinks* are hypervisor/EM
control actions: EPT permission writes, interrupt injection, VM
pause/resume.  Taint propagates through assignments, arithmetic,
containers and calls; a call to a **declared sanitizer**
(:mod:`repro.analysis.flow.sanitizers`) returns clean, because the
derive layer re-roots the value in architectural state.

The engine is interprocedural via per-function **summaries** computed
on demand and memoized: which parameters flow to the return value, and
which parameters reach a sink inside the callee.  A call with a tainted
argument then either propagates taint (return summary) or reports at
the call site (sink summary) — which is also where an audited pragma
belongs.

Taint values are *sets of source descriptions* (frozensets of strings)
so a finding can name every guest-controlled input that reached the
sink.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.flow.cfg import BranchTest, LoopIter
from repro.analysis.flow.lattice import forward
from repro.analysis.repo import dotted_name

Taint = FrozenSet[str]
_CLEAN: Taint = frozenset()

#: Bare callable names that are control sinks, with the action a
#: finding reports.  ``pending_interrupts.append`` is matched as a
#: dotted suffix below.
_SINK_ATTRS = {
    "set_permissions": "EPT permission write set_permissions()",
    "inject_interrupt": "interrupt injection inject_interrupt()",
    "queue_interrupt": "interrupt injection queue_interrupt()",
    "pause_vm": "VM control pause_vm()",
    "resume_vm": "VM control resume_vm()",
}


def sink_description(call: ast.Call) -> Optional[str]:
    """The control action this call performs, if it is a sink."""
    func = call.func
    name = None
    if isinstance(func, ast.Attribute):
        name = func.attr
        if name == "append":
            dotted = dotted_name(func)
            if dotted is not None and dotted.endswith(
                "pending_interrupts.append"
            ):
                return "interrupt injection pending_interrupts.append()"
            return None
    elif isinstance(func, ast.Name):
        name = func.id
    return _SINK_ATTRS.get(name) if name else None


@dataclass
class Summary:
    """What a callee does with its parameters (self excluded)."""

    #: Parameter names whose taint reaches the return value.
    returns_params: FrozenSet[str] = frozenset()
    #: Parameter name -> sink descriptions its taint reaches.
    param_sinks: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


_EMPTY_SUMMARY = Summary()

#: Events (``.qual()``/attribute access) that read guest-controlled
#: state off a tainted object; plain propagation covers them, listed
#: here only for documentation.
FindingSink = Callable[[int, str], None]


class TaintEngine:
    """Shared across the guest-taint rule's scopes (one per context)."""

    def __init__(self, index) -> None:
        self.index = index
        self._summaries: Dict[Tuple[str, str], Summary] = {}
        self._in_progress: Set[Tuple[str, str]] = set()

    # ------------------------------------------------------------------
    def summary(self, info) -> Summary:
        """Memoized summary for one resolved callee (cycle-safe: a
        recursive chain sees an empty summary, an under-approximation
        consistent with one fixpoint pass)."""
        key = (info.module, info.qualname)
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            return _EMPTY_SUMMARY
        self._in_progress.add(key)
        try:
            computed = self._compute_summary(info)
        finally:
            self._in_progress.discard(key)
        self._summaries[key] = computed
        return computed

    def _compute_summary(self, info) -> Summary:
        from repro.analysis.flow.callgraph import FunctionScope

        scope = FunctionScope(
            self.index.ctx.module(info.module)
            or self._source_for(info),
            info.node,
            info.qualname,
            info.class_name,
        )
        params = _param_names(info.node)
        tainted = {p: frozenset({f"<param:{p}>"}) for p in params}
        run = self.analyze(scope, tainted, report=None)
        returns = frozenset(
            p for p in params if f"<param:{p}>" in run.return_taint
        )
        param_sinks: Dict[str, Tuple[str, ...]] = {}
        for taint_set, sink in run.sink_hits:
            for marker in taint_set:
                if marker.startswith("<param:"):
                    p = marker[len("<param:"):-1]
                    sinks = param_sinks.setdefault(p, ())
                    if sink not in sinks:
                        param_sinks[p] = sinks + (sink,)
        return Summary(returns_params=returns, param_sinks=param_sinks)

    def _source_for(self, info):
        for source in self.index.ctx.files:
            if source.rel == info.rel:
                return source
        raise KeyError(info.rel)

    # ------------------------------------------------------------------
    def analyze(
        self,
        scope,
        tainted_params: Dict[str, Taint],
        report: Optional[FindingSink],
    ) -> "_Run":
        """Run the dataflow over one function scope.

        With ``report`` set, emits findings for tainted sink arguments,
        tainted arguments reaching sinks through callee summaries, and
        tainted branch conditions directly guarding sink calls.
        """
        run = _Run(self, scope, report)
        cfg = self.index.cfg(scope.node)
        initial = tuple(sorted(tainted_params.items()))
        in_states = forward(cfg, initial, run.transfer, _join)
        # Reporting pass at fixpoint (transfer was finding-silent
        # during iteration to avoid duplicates on revisits).
        run.reporting = True
        for block_id in sorted(in_states):
            run.transfer(cfg.blocks[block_id], in_states[block_id])
        return run


def _join(a, b):
    merged = dict(a)
    for name, taint_set in b:
        merged[name] = merged.get(name, _CLEAN) | taint_set
    return tuple(sorted(merged.items()))


def _param_names(node: ast.AST) -> List[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return [n for n in names if n != "self"]


def annotation_names(annotation: Optional[ast.expr]) -> Set[str]:
    """Every plain name mentioned by an annotation (handles
    ``Optional[X]``, ``"X"`` strings, dotted references)."""
    names: Set[str] = set()
    if annotation is None:
        return names
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value.rpartition(".")[2].strip("[]"))
    return names


class _Run:
    """One dataflow execution: transfer function + collected results."""

    def __init__(self, engine: TaintEngine, scope, report) -> None:
        self.engine = engine
        self.scope = scope
        self.report = report
        self.reporting = False
        self.return_taint: Taint = _CLEAN
        #: (taint set, sink description) for every tainted sink arg.
        self.sink_hits: List[Tuple[Taint, str]] = []
        self._reported: Set[Tuple[int, str]] = set()

    # -- state plumbing -------------------------------------------------
    def transfer(self, block, state):
        env: Dict[str, Taint] = dict(state)
        for stmt in block.stmts:
            self._exec(stmt, env)
        return tuple(sorted(item for item in env.items() if item[1]))

    def _exec(self, stmt, env: Dict[str, Taint]) -> None:
        if isinstance(stmt, BranchTest):
            test_taint = self._eval(stmt.test, env)
            if test_taint:
                self._check_guarded_sinks(stmt, test_taint)
            return
        if isinstance(stmt, LoopIter):
            taint = self._eval(stmt.iter, env)
            self._bind(stmt.target, taint, env)
            return
        if isinstance(stmt, ast.Assign):
            taint = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, taint, env)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value, env), env)
            return
        if isinstance(stmt, ast.AugAssign):
            taint = self._eval(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = env.get(stmt.target.id, _CLEAN) | taint
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_taint |= self._eval(stmt.value, env)
            return
        if isinstance(stmt, (ast.Expr, ast.Assert, ast.Delete)):
            if isinstance(stmt, ast.Expr):
                self._eval(stmt.value, env)
            elif isinstance(stmt, ast.Assert):
                self._eval(stmt.test, env)
            else:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        env.pop(target.id, None)
            return
        # Anything else (nested defs, imports, raise, globals): evaluate
        # contained expressions so sink calls inside them are still seen.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._eval(child, env)

    def _bind(self, target: ast.expr, taint: Taint,
              env: Dict[str, Taint]) -> None:
        if isinstance(target, ast.Name):
            if taint:
                env[target.id] = taint
            else:
                env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint, env)
        # Attribute/subscript stores are not tracked (documented limit).

    # -- expression evaluation -----------------------------------------
    def _eval(self, expr: ast.expr, env: Dict[str, Taint]) -> Taint:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, _CLEAN)
        if isinstance(expr, ast.Constant):
            return _CLEAN
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, (ast.Lambda, ast.FunctionDef)):
            return _CLEAN
        if isinstance(expr, ast.Attribute):
            return self._eval(expr.value, env)
        # Generic node: union of child expression taints (BinOp,
        # BoolOp, Compare, Subscript, containers, f-strings,
        # comprehensions, IfExp, Await, Starred ...).
        taint = _CLEAN
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                taint |= self._eval(child, env)
            elif isinstance(child, ast.comprehension):
                taint |= self._eval(child.iter, env)
        return taint

    def _eval_call(self, call: ast.Call, env: Dict[str, Taint]) -> Taint:
        arg_taints: List[Taint] = []
        for arg in call.args:
            node = arg.value if isinstance(arg, ast.Starred) else arg
            arg_taints.append(self._eval(node, env))
        kw_taints: Dict[str, Taint] = {}
        joined = _CLEAN
        for kw in call.keywords:
            taint = self._eval(kw.value, env)
            if kw.arg is not None:
                kw_taints[kw.arg] = taint
            joined |= taint
        for taint in arg_taints:
            joined |= taint
        receiver = _CLEAN
        if isinstance(call.func, ast.Attribute):
            receiver = self._eval(call.func.value, env)
        joined |= receiver

        # Sink check: any tainted direct argument.
        sink = sink_description(call)
        if sink is not None:
            tainted_args = _CLEAN
            for taint in arg_taints:
                tainted_args |= taint
            for taint in kw_taints.values():
                tainted_args |= taint
            if tainted_args:
                self.sink_hits.append((tainted_args, sink))
                self._emit(
                    call.lineno,
                    f"guest-controlled value ({_fmt(tainted_args)}) is an "
                    f"argument to {sink}; derive it through "
                    f"repro.core.derive or add an audited pragma",
                )

        # Declared sanitizer: clean regardless of inputs.
        if self.engine.index.sanitizers.matches(call):
            return _CLEAN

        resolved = self._resolve(call)
        if resolved is not None:
            summary = self.engine.summary(resolved)
            result = _CLEAN
            params = _param_names(resolved.node)
            for i, taint in enumerate(arg_taints):
                if not taint or i >= len(params):
                    continue
                self._apply_param(
                    call, resolved, summary, params[i], taint
                )
                if params[i] in summary.returns_params:
                    result |= taint
            for name, taint in kw_taints.items():
                if not taint or name not in params:
                    continue
                self._apply_param(call, resolved, summary, name, taint)
                if name in summary.returns_params:
                    result |= taint
            return result
        # Unresolved call with tainted inputs: conservatively tainted.
        return joined

    def _apply_param(self, call, resolved, summary: Summary,
                     param: str, taint: Taint) -> None:
        for sink in summary.param_sinks.get(param, ()):
            self.sink_hits.append((taint, sink))
            self._emit(
                call.lineno,
                f"guest-controlled value ({_fmt(taint)}) reaches {sink} "
                f"via {resolved.name}(); derive it through "
                f"repro.core.derive or add an audited pragma",
            )

    def _check_guarded_sinks(self, branch: BranchTest, taint: Taint) -> None:
        bodies = list(getattr(branch.node, "body", []))
        bodies += list(getattr(branch.node, "orelse", []))
        for node in _walk_no_defs(bodies):
            if isinstance(node, ast.Call):
                sink = sink_description(node)
                if sink is not None:
                    self._emit(
                        branch.test.lineno,
                        f"guest-tainted condition ({_fmt(taint)}) decides "
                        f"whether {sink} runs; control decisions must key "
                        f"on derived architectural state",
                    )
                    return

    def _resolve(self, call: ast.Call):
        graph = self.engine.index.callgraph
        return graph.resolve_call(
            call,
            self.scope.source,
            self.scope.class_name,
            self.scope.local_defs(graph),
            self.scope.local_types(graph),
            self.scope.local_aliases(),
        )

    def _emit(self, line: int, message: str) -> None:
        if self.report is None or not self.reporting:
            return
        if (line, message) in self._reported:
            return
        self._reported.add((line, message))
        self.report(line, message)


def _fmt(taint: Taint) -> str:
    return ", ".join(sorted(taint))


def _walk_no_defs(stmts):
    stack = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
