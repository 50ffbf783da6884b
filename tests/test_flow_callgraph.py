"""Units for the flow layer's shared machinery (repro.analysis.flow):
call-graph resolution through methods, aliased imports and package
re-exports; CFG exits (return / explicit raise / finally); and the
taint engine's sanitizer + summary behaviour in isolation."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis.flow import FlowIndex
from repro.analysis.flow.callgraph import (
    CallGraph,
    FunctionScope,
    iter_function_scopes,
)
from repro.analysis.flow.cfg import build_cfg
from repro.analysis.repo import AnalysisContext
from repro.analysis.rules import rule_ids


def make_ctx(base: Path, files: dict) -> AnalysisContext:
    root = base / "src"
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return AnalysisContext(root, known_rules=set(rule_ids()))


def scope_named(ctx: AnalysisContext, module: str, qualname: str
                ) -> FunctionScope:
    source = ctx.module(module)
    assert source is not None, module
    for scope in iter_function_scopes(source):
        if scope.qualname == qualname:
            return scope
    raise AssertionError(f"no scope {qualname!r} in {module}")


def calls_in(scope: FunctionScope):
    return [n for n in scope.walk_own() if isinstance(n, ast.Call)]


def resolve_first_call(graph: CallGraph, scope: FunctionScope):
    call = calls_in(scope)[0]
    return graph.resolve_call(
        call, scope.source, scope.class_name, scope.local_defs(graph),
        scope.local_types(graph), scope.local_aliases(),
    )


# ======================================================================
# Call-graph resolution
# ======================================================================
class TestCallGraph:
    def test_module_level_def_and_self_method(self, tmp_path):
        ctx = make_ctx(
            tmp_path,
            {
                "repro/mod.py": """
                def helper():
                    return 1

                class Engine:
                    def _inner(self):
                        return 2

                    def run(self):
                        return helper()

                    def run2(self):
                        return self._inner()
                """,
            },
        )
        graph = CallGraph(ctx)
        run = scope_named(ctx, "repro.mod", "Engine.run")
        resolved = resolve_first_call(graph, run)
        assert resolved is not None and resolved.qualname == "helper"
        run2 = scope_named(ctx, "repro.mod", "Engine.run2")
        resolved = resolve_first_call(graph, run2)
        assert resolved is not None
        assert resolved.qualname == "Engine._inner"
        assert resolved.is_method and resolved.class_name == "Engine"

    def test_inherited_method_resolves_through_base(self, tmp_path):
        ctx = make_ctx(
            tmp_path,
            {
                "repro/base.py": """
                class Base:
                    def shared(self):
                        return 1
                """,
                "repro/child.py": """
                from repro.base import Base

                class Child(Base):
                    def go(self):
                        return self.shared()
                """,
            },
        )
        graph = CallGraph(ctx)
        go = scope_named(ctx, "repro.child", "Child.go")
        resolved = resolve_first_call(graph, go)
        assert resolved is not None and resolved.qualname == "Base.shared"
        assert resolved.module == "repro.base"

    def test_aliased_import_forms(self, tmp_path):
        ctx = make_ctx(
            tmp_path,
            {
                "repro/util.py": """
                def crunch():
                    return 1
                """,
                "repro/a.py": """
                from repro.util import crunch as c

                def go():
                    return c()
                """,
                "repro/b.py": """
                import repro.util as u

                def go():
                    return u.crunch()
                """,
                "repro/c.py": """
                from repro import util

                def go():
                    return util.crunch()
                """,
            },
        )
        graph = CallGraph(ctx)
        for module in ("repro.a", "repro.b", "repro.c"):
            scope = scope_named(ctx, module, "go")
            resolved = resolve_first_call(graph, scope)
            assert resolved is not None, module
            assert (resolved.module, resolved.name) == ("repro.util", "crunch")

    def test_package_reexport_chases_to_definition(self, tmp_path):
        ctx = make_ctx(
            tmp_path,
            {
                "repro/pkg/__init__.py": """
                from repro.pkg.impl import work
                """,
                "repro/pkg/impl.py": """
                def work():
                    return 1
                """,
                "repro/user.py": """
                from repro.pkg import work

                def go():
                    return work()
                """,
            },
        )
        graph = CallGraph(ctx)
        scope = scope_named(ctx, "repro.user", "go")
        resolved = resolve_first_call(graph, scope)
        assert resolved is not None
        assert (resolved.module, resolved.name) == ("repro.pkg.impl", "work")

    def test_relative_import_in_package(self, tmp_path):
        ctx = make_ctx(
            tmp_path,
            {
                "repro/pkg/__init__.py": "",
                "repro/pkg/impl.py": """
                def work():
                    return 1
                """,
                "repro/pkg/use.py": """
                from .impl import work

                def go():
                    return work()
                """,
            },
        )
        graph = CallGraph(ctx)
        scope = scope_named(ctx, "repro.pkg.use", "go")
        resolved = resolve_first_call(graph, scope)
        assert resolved is not None and resolved.module == "repro.pkg.impl"

    def test_local_alias_and_constructor_type(self, tmp_path):
        ctx = make_ctx(
            tmp_path,
            {
                "repro/mod.py": """
                class Engine:
                    def step(self):
                        return 1

                def alias_user(self_obj):
                    e = Engine()
                    return e.step()

                class Holder:
                    def _reject(self, reason):
                        return reason

                    def run(self):
                        reject = self._reject
                        return reject("x")
                """,
            },
        )
        graph = CallGraph(ctx)
        scope = scope_named(ctx, "repro.mod", "alias_user")
        resolved = resolve_first_call(graph, scope)
        assert resolved is not None and resolved.qualname == "Engine.step"
        run = scope_named(ctx, "repro.mod", "Holder.run")
        # First call lexically is reject("x") or self._reject capture;
        # find the Name-call explicitly.
        target = graph.functions[("repro.mod", "Holder._reject")]
        sites = graph.call_sites_of(target)
        assert any(s[1].qualname == "Holder.run" for s in sites)
        del run

    def test_nested_def_is_flagged_nested(self, tmp_path):
        ctx = make_ctx(
            tmp_path,
            {
                "repro/mod.py": """
                def outer():
                    def inner(x):
                        return x
                    return inner(1)
                """,
            },
        )
        graph = CallGraph(ctx)
        scope = scope_named(ctx, "repro.mod", "outer")
        resolved = resolve_first_call(graph, scope)
        assert resolved is not None and resolved.is_nested
        assert resolved.qualname == "outer.<locals>.inner"

    def test_unresolvable_duck_typed_call_is_none(self, tmp_path):
        ctx = make_ctx(
            tmp_path,
            {
                "repro/mod.py": """
                def go(transport):
                    return transport.send(b"x")
                """,
            },
        )
        graph = CallGraph(ctx)
        scope = scope_named(ctx, "repro.mod", "go")
        assert resolve_first_call(graph, scope) is None


# ======================================================================
# CFG construction
# ======================================================================
def _cfg_for(code: str):
    tree = ast.parse(textwrap.dedent(code))
    func = tree.body[0]
    return build_cfg(func)


class TestCfg:
    def test_raise_has_its_own_exit(self):
        cfg = _cfg_for(
            """
            def f(x):
                if x:
                    raise ValueError(x)
                return 1
            """
        )
        raise_preds = [b.id for b in cfg.blocks.values() if cfg.raise_exit in b.succs]
        exit_preds = [b.id for b in cfg.blocks.values() if cfg.exit in b.succs]
        assert raise_preds and exit_preds
        assert set(raise_preds).isdisjoint(set(exit_preds))

    def test_finally_body_runs_on_both_exits(self):
        cfg = _cfg_for(
            """
            def f(x):
                try:
                    if x:
                        raise ValueError(x)
                finally:
                    cleanup()
                return 1
            """
        )
        # The finally body is duplicated: cleanup() must appear in more
        # than one block (normal lowering + abrupt-exit copy).
        cleanup_blocks = [
            b.id
            for b in cfg.blocks.values()
            for stmt in b.stmts
            if isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and getattr(stmt.value.func, "id", None) == "cleanup"
        ]
        assert len(cleanup_blocks) >= 2

    def test_loop_back_edge_exists(self):
        cfg = _cfg_for(
            """
            def f(items):
                total = 0
                for item in items:
                    total += item
                return total
            """
        )
        # Some block must have a successor with a smaller-or-equal id
        # (the back edge to the loop head).
        assert any(
            succ <= block.id
            for block in cfg.blocks.values()
            for succ in block.succs
        )


# ======================================================================
# FlowIndex memoization
# ======================================================================
class TestFlowIndex:
    def test_index_is_shared_per_context(self, tmp_path):
        ctx = make_ctx(tmp_path, {"repro/mod.py": "def f():\n    return 1\n"})
        a = FlowIndex.for_context(ctx)
        b = FlowIndex.for_context(ctx)
        assert a is b

    def test_default_event_types_without_events_module(self, tmp_path):
        ctx = make_ctx(tmp_path, {"repro/mod.py": ""})
        index = FlowIndex.for_context(ctx)
        assert {"GuestEvent", "VMExit"} <= set(index.event_types)

    def test_event_subclasses_harvested(self, tmp_path):
        ctx = make_ctx(
            tmp_path,
            {
                "repro/core/events.py": """
                class GuestEvent:
                    pass

                class SyscallEvent(GuestEvent):
                    pass

                class FancySyscallEvent(SyscallEvent):
                    pass
                """,
            },
        )
        index = FlowIndex.for_context(ctx)
        assert "SyscallEvent" in index.event_types
        assert "FancySyscallEvent" in index.event_types

    def test_sanitizers_harvested_from_declared_table(self, tmp_path):
        ctx = make_ctx(
            tmp_path,
            {
                "repro/core/derive.py": """
                TAINT_SANITIZERS = ("Cleaner.scrub",)

                class Cleaner:
                    def scrub(self, value):
                        return 0
                """,
            },
        )
        index = FlowIndex.for_context(ctx)
        assert index.sanitizers.names == frozenset({"scrub"})

    def test_sanitizer_fallback_matches_shipped_derive_chain(self, tmp_path):
        ctx = make_ctx(tmp_path, {"repro/mod.py": ""})
        index = FlowIndex.for_context(ctx)
        assert "task_info_from_rsp0" in index.sanitizers.names
