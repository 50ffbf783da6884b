"""Per-function control-flow graphs.

Small, honest CFGs: basic blocks of statements with successor edges,
one dedicated **normal exit** (fall-through and ``return`` paths) and
one **raise exit** reached only by *explicit* ``raise`` statements.
Implicit exceptions (any call may throw) are deliberately not modelled
— the span-pairing rule's contract is "closed on every non-exception
path, and on every path the author explicitly aborts".

``try/finally`` is handled by duplicating the ``finally`` body per
abrupt-exit kind, so a ``span_end`` in a ``finally`` is correctly seen
on return/raise paths without conflating them with fall-through.
``try/except`` handlers are entered conservatively from every block the
``try`` body created.

Branch tests and ``for`` targets appear in blocks as lightweight
markers (:class:`BranchTest`, :class:`LoopIter`) so dataflow transfer
functions can see the test expression without re-walking bodies.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional


class BranchTest:
    """Marker: the test expression of an ``if``/``while`` sits here."""

    __slots__ = ("test", "node")

    def __init__(self, test: ast.expr, node: ast.stmt) -> None:
        self.test = test
        self.node = node  #: The owning If/While (bodies reachable from it).


class LoopIter:
    """Marker: a ``for`` header binding ``target`` from ``iter``."""

    __slots__ = ("target", "iter", "node")

    def __init__(self, node: ast.For) -> None:
        self.target = node.target
        self.iter = node.iter
        self.node = node


class Block:
    __slots__ = ("id", "stmts", "succs")

    def __init__(self, block_id: int) -> None:
        self.id = block_id
        self.stmts: List[object] = []  #: ast.stmt | BranchTest | LoopIter
        self.succs: List[int] = []


class CFG:
    """Blocks, entry, and the two exits."""

    def __init__(self) -> None:
        self.blocks: Dict[int, Block] = {}
        self.entry = self._new().id
        self.exit = self._new().id
        self.raise_exit = self._new().id

    def _new(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks[block.id] = block
        return block


class _Builder:
    def __init__(self, func: ast.AST) -> None:
        self.cfg = CFG()
        #: (head_id, after_id) per enclosing loop, innermost last.
        self.loops: List[tuple] = []
        #: finally bodies of enclosing ``try`` statements, innermost
        #: last; abrupt exits replay the applicable suffix.
        self.finallies: List[List[ast.stmt]] = []
        body = getattr(func, "body", [])
        end = self._seq(body, self.cfg.blocks[self.cfg.entry])
        if end is not None:
            end.succs.append(self.cfg.exit)

    # ------------------------------------------------------------------
    def _edge(self, src: Block, dst_id: int) -> None:
        if dst_id not in src.succs:
            src.succs.append(dst_id)

    def _run_finallies(self, frm: Block, upto: int = 0) -> Block:
        """Lower the pending ``finally`` suffix (innermost first) into a
        fresh chain starting after ``frm``; returns the open end."""
        current = frm
        for final_body in reversed(self.finallies[upto:]):
            saved = self.finallies
            self.finallies = []  # already accounted for in this replay
            nxt = self._seq(final_body, current)
            self.finallies = saved
            if nxt is None:  # the finally itself terminates the path
                return None  # type: ignore[return-value]
            current = nxt
        return current

    # ------------------------------------------------------------------
    def _seq(self, stmts: List[ast.stmt], current: Optional[Block]
             ) -> Optional[Block]:
        for stmt in stmts:
            if current is None:
                # Unreachable tail: still materialize the statements so
                # lexical sweeps see them, but leave the block orphaned.
                current = self.cfg._new()
            current = self._stmt(stmt, current)
        return current

    def _stmt(self, stmt: ast.stmt, current: Block) -> Optional[Block]:
        if isinstance(stmt, ast.If):
            current.stmts.append(BranchTest(stmt.test, stmt))
            after = self.cfg._new()
            then_entry = self.cfg._new()
            self._edge(current, then_entry.id)
            then_end = self._seq(stmt.body, then_entry)
            if then_end is not None:
                self._edge(then_end, after.id)
            if stmt.orelse:
                else_entry = self.cfg._new()
                self._edge(current, else_entry.id)
                else_end = self._seq(stmt.orelse, else_entry)
                if else_end is not None:
                    self._edge(else_end, after.id)
            else:
                self._edge(current, after.id)
            return after

        if isinstance(stmt, ast.While):
            head = self.cfg._new()
            self._edge(current, head.id)
            head.stmts.append(BranchTest(stmt.test, stmt))
            after = self.cfg._new()
            body_entry = self.cfg._new()
            self._edge(head, body_entry.id)
            self._edge(head, after.id)
            self.loops.append((head.id, after.id, len(self.finallies)))
            body_end = self._seq(stmt.body, body_entry)
            self.loops.pop()
            if body_end is not None:
                self._edge(body_end, head.id)
            if stmt.orelse:
                else_end = self._seq(stmt.orelse, after)
                return else_end
            return after

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            head = self.cfg._new()
            self._edge(current, head.id)
            head.stmts.append(LoopIter(stmt))  # type: ignore[arg-type]
            after = self.cfg._new()
            body_entry = self.cfg._new()
            self._edge(head, body_entry.id)
            self._edge(head, after.id)
            self.loops.append((head.id, after.id, len(self.finallies)))
            body_end = self._seq(stmt.body, body_entry)
            self.loops.pop()
            if body_end is not None:
                self._edge(body_end, head.id)
            if stmt.orelse:
                return self._seq(stmt.orelse, after)
            return after

        if isinstance(stmt, ast.Try):
            has_finally = bool(stmt.finalbody)
            if has_finally:
                self.finallies.append(stmt.finalbody)
            watermark = len(self.cfg.blocks)
            body_entry = self.cfg._new()
            self._edge(current, body_entry.id)
            body_end = self._seq(stmt.body, body_entry)
            body_blocks = [
                bid for bid in range(watermark, len(self.cfg.blocks))
            ]
            if body_end is not None and stmt.orelse:
                body_end = self._seq(stmt.orelse, body_end)
            handler_ends: List[Block] = []
            for handler in stmt.handlers:
                handler_entry = self.cfg._new()
                # Any statement of the try body may transfer here.
                for bid in body_blocks:
                    self._edge(self.cfg.blocks[bid], handler_entry.id)
                self._edge(current, handler_entry.id)
                handler_end = self._seq(handler.body, handler_entry)
                if handler_end is not None:
                    handler_ends.append(handler_end)
            if has_finally:
                self.finallies.pop()
            joins = ([body_end] if body_end is not None else []) + handler_ends
            if not joins:
                return None
            if has_finally:
                final_entry = self.cfg._new()
                for block in joins:
                    self._edge(block, final_entry.id)
                saved = self.finallies
                self.finallies = []
                final_end = self._seq(stmt.finalbody, final_entry)
                self.finallies = saved
                return final_end
            after = self.cfg._new()
            for block in joins:
                self._edge(block, after.id)
            return after

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, (ast.Name, ast.Tuple)
                ):
                    current.stmts.append(
                        ast.Assign(
                            targets=[item.optional_vars],
                            value=item.context_expr,
                            lineno=stmt.lineno,
                            col_offset=stmt.col_offset,
                        )
                    )
                else:
                    current.stmts.append(
                        ast.Expr(
                            value=item.context_expr,
                            lineno=stmt.lineno,
                            col_offset=stmt.col_offset,
                        )
                    )
            return self._seq(stmt.body, current)

        if isinstance(stmt, ast.Return):
            current.stmts.append(stmt)
            end = self._run_finallies(current)
            if end is not None:
                self._edge(end, self.cfg.exit)
            return None

        if isinstance(stmt, ast.Raise):
            current.stmts.append(stmt)
            end = self._run_finallies(current)
            if end is not None:
                self._edge(end, self.cfg.raise_exit)
            return None

        if isinstance(stmt, (ast.Break, ast.Continue)):
            if self.loops:
                head_id, after_id, finally_depth = self.loops[-1]
                end = self._run_finallies(current, upto=finally_depth)
                if end is not None:
                    self._edge(
                        end,
                        after_id if isinstance(stmt, ast.Break) else head_id,
                    )
            return None

        # Plain statement (including nested def/class, which dataflow
        # treats as opaque bindings).
        current.stmts.append(stmt)
        return current


def build_cfg(func: ast.AST) -> CFG:
    """CFG for one ``FunctionDef``/``AsyncFunctionDef``."""
    return _Builder(func).cfg
