"""event-coverage: no event type may silently bypass record/replay.

PR 1 fixed a silent hole: the trace recorder's hand-rolled serializer
covered only a subset of event classes, so ``TSS_INTEGRITY`` /
``MEM_ACCESS`` / ``RAW_EXIT`` payloads were dropped — and nothing
cross-referenced the event registry against the codec.  This rule makes
that class of gap a commit-time failure by checking, from the ASTs:

1. **codec registry** — every concrete ``GuestEvent`` subclass defined
   in ``repro.core.events`` is registered (as a value) in
   ``EVENT_CLASSES``, the single decode registry replay relies on;
2. **type keys** — every ``EventType`` member keys ``EVENT_CLASSES``
   (via ``EventType.X.value``), so ``GuestEvent.from_record`` can decode
   it on the replay path;
3. **interception table** — every ``EventType`` member keys
   ``REQUIRED_EXIT_REASONS``, so the unified channel knows which exits
   to trap for it;
4. **forwarder dispatch** — every ``ExitReason`` member is claimed by at
   least one ``Interceptor.reasons`` set in ``repro.core.interception``
   (otherwise the Event Forwarder suppresses those exits for everyone);
5. **no shadow registries** — no module other than ``repro.core.events``
   may define its own ``EventType -> class`` mapping (a parallel
   dispatch table is exactly how the pre-PR-1 gap happened);
6. **stage counters** — every ``EventType`` member keys
   ``repro.obs.metrics.STAGE_COUNTER_LABELS``, so no event type can flow
   through the pipeline without an observability stage counter (silent
   drops of an uncounted type would be invisible to ``repro.obs``);
7. **binary layouts** — every ``EventType`` member's *value* keys both
   ``repro.replay.btrace.BTRACE_LAYOUTS`` and ``TYPE_CODES``.  A new
   ``GuestEvent`` subclass without a binary layout would fall to the
   JSON-escape path silently — correct but 10x slower, which is
   exactly the drift a perf-gated codec must fail loudly on.  (The
   btrace tables key on plain type-value strings, not ``EventType``
   attributes: shadow-registry detection — check 5 — keys on the
   latter, and the codec's keys are record-field bytes, not enum
   identity.)

If ``repro.core.events`` is absent from the analyzed tree (partial
checkouts, unit-test fixtures) the structural checks are skipped.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.repo import AnalysisContext, SourceFile, dotted_name
from repro.analysis.rules import Rule, register

EVENTS_MODULE = "repro.core.events"
EXITS_MODULE = "repro.hw.exits"
INTERCEPTION_MODULE = "repro.core.interception"
OBS_METRICS_MODULE = "repro.obs.metrics"
BTRACE_MODULE = "repro.replay.btrace"
BTRACE_LAYOUT_TABLE = "BTRACE_LAYOUTS"
BTRACE_CODE_TABLE = "TYPE_CODES"

#: Base classes whose subclasses the codec must register.
EVENT_BASE = "GuestEvent"
CODEC_REGISTRY = "EVENT_CLASSES"
REASONS_TABLE = "REQUIRED_EXIT_REASONS"
STAGE_TABLE = "STAGE_COUNTER_LABELS"


def _enum_members(tree: ast.Module, enum_name: str) -> Tuple[List[str], int]:
    """Names assigned in ``class <enum_name>``'s body, plus its line."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == enum_name:
            members = []
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) and not target.id.startswith(
                            "_"
                        ):
                            members.append(target.id)
            return members, node.lineno
    return [], 1


def _enum_member_values(
    tree: ast.Module, enum_name: str
) -> List[Tuple[str, str]]:
    """``(name, value)`` pairs for string-valued members of the enum."""
    pairs: List[Tuple[str, str]] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == enum_name:
            for stmt in node.body:
                if not isinstance(stmt, ast.Assign):
                    continue
                value = stmt.value
                if not (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and not target.id.startswith(
                        "_"
                    ):
                        pairs.append((target.id, value.value))
    return pairs


def _class_defs(tree: ast.Module) -> List[ast.ClassDef]:
    return [node for node in tree.body if isinstance(node, ast.ClassDef)]


def _subclasses_of(tree: ast.Module, base: str) -> List[ast.ClassDef]:
    return [
        node
        for node in _class_defs(tree)
        if any(isinstance(b, ast.Name) and b.id == base for b in node.bases)
    ]


def _find_dict_assign(
    tree: ast.Module, name: str
) -> Tuple[Optional[ast.Dict], int]:
    """The dict literal assigned to module-level ``name``, plus its line."""
    for node in tree.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if (
            isinstance(target, ast.Name)
            and target.id == name
            and isinstance(value, ast.Dict)
        ):
            return value, node.lineno
    return None, 1


def _event_type_of_key(key: Optional[ast.expr]) -> Optional[str]:
    """``EventType.X`` or ``EventType.X.value`` -> ``X``."""
    dotted = dotted_name(key) if key is not None else None
    if dotted is None:
        return None
    parts = dotted.split(".")
    if parts[-1] == "value":
        parts = parts[:-1]
    if len(parts) == 2 and parts[0] == "EventType":
        return parts[1]
    return None


def _reason_names(expr: ast.expr) -> Optional[Set[str]]:
    """Evaluate a ``reasons``-style expression to ExitReason member names.

    Understands ``frozenset({ExitReason.A, ...})``, ``frozenset(set(
    ExitReason))`` (meaning *all* members), ``frozenset()`` and plain
    set literals.  Returns None when the expression names all members.
    """
    if isinstance(expr, ast.Call):
        func = dotted_name(expr.func)
        if func in ("frozenset", "set"):
            if not expr.args:
                return set()
            return _reason_names(expr.args[0])
    if isinstance(expr, (ast.Set, ast.List, ast.Tuple)):
        names: Set[str] = set()
        for element in expr.elts:
            dotted = dotted_name(element)
            if dotted and dotted.startswith("ExitReason."):
                names.add(dotted.split(".", 1)[1])
        return names
    dotted = dotted_name(expr)
    if dotted == "ExitReason":
        return None  # iterating the enum: covers every member
    return set()


@register
class EventCoverageRule(Rule):
    id = "event-coverage"
    summary = (
        "every ExitReason and GuestEvent subclass must be wired through "
        "the codec registry, interception table, and forwarder dispatch"
    )

    def check(self, ctx: AnalysisContext) -> Iterator[Finding]:
        events = ctx.module(EVENTS_MODULE)
        if events is not None:
            yield from self._check_codec(events)
        yield from self._check_shadow_registries(ctx)
        exits = ctx.module(EXITS_MODULE)
        interception = ctx.module(INTERCEPTION_MODULE)
        if exits is not None and interception is not None:
            yield from self._check_dispatch(exits, interception)
        obs = ctx.module(OBS_METRICS_MODULE)
        if events is not None and obs is not None:
            yield from self._check_stage_counters(events, obs)
        btrace = ctx.module(BTRACE_MODULE)
        if events is not None and btrace is not None:
            yield from self._check_btrace_layouts(events, btrace)

    # ------------------------------------------------------------------
    def _check_codec(self, events: SourceFile) -> Iterator[Finding]:
        tree = events.tree
        event_types, _ = _enum_members(tree, "EventType")
        registry, registry_line = _find_dict_assign(tree, CODEC_REGISTRY)
        reasons_table, reasons_line = _find_dict_assign(tree, REASONS_TABLE)

        registered_classes: Set[str] = set()
        registered_types: Set[str] = set()
        if registry is not None:
            for key, value in zip(registry.keys, registry.values):
                member = _event_type_of_key(key)
                if member is not None:
                    registered_types.add(member)
                if isinstance(value, ast.Name):
                    registered_classes.add(value.id)
        else:
            yield self.finding(
                events.rel,
                1,
                f"codec registry '{CODEC_REGISTRY}' not found as a "
                "module-level dict literal; replay cannot enumerate "
                "decodable event classes",
            )

        # 1. every concrete GuestEvent subclass is in the codec registry.
        for cls in _subclasses_of(tree, EVENT_BASE):
            if cls.name not in registered_classes:
                yield self.finding(
                    events.rel,
                    cls.lineno,
                    f"GuestEvent subclass '{cls.name}' is not registered in "
                    f"{CODEC_REGISTRY}; record/replay would silently drop "
                    "its payload (the pre-PR-1 codec gap)",
                )

        # 2. every EventType member keys the codec registry.
        if registry is not None:
            for member in event_types:
                if member not in registered_types:
                    yield self.finding(
                        events.rel,
                        registry_line,
                        f"EventType.{member} has no {CODEC_REGISTRY} entry; "
                        "GuestEvent.from_record cannot decode it on the "
                        "replay path",
                    )

        # 3. every EventType member keys REQUIRED_EXIT_REASONS.
        if reasons_table is not None:
            required_types = {
                m
                for m in (_event_type_of_key(k) for k in reasons_table.keys)
                if m is not None
            }
            for member in event_types:
                if member not in required_types:
                    yield self.finding(
                        events.rel,
                        reasons_line,
                        f"EventType.{member} has no {REASONS_TABLE} entry; "
                        "the unified channel would not know which exits to "
                        "trap for it",
                    )
        else:
            yield self.finding(
                events.rel,
                1,
                f"interception table '{REASONS_TABLE}' not found as a "
                "module-level dict literal",
            )

    # ------------------------------------------------------------------
    def _check_dispatch(
        self, exits: SourceFile, interception: SourceFile
    ) -> Iterator[Finding]:
        reasons, reasons_class_line = _enum_members(exits.tree, "ExitReason")
        covered: Set[str] = set()
        covers_all = False
        for cls in _class_defs(interception.tree):
            for stmt in cls.body:
                if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                    continue
                target = stmt.targets[0]
                if not (isinstance(target, ast.Name) and target.id == "reasons"):
                    continue
                names = _reason_names(stmt.value)
                if names is None:
                    covers_all = True
                else:
                    covered |= names
        if covers_all:
            return
        for member in reasons:
            if member not in covered:
                yield self.finding(
                    exits.rel,
                    reasons_class_line,
                    f"ExitReason.{member} is dispatched by no interceptor in "
                    f"{INTERCEPTION_MODULE}; the Event Forwarder would "
                    "suppress those exits for every monitor",
                )

    # ------------------------------------------------------------------
    def _check_stage_counters(
        self, events: SourceFile, obs: SourceFile
    ) -> Iterator[Finding]:
        event_types, _ = _enum_members(events.tree, "EventType")
        table, table_line = _find_dict_assign(obs.tree, STAGE_TABLE)
        if table is None:
            yield self.finding(
                obs.rel,
                1,
                f"stage-counter table '{STAGE_TABLE}' not found as a "
                "module-level dict literal; repro.obs cannot account "
                "published events per type",
            )
            return
        labelled = {
            m
            for m in (_event_type_of_key(k) for k in table.keys)
            if m is not None
        }
        for member in event_types:
            if member not in labelled:
                yield self.finding(
                    obs.rel,
                    table_line,
                    f"EventType.{member} has no {STAGE_TABLE} entry; it "
                    "would flow through the pipeline with no stage "
                    "counter, so a silent drop of that type is invisible "
                    "to repro.obs",
                )

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    def _check_btrace_layouts(
        self, events: SourceFile, btrace: SourceFile
    ) -> Iterator[Finding]:
        pairs = _enum_member_values(events.tree, "EventType")
        for table_name in (BTRACE_LAYOUT_TABLE, BTRACE_CODE_TABLE):
            table, table_line = _find_dict_assign(btrace.tree, table_name)
            if table is None:
                yield self.finding(
                    btrace.rel,
                    1,
                    f"binary layout table '{table_name}' not found as a "
                    "module-level dict literal; the btrace codec cannot be "
                    "audited against EventType",
                )
                continue
            keyed = {
                k.value
                for k in table.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            }
            for member, value in pairs:
                if value not in keyed:
                    yield self.finding(
                        btrace.rel,
                        table_line,
                        f"EventType.{member} (value {value!r}) has no "
                        f"{table_name} entry; the btrace codec would demote "
                        "it to the JSON-escape path — a silent 10x decode "
                        "regression on the ledger-gated hot path",
                    )

    # ------------------------------------------------------------------
    def _check_shadow_registries(self, ctx: AnalysisContext) -> Iterator[Finding]:
        for source in ctx.files:
            if source.module == EVENTS_MODULE:
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Dict):
                    continue
                typed_keys = [
                    k
                    for k in node.keys
                    if k is not None
                    and (dotted := dotted_name(k)) is not None
                    and dotted.startswith("EventType.")
                    and dotted.endswith(".value")
                ]
                if len(typed_keys) >= 2:
                    yield self.finding(
                        source.rel,
                        node.lineno,
                        "shadow event-type registry (dict keyed by "
                        "EventType.*.value) outside repro.core.events; "
                        f"extend {CODEC_REGISTRY} instead so record/replay "
                        "and this mapping cannot drift apart",
                    )
