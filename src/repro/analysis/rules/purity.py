"""auditor-purity: auditors observe; only the sanctioned API mutates.

An auditor receiving derived events must not reach around the framework
and mutate the machine, vCPU registers, EPT permissions, or guest
kernel objects directly — the sanctioned mutation surface is the
HyperTap control interface (``pause_vm``/``resume_vm``) plus explicitly
blocking interception configured at attach time.  Direct mutation from
an audit path is invisible to cost accounting and to record/replay
(replay has no machine to mutate, so the live and replayed runs would
diverge).

The paper's passive baselines (O-Ninja kills in-guest processes,
blocking H-Ninja freezes the VM around a scan) are deliberate and carry
inline ``allow(auditor-purity)`` annotations.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional

from repro.analysis.findings import Finding
from repro.analysis.repo import AnalysisContext, SourceFile
from repro.analysis.rules import Rule, register
from repro.analysis.rules.trust_boundary import AUDITOR_PREFIX

#: Attribute-chain segments that name mutable machine/guest state.
STATE_SEGMENTS: FrozenSet[str] = frozenset(
    {"machine", "vcpu", "vcpus", "regs", "ept", "kernel", "memory", "msrs"}
)

#: Method names that mutate state when called through such a chain.
MUTATING_CALLS: FrozenSet[str] = frozenset(
    {
        "force_exit",
        "spawn_process",
        "set_permissions",
        "write_u64",
        "write_bytes",
        "map_page",
        "host_write_u64_gpa",
    }
)


def _chain(node: ast.AST) -> Optional[List[str]]:
    """``self.machine.vm_paused`` -> ["self", "machine", "vm_paused"]."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        parts.reverse()
        return parts
    return None


@register
class AuditorPurityRule(Rule):
    id = "auditor-purity"
    summary = (
        "auditors may read events but not mutate machine/CPU/guest state "
        "outside the sanctioned control interface"
    )

    def check(self, ctx: AnalysisContext) -> Iterator[Finding]:
        for source in ctx.modules_under(AUDITOR_PREFIX):
            yield from self._check_file(source)

    def _check_file(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    chain = _chain(target)
                    # Everything before the final attribute is what the
                    # write reaches *through*; assigning `self.machine =
                    # machine` in an __init__ merely stores a reference
                    # and is fine, `self.machine.vm_paused = True` is not.
                    if chain and STATE_SEGMENTS & (set(chain[:-1]) - {"self"}):
                        yield self._finding(
                            source, node.lineno, ".".join(chain), "assigns to"
                        )
            elif isinstance(node, ast.Call):
                chain = _chain(node.func)
                if (
                    chain
                    and chain[-1] in MUTATING_CALLS
                    and STATE_SEGMENTS & set(chain[:-1])
                ):
                    yield self._finding(
                        source, node.lineno, ".".join(chain) + "()", "calls"
                    )

    def _finding(
        self, source: SourceFile, line: int, what: str, verb: str
    ) -> Finding:
        return self.finding(
            source.rel,
            line,
            f"auditor {verb} machine/guest state '{what}'; use the "
            "sanctioned control interface (HyperTap.pause_vm/resume_vm) or "
            "annotate a deliberate baseline with "
            "'# hypertap: allow(auditor-purity) — why'",
        )
