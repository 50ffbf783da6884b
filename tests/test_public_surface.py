"""Public-surface guard: every public def under ``src/`` has a caller
outside ``tests/``.

A public function, method or property (no leading ``_``) that only the
tests call is code the monitor carries and trusts for nothing.  The
guard parses each file once and counts only code: a def is referenced
when its name is a ``Name`` or an ``Attribute`` in ``src/``,
``perfbench/``, ``examples/`` or ``benchmarks/``, or a string constant
shaped like an identifier.  A dotted constant is split on ``.``, so
perfbench's ``Boundary("module", "Class.method", ...)`` rows count for
``method``.  Comments, docstrings, ``import`` statements and ``__all__``
entries do not count; ``.github/`` YAML is matched as text.  The match
is by name, so the guard is a floor: it catches defs nothing calls, not
defs that share a name with a live one.

``KEPT`` lists the only exceptions: defs a test uses as an independent
oracle against the production path, each with the reason it stays.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Trees whose code counts as a caller (``tests/`` is deliberately absent).
CALLER_TREES = ("src", "perfbench", "examples", "benchmarks", ".github")

KEPT = {
    "repro.hw.tss.encode_tss": (
        "packs the SDM's 64-bit TSS layout from TSS_FIELDS, apart from the "
        "hardware path, which knows only RSP0_OFFSET; the TSS properties "
        "check the RSP0 word that path reads against it"
    ),
    "repro.hw.tss.decode_tss": (
        "inverse of encode_tss: the round-trip property checks the oracle "
        "itself before it judges RSP0_OFFSET"
    ),
    "repro.hw.vmcs.decode_controls": (
        "inverse of encode_controls, which packs the hut digest's "
        "controls word: the VMCS round-trip property decodes each word "
        "back, so two control states are equal iff their words are"
    ),
    "repro.obs.metrics.MetricsRegistry.spans_minted": (
        "trace ids minted, counted apart from the span ring and the drop "
        "counter; the span-conservation law (minted == ring + dropped) "
        "needs it as the independent side"
    ),
}

_IDENT = re.compile(r"[A-Za-z_]\w*")


def _is_all(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _code_names(tree: ast.Module) -> Iterator[str]:
    """Names the code uses: ``Name`` ids, ``Attribute`` attrs and the
    ``.``-separated parts of identifier-shaped string constants, outside
    ``__all__`` assignments (imports hold only ``alias`` nodes)."""
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if _is_all(node):
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(not part or _IDENT.fullmatch(part) for part in parts):
                yield from filter(None, parts)
        stack.extend(ast.iter_child_nodes(node))


def _public_defs(tree: ast.Module, module: str) -> Iterator[Tuple[str, str]]:
    """``(qualname, name)`` of module-level and class-level public defs."""

    def walk(body: list, prefix: str) -> Iterator[Tuple[str, str]]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    yield f"{prefix}{node.name}", node.name

    for qualname, name in walk(tree.body, ""):
        yield f"{module}.{qualname}", name


def unreferenced_defs(root: Path) -> List[str]:
    """Qualified names of public ``src/`` defs with no caller outside tests."""
    mentions: Counter = Counter()
    defs: List[Tuple[str, str]] = []
    for tree_name in CALLER_TREES:
        base = root / tree_name
        for path in sorted(base.rglob("*")):
            if path.suffix in (".yml", ".yaml"):
                mentions.update(_IDENT.findall(path.read_text()))
                continue
            if path.suffix != ".py" or "tests" in path.relative_to(root).parts:
                continue
            tree = ast.parse(path.read_text(), str(path))
            mentions.update(_code_names(tree))
            if tree_name == "src":
                parts = path.relative_to(base).with_suffix("").parts
                if parts[-1] == "__init__":
                    parts = parts[:-1]
                defs.extend(_public_defs(tree, ".".join(parts)))
    return sorted(qualname for qualname, name in defs if not mentions[name])


# ======================================================================
# The repository
# ======================================================================
@pytest.fixture(scope="module")
def repo_orphans() -> List[str]:
    return unreferenced_defs(REPO)


def test_every_public_def_has_a_caller_outside_tests(repo_orphans):
    orphans = [name for name in repo_orphans if name not in KEPT]
    assert not orphans, (
        "public defs only tests keep alive (delete them, or route the "
        "tests through the production path): " + ", ".join(orphans)
    )


def test_kept_entries_are_live_oracles(repo_orphans):
    # A KEPT entry whose def is gone, or that gained a real caller, is stale.
    assert sorted(KEPT) == [name for name in repo_orphans if name in KEPT]
    assert all(reason.strip() for reason in KEPT.values())


# ======================================================================
# Seeded trees
# ======================================================================
def _seed(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


_MODULE = """\
def only_tested():
    return 1


def used_by_example():
    return 2


def used_by_perfbench():
    return 3


def reexported():
    return 4


def _private():
    return 5


class Widget:
    def spin(self):
        return used_in_src()


def used_in_src():
    return 6
"""


def test_seeded_def_referenced_only_from_tests_is_flagged(tmp_path):
    root = _seed(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/mod.py": _MODULE,
        "tests/test_mod.py": (
            "from pkg.mod import only_tested, reexported\n"
            "assert only_tested() == 1\n"
            "assert reexported() == 4\n"
            "Widget().spin()\n"
        ),
        "examples/demo.py": "from pkg.mod import used_by_example\nused_by_example()\n",
        "perfbench/run.py": "import pkg.mod\npkg.mod.used_by_perfbench()\nWidget().spin()\n",
    })
    assert unreferenced_defs(root) == ["pkg.mod.only_tested", "pkg.mod.reexported"]


def test_seeded_callers_in_examples_and_perfbench_count(tmp_path):
    root = _seed(tmp_path, {
        "src/pkg/mod.py": "def shown():\n    pass\n\n\ndef timed():\n    pass\n",
        "examples/demo.py": "from pkg.mod import shown\n\nshown()\n",
        "perfbench/wl.py": "from pkg import mod\n\nmod.timed()\n",
    })
    assert unreferenced_defs(root) == []


def test_seeded_reexport_is_not_a_caller(tmp_path):
    root = _seed(tmp_path, {
        "src/pkg/__init__.py": (
            "from pkg.mod import (\n    exported,\n)\n\n"
            "__all__ = [\n    \"exported\",\n]\n"
        ),
        "src/pkg/mod.py": "def exported():\n    pass\n",
    })
    assert unreferenced_defs(root) == ["pkg.mod.exported"]


def test_seeded_mention_in_prose_is_not_a_caller(tmp_path):
    root = _seed(tmp_path, {
        "src/pkg/mod.py": (
            "class Tap:\n"
            "    def detach(self):\n"
            "        pass\n"
        ),
        "src/pkg/sink.py": (
            '"""Re-derived at every sink detach."""\n\n'
            "# detach() is the tests' teardown\n"
            "NOTE = 'call detach when done'\n"
        ),
    })
    assert unreferenced_defs(root) == ["pkg.mod.Tap.detach"]


def test_seeded_dotted_string_constant_is_a_caller(tmp_path):
    root = _seed(tmp_path, {
        "src/pkg/mod.py": (
            "class Detector:\n"
            "    def check(self):\n"
            "        pass\n"
        ),
        "perfbench/layers.py": (
            "ROWS = [('pkg.mod', 'Detector.check', 'auditor')]\n"
        ),
    })
    assert unreferenced_defs(root) == []
