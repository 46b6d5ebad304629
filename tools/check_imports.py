#!/usr/bin/env python
"""Repo-local import checker: unused imports (pyflakes F401 subset) and
test-only imports in the library, zero deps.

CI runs ruff's F401 and this script; the script also runs where ruff is
not installed, so both environments enforce the same floor. Usage::

    python tools/check_imports.py src tests benchmarks examples tools

Unused-import rules:

- an import is *used* if its bound name appears anywhere in the module
  outside the import statements themselves (including inside strings is
  NOT counted — we walk the AST, not the text);
- names re-exported via ``__all__`` count as used (package ``__init__``
  convention);
- ``import x as x`` / ``from m import x as x`` (PEP 484 re-export) and
  ``from __future__ import ...`` are always allowed;
- a trailing ``# noqa`` comment on the import line suppresses the check.

Library rule: a file under a ``src`` directory must not import
``tests`` or ``hypothesis`` (any submodule, at any nesting level, with
or without ``# noqa``). The reference implementations and oracles in
``tests/*/reference.py`` pin the library's inlined hot paths; they stay
on the test side of that line.

Exit status is the number of offending imports (0 = clean).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, List, Set, Tuple

#: Top-level packages a file under ``src/`` must not import.
TEST_ONLY_PACKAGES = frozenset({"tests", "hypothesis"})


def _bound_name(alias: ast.alias) -> str:
    """The local name an import alias binds (``a.b`` binds ``a``)."""
    if alias.asname:
        return alias.asname
    return alias.name.split(".")[0]


class _UsageCollector(ast.NodeVisitor):
    """Collect every identifier read anywhere outside import statements."""

    def __init__(self) -> None:
        self.used: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        pass  # the import itself is not a use

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        pass

    def visit_Name(self, node: ast.Name) -> None:
        self.used.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)


def _exported_names(tree: ast.Module) -> Set[str]:
    """Literal strings assigned to ``__all__`` at module top level."""
    exported: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], node.value
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        if isinstance(value, (ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    exported.add(element.value)
    return exported


def _imported_modules(node: ast.AST) -> List[str]:
    """Absolute module names an import statement reads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return [node.module]
    return []


def check_file(path: Path) -> List[Tuple[int, str]]:
    """Return (line, problem) for every offending import in ``path``."""
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [(exc.lineno or 0, f"<syntax error: {exc.msg}>")]
    lines = source.splitlines()

    collector = _UsageCollector()
    collector.visit(tree)
    used = collector.used | _exported_names(tree)
    in_library = "src" in path.parts

    problems: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if in_library:
            for module in _imported_modules(node):
                if module.split(".")[0] in TEST_ONLY_PACKAGES:
                    problems.append(
                        (node.lineno, f"library imports test-only module {module!r}")
                    )
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        line_text = lines[node.lineno - 1] if node.lineno - 1 < len(lines) else ""
        if "# noqa" in line_text:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            if alias.asname and alias.asname == alias.name:
                continue  # explicit re-export
            name = _bound_name(alias)
            if name not in used:
                problems.append((node.lineno, f"unused import {name!r}"))
    return problems


def main(argv: Iterable[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src")]
    count = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            for lineno, problem in check_file(path):
                print(f"{path}:{lineno}: {problem}")
                count += 1
    if count:
        print(f"\n{count} offending import(s) found", file=sys.stderr)
    return count


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
