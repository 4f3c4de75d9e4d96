"""Every name a module of ``semcache`` imports is read in that module.

A stdlib-only stand-in for a linter's unused-import rule (F401).  An import
line marked ``# noqa: F401`` is exempt: it keeps a name importable from the
module for callers elsewhere.  ``__init__.py`` re-exports its imports, so it
is not checked.
"""

import ast
from pathlib import Path

import pytest

import semcache

MODULES = sorted(p for p in Path(semcache.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[(node.end_lineno or node.lineno) - 1]:
            continue
        for alias in node.names:
            imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for _, name in sorted(imported) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_can_fail():
    source = "import operator\nimport math\nfrom os import path as p, sep  # noqa: F401\nmath.pi\n"
    assert unused_imports(source) == ["operator"]
