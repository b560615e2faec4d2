"""No imported name goes unused, in the package, the scripts or the tests.

The project carries no linter, so this is the check: for each source
file, every name an import statement binds must be read somewhere in that
file, as a name, the root of an attribute, or an entry of __all__.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src/hyperdeg", "scripts", "tests")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name the source imports and never reads."""
    tree = ast.parse(source)
    bound: list[tuple[int, str]] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds a; `from m import *` binds nothing by name
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    bound.append((node.lineno, name))
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [(line, name) for line, name in bound if name not in read]


def test_sources_found():
    names = {path.relative_to(ROOT).as_posix() for path in SOURCES}
    assert {"src/hyperdeg/solver.py", "scripts/engine_golden.py", "tests/test_imports.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import comb, floor as fl\n"
        "from operator import mul, sub\n"
        "__all__ = ['comb']\n"
        "sub = 1  # rebound, never read\n"
        "print(os.path.sep, fl(1.5))\n"
    )
    assert unused_imports(source) == [(4, "mul"), (4, "sub")]
