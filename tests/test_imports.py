"""Every module-level import in the package is read by its module.

Standard library only: the check parses each source file with ``ast``.
An import line marked ``# noqa: F401`` is exempt, and a name listed in
``__all__`` counts as read.
"""

import ast
from pathlib import Path

import pytest

import xmtc

SOURCES = sorted(Path(xmtc.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of ``source`` that nothing
    in the module reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return [f"line {ln}: {name}" for name, ln in sorted(bound.items()) if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c, d\nd()\n", ["line 1: c"]),
    ("from a import (b,\n    c)  # noqa: F401\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import os\n", []),
])
def test_checker_finds_only_unused_names(source, unused):
    assert unused_imports(source) == unused
