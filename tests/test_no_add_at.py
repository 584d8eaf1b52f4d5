"""No module in the package calls a numpy ufunc's ``.at`` scatter.

``np.add.at`` runs one unbuffered update per entry, several times slower
than the one sparse product of ``tensor.row_sums`` that sums the same rows.
Standard library only: the check parses each source file with ``ast``.
"""

import ast
from pathlib import Path

import pytest

import xmtc

SOURCES = sorted(Path(xmtc.__file__).resolve().parent.glob("*.py"))


def ufunc_at_calls(source: str) -> list[str]:
    """The ``np.<ufunc>.at(...)`` and ``numpy.<ufunc>.at(...)`` calls in
    ``source``, as ``line N: np.add.at``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "at"
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in ("np", "numpy")):
            found.append(f"line {node.lineno}: {func.value.value.id}.{func.value.attr}.at")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_ufunc_at_scatter(path):
    assert ufunc_at_calls(path.read_text()) == []


@pytest.mark.parametrize("source, calls", [
    ("np.add.at(a, i, v)\n", ["line 1: np.add.at"]),
    ("x = 1\nnumpy.subtract.at(a, i, v)\n", ["line 2: numpy.subtract.at"]),
    ("def f():\n    np.add.at(a, i, -v)\n", ["line 2: np.add.at"]),
    ("np.add(a, b)\nnp.add.reduce(a)\nq.at(0)\n", []),
])
def test_checker_finds_ufunc_at_calls(source, calls):
    assert ufunc_at_calls(source) == calls
