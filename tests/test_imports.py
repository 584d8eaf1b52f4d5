"""Every module-level import in the package is read by its module, every
function, class and method it defines is read somewhere in it, and no
module reads the process environment.  The test oracles import no private
name of the package but the tape's node plumbing, so they cannot check a
function against itself.

Standard library only: the checks parse each source file with ``ast``.
An import line marked ``# noqa: F401`` is exempt.  A name listed in a
module's ``__all__`` counts as an import's use; as a definition's use it
counts only in the package's ``__init__.py``, which is the public API.
"""

import ast
from pathlib import Path

import pytest

import xmtc

SOURCES = sorted(Path(xmtc.__file__).resolve().parent.glob("*.py"))
ORACLES = Path(__file__).resolve().parent / "oracles.py"
TAPE_PLUMBING = {"_make", "_accumulate"}  # allowed by the oracles' docstring
# read only by the benchmark: perfbench/tracing.py:134 counts the graph's
# edges with np.trace over ``CooccurrenceGraph.adjacency``
BENCH_PINS = {"adjacency"}


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


def environment_reads(source: str) -> list[str]:
    """Where ``source`` reads the process environment: ``os.environ``,
    ``os.getenv``, or either name imported from ``os``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: os.{n}" for n in names if n in ("environ", "getenv")]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_reads_the_environment(path):
    """The configuration file is the only source of a run's settings."""
    assert environment_reads(path.read_text()) == []


@pytest.mark.parametrize("source, reads", [
    ("import os\nos.environ.get('XMTC_TAU')\n", ["line 2: os.environ"]),
    ("import os\nx = os.getenv('A', '1')\n", ["line 2: os.getenv"]),
    ("from os import environ, sep\n", ["line 1: os.environ"]),
    ("from os import getenv as g\n", ["line 1: os.getenv"]),
    ("import os\nos.path.join('a', 'b')\nenv = {}\nenv.get('environ')\n", []),
    ("from subprocess import run\nrun(['x'], env={})\n", []),
])
def test_environment_checker_finds_only_reads(source, reads):
    assert environment_reads(source) == reads


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """The functions, classes and methods defined in ``sources`` (file name
    to text) whose name nothing in any of them reads: no name or attribute
    load, no import and no ``__all__`` entry of ``__init__.py``.  A
    submodule's ``__all__`` is no reader: it lists what the module offers,
    not what anything uses.  Dunder methods are exempt, since Python calls
    them, and so are the ``BENCH_PINS``, which the benchmark reads."""
    defined, read = [], set(BENCH_PINS)
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((file, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
            elif file == "__init__.py" and isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= {elt.value for elt in node.value.elts}
    return [f"{file}:{ln}: {name}" for file, ln, name in defined
            if name not in read and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_read_in_the_package():
    assert unread_definitions({p.name: p.read_text() for p in SOURCES}) == []


@pytest.mark.parametrize("sources, unread", [
    ({"a.py": "def f():\n    pass\n"}, ["a.py:1: f"]),
    ({"a.py": "def f():\n    pass\n", "b.py": "from a import f\n"}, []),
    ({"a.py": "class C:\n    def m(self):\n        pass\n    def __init__(self):\n"
              "        pass\nC().m()\n"}, []),
    ({"a.py": "class C:\n    def m(self):\n        pass\nC()\n"}, ["a.py:2: m"]),
    ({"a.py": "def f():\n    pass\n__all__ = ['f']\n"}, ["a.py:1: f"]),
    ({"a.py": "def f():\n    pass\n", "__init__.py": "__all__ = ['f']\n"}, []),
    ({"a.py": "def f():\n    pass\ng = f\n"}, []),
])
def test_definition_checker_finds_only_unread_names(sources, unread):
    assert unread_definitions(sources) == unread


def private_package_imports(source: str) -> list[str]:
    """The private (``_``-prefixed) names that ``source`` imports from the
    ``xmtc`` package, at any depth, other than the tape plumbing."""
    return [f"line {node.lineno}: {node.module}.{alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "xmtc"
            for alias in node.names
            if alias.name.startswith("_") and alias.name not in TAPE_PLUMBING]


def test_oracles_import_no_private_package_name():
    assert private_package_imports(ORACLES.read_text()) == []


@pytest.mark.parametrize("source, private", [
    ("def f():\n    from xmtc.synth import _aux_tables\n",
     ["line 2: xmtc.synth._aux_tables"]),
    ("from xmtc.tensor import _accumulate, _make, add\n", []),
    ("from xmtc import _x as y, z\n", ["line 1: xmtc._x"]),
    ("from xmtcx.a import _b\nfrom other import _c\nimport xmtc\n", []),
])
def test_private_import_checker_finds_only_private_names(source, private):
    assert private_package_imports(source) == private
