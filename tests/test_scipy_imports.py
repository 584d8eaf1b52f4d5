"""No module in the package imports scipy when it is itself imported, and
none uses ``scipy.special``.

Importing ``scipy.sparse`` costs about 0.3 s per process, so a module
imports it inside the function that builds or multiplies a sparse matrix;
the CLI stages that do neither (``gen-synthetic``, ``build-graph``,
``build-mask``) then load no scipy.  An import under ``if TYPE_CHECKING:``
never runs and is allowed.  The check parses each source file with
``ast``.  Those three stages, each run in a fresh interpreter, also end
without ``numpy.ma``, which numpy 2's hash path of a plain ``np.unique``
imports (about 15 ms per process).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xmtc
from xmtc.cli import main

SOURCES = sorted(Path(xmtc.__file__).resolve().parent.glob("*.py"))


def _imported_modules(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def _runs_at_import(tree):
    """The nodes of ``tree`` that run when the module is imported: not
    function bodies, and not ``if TYPE_CHECKING:`` blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            stack.extend(node.orelse)
            continue
        stack.extend(ast.iter_child_nodes(node))


def scipy_import_problems(source: str) -> list[str]:
    """``line N: import scipy...`` for each scipy import that runs at module
    import time, and ``line N: scipy.special`` for any use of it."""
    tree = ast.parse(source)
    found = set()
    for node in _runs_at_import(tree):
        if any(m.split(".")[0] == "scipy" for m in _imported_modules(node)):
            found.add(f"line {node.lineno}: import scipy at module level")
    for node in ast.walk(tree):
        if any(m.startswith("scipy.special") for m in _imported_modules(node)) or (
                isinstance(node, ast.Attribute) and node.attr == "special"
                and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            found.add(f"line {node.lineno}: scipy.special")
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_scipy_import_at_module_level(path):
    assert scipy_import_problems(path.read_text()) == []


@pytest.mark.parametrize("source, problems", [
    ("import scipy.sparse as sp\n", ["line 1: import scipy at module level"]),
    ("from scipy import sparse\n", ["line 1: import scipy at module level"]),
    ("try:\n    import scipy\nexcept ImportError:\n    pass\n",
     ["line 2: import scipy at module level"]),
    ("class A:\n    import scipy.sparse\n", ["line 2: import scipy at module level"]),
    ("def f():\n    from scipy.special import expit\n", ["line 2: scipy.special"]),
    ("def f():\n    from scipy import special\n", ["line 2: scipy.special"]),
    ("def f():\n    import scipy\n    return scipy.special.expit\n", ["line 3: scipy.special"]),
    ("def f():\n    import scipy.sparse as sp\n", []),
    ("if TYPE_CHECKING:\n    import scipy.sparse as sp\n", []),
    ("import numpy as np\nfrom .tensor import spmm\n", []),
])
def test_checker_finds_scipy_imports(source, problems):
    assert scipy_import_problems(source) == problems


def _heavy_modules_after(argv) -> list[str]:
    """The ``scipy`` and ``numpy.ma`` modules loaded by a fresh interpreter
    that runs ``cli.main(argv)``; asserts that it returns 0."""
    src = str(Path(xmtc.__file__).resolve().parents[1])
    script = (f"import json, sys\nfrom xmtc import cli\nexit_code = cli.main({argv!r})\n"
              "print(json.dumps([exit_code, sorted(m for m in sys.modules if "
              "m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma'])]))")
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    exit_code, modules = json.loads(out.stdout.strip().splitlines()[-1])
    assert exit_code == 0, out.stderr
    return modules


def test_numpy_only_stages_load_neither_scipy_nor_numpy_ma(tmp_path):
    data, work, cfg = tmp_path / "data", tmp_path / "work", tmp_path / "run.cfg"
    cfg.write_text("embedding_size = 8\nmin_count = 1\nskipgram_epochs = 1\n")
    base = ["--workdir", str(work), "--config", str(cfg)]
    assert _heavy_modules_after(["gen-synthetic", "--workdir", str(data), "--labels", "30",
                                 "--docs", "200", "--seed", "3"]) == []
    assert main(["preprocess", *base, "--train", str(data / "train.jsonl"),
                 "--catalog", str(data / "raw_catalog.tsv")]) == 0
    for stage in ("build-graph", "build-mask"):
        assert _heavy_modules_after([stage, *base]) == [], stage
