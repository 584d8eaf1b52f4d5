"""No module in the package imports scipy, anywhere.

The engine's sparse products (``tensor.Csr``) run on numpy, and importing
``scipy.sparse`` costs a process about 16 MB of RSS and 0.13 s, so every
CLI stage runs without scipy; the suite keeps it as a test-only oracle.
The check parses each source file with ``ast`` and finds every import
statement, in a function body or under ``if TYPE_CHECKING:`` too.  The
set-up stages (``gen-synthetic``, ``preprocess``, ``build-graph``,
``build-mask``), each run in a fresh interpreter, also end without
``numpy.ma``, which ``scipy.sparse`` and numpy 2's hash path of a plain
``np.unique`` import (about 15 ms per process).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xmtc

SOURCES = sorted(Path(xmtc.__file__).resolve().parent.glob("*.py"))


def _imported_modules(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module]
    return []


def scipy_imports(source: str) -> list[str]:
    """``line N: import scipy...`` for each statement of ``source`` that
    imports scipy or one of its modules, wherever it stands."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if any(m.split(".")[0] == "scipy" for m in _imported_modules(node)):
            found.add(f"line {node.lineno}: import scipy")
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_scipy_import(path):
    assert scipy_imports(path.read_text()) == []


@pytest.mark.parametrize("source, problems", [
    ("import scipy.sparse as sp\n", ["line 1: import scipy"]),
    ("from scipy import sparse\n", ["line 1: import scipy"]),
    ("try:\n    import scipy\nexcept ImportError:\n    pass\n", ["line 2: import scipy"]),
    ("class A:\n    import scipy.sparse\n", ["line 2: import scipy"]),
    ("def f():\n    from scipy.special import expit\n", ["line 2: import scipy"]),
    ("def f():\n    import scipy.sparse as sp\n", ["line 2: import scipy"]),
    ("if TYPE_CHECKING:\n    import scipy.sparse as sp\n", ["line 2: import scipy"]),
    ("import numpy as np, scipy\n", ["line 1: import scipy"]),
    ("import numpy as np\nfrom .tensor import spmm\nimport scipyish\n", []),
])
def test_checker_finds_scipy_imports(source, problems):
    assert scipy_imports(source) == problems


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
    assert _heavy_modules_after(["preprocess", *base, "--train", str(data / "train.jsonl"),
                                 "--catalog", str(data / "raw_catalog.tsv")]) == []
    for stage in ("build-graph", "build-mask"):
        assert _heavy_modules_after([stage, *base]) == [], stage
