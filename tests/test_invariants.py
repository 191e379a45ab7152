"""Internal invariants raise InvariantError, a fault rather than a domain
error, and none of them rests on an ``assert`` statement (which ``python -O``
strips).  Every module-level definition is either exported or used, and
every module-level import is named."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mzvtools
from mzvtools import Graph, dimension_upper_bound, feynman, kirchhoff_polynomial, relations
from mzvtools.cli import main
from mzvtools.errors import InvariantError


def test_no_assert_statements_in_the_package():
    found = []
    for path in Path(mzvtools.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_the_package_parses_as_python_3_10():
    # pyproject.toml requires Python 3.10; newer syntax such as except* is
    # refused here on any interpreter, not only on the floor's CI job
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    for path in sorted(Path(mzvtools.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


# Module-level names and methods (``Class.method``) kept although the
# package neither exports nor uses them, each with the reason it stays (for
# example, kept as an oracle).
KEPT_UNUSED = {}


def exported_names(tree):
    """The names that a module's ``__all__`` lists."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unused_definitions(package_dir):
    """Module-level functions and classes that ``__all__`` does not export,
    and the methods (``Class.method``, dunders aside) of classes it does not
    export, that no code in the package names outside their own definition."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    exported, defined, methods, named = set(), [], [], []
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, functions + (ast.ClassDef,)):
                defined.append((node.name, node.name, path.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                methods += [(node.name, "%s.%s" % (node.name, m.name), m.name, path.name,
                             m.lineno, m.end_lineno)
                            for m in node.body if isinstance(m, functions)
                            and not (m.name.startswith("__") and m.name.endswith("__"))]
        exported.update(exported_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                named.append((node.attr, path.name, node.lineno))
    defined += [m[1:] for m in methods if m[0] not in exported]
    return sorted(key for key, name, file, first, last in defined
                  if key not in exported
                  and not any(n == name and not (f == file and first <= line <= last)
                              for n, f, line in named))


def test_every_definition_is_exported_or_used():
    assert all(reason.strip() for reason in KEPT_UNUSED.values())
    assert unused_definitions(Path(mzvtools.__file__).parent) == sorted(KEPT_UNUSED)


def unused_imports(package_dir):
    """Module-level imports that their module never names, as
    ``file:line name``; ``__future__`` imports and names that ``__all__``
    exports aside."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [(a.asname or a.name.partition(".")[0], node.lineno)
                             for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [(a.asname or a.name, node.lineno) for a in node.names]
        kept = exported_names(tree) | {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        found += ["%s:%d %s" % (path.name, line, name)
                  for name, line in imported if name not in kept]
    return found


def test_every_import_is_used():
    assert unused_imports(Path(mzvtools.__file__).parent) == []


def test_unused_import_scan_sees_a_leftover(tmp_path):
    (tmp_path / "leftover.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from operator import getitem, itemgetter as pick\n"
        "import json as js\n"
        "__all__ = ['pick']\n"
        "print(os.sep)\n")
    assert unused_imports(tmp_path) == ["leftover.py:3 getitem", "leftover.py:4 js"]


def test_bound_below_dimension_is_a_fault(monkeypatch):
    monkeypatch.setattr(relations, "dimension", lambda n: 2 ** n)
    with pytest.raises(InvariantError, match="some relation is false"):
        dimension_upper_bound(4)
    # the command line lets a fault through instead of exiting 1 as for a
    # domain error
    with pytest.raises(InvariantError):
        main(["dims", "--max", "4"])


def test_tree_count_mismatch_is_a_fault(monkeypatch):
    monkeypatch.setattr(feynman, "spanning_tree_count", lambda graph: 0)
    with pytest.raises(InvariantError, match="matrix-tree"):
        kirchhoff_polynomial(Graph.parse("V=3; 1-2,1-3,2-3"))


OPTIMIZED_REFUSALS = """
from fractions import Fraction
from mzvtools import (BinaryWord, Graph, feynman, hypercube_zeta2, multiple_polylog,
                      mzv_eval)
from mzvtools.errors import InvariantError
if __debug__:
    raise SystemExit("not running under python -O")
for refused in [lambda: mzv_eval((2,), 2.5),
                lambda: mzv_eval((2,) * 200, 10),
                lambda: BinaryWord([1.7, 0]),
                lambda: hypercube_zeta2(10 ** 12),
                lambda: multiple_polylog((2,), 1 - Fraction(1, 10 ** 9), 30),
                lambda: multiple_polylog((2,), 1 - Fraction(1, 10 ** 400), 10)]:
    try:
        refused()
    except ValueError as exc:
        print(exc)
    else:
        raise SystemExit("no ValueError")
feynman.spanning_tree_count = lambda graph: 0
try:
    feynman.kirchhoff_polynomial(Graph.parse("V=3; 1-2,1-3,2-3"))
except InvariantError as exc:
    print(exc)
else:
    raise SystemExit("no InvariantError")
"""


def test_refusals_and_faults_fire_under_python_O():
    # python -O strips assert statements; no check here may rest on one
    env = dict(os.environ, PYTHONPATH=str(Path(mzvtools.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_REFUSALS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "digits must be an integer between 1 and 2000, got 2.5",
        "summing at 769 working digits at z = 1/2 would take more kernel work than the cap "
        "MAX_KERNEL_WORK = 70000000 (2399777113 units)",
        "binary word letters must be 0 or 1, got 1.7",
        "1000000000000 samples x (2 draws + 1 terms per sample) exceed the sampling work "
        "cap MAX_SAMPLE_WORK = 2000000000",
        "summing at 40 working digits at z = 999999999/1000000000 would take more kernel "
        "work than the cap MAX_KERNEL_WORK = 70000000",
        "summing at 20 working digits at z = %s/1%s would take more kernel work than the "
        "cap MAX_KERNEL_WORK = 70000000" % ("9" * 400, "0" * 400),
        "deletion-contraction disagrees with the matrix-tree count"]
