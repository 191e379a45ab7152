"""Internal invariants raise InvariantError, a fault rather than a domain
error, and none of them rests on an ``assert`` statement (which ``python -O``
strips).  Every module-level definition and method is reached by name from
``cli.main`` or module-level code, or kept with a stated reason, and every
module-level import is named."""

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


# Module-level names and methods (``Class.method``) that neither ``cli.main``
# nor module-level code reaches, each with the reason it stays; what they
# name is reached through them.
KEPT_UNUSED = {
    "count_hoffman_words": "acceptance criterion 9 counts the Hoffman words on their own "
                           "recurrence, where mzv dims reads weight_counts",
    "count_f_monomials": "acceptance criterion 9 counts the f-monomials on their own "
                         "recurrence, where mzv dims reads weight_counts",
    "shuffle_combo": "criterion 11's morphism suites shuffle combinations",
    "shuffle_regularize": "criterion 11's morphism suites; ROADMAP item 7 plans to read "
                          "_reg_shuffle",
    "stuffle_regularize": "criterion 11's morphism suites",
    "from_binary": "the binary-word round trip of criterion 11(c)",
    "GraphPolynomial.evaluate": "criterion 11(d) checks deletion-contraction through it",
    "zeta_even_closed_form": "the Bernoulli-number closed form, the oracle for the "
                             "Euler-Maclaurin route",
    "hoffman_words": "an enumeration of the Hoffman words independent of the relation "
                     "table's hoffman_columns",
    "hypercube_zeta2": "the periods benchmark workload's hypercube request",
}


def exported_names(tree):
    """The names that a module's ``__all__`` lists."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unused_definitions(package_dir, kept=()):
    """Module-level functions and classes, and the methods (``Class.method``,
    dunders aside) of every class, that nothing reaches by name from
    ``main``, the ``mzv`` entry point, module-level code or the ``kept``
    names.

    A definition reaches every name and attribute its body uses, a class
    those of its bases, its other statements and its dunder methods; a name
    reaches every definition so called, in any module."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    code, called, roots = {}, {}, []

    def names(nodes):
        return {n.id if isinstance(n, ast.Name) else n.attr
                for node in nodes for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    def define(key, name, body):
        code[key] = names(body)
        called.setdefault(name, []).append(key)

    for path in sorted(package_dir.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, functions):
                define(node.name, node.name, node.body)
                roots += [node.args, *node.decorator_list]
            elif isinstance(node, ast.ClassDef):
                own = node.bases + node.keywords
                for item in node.body:
                    if isinstance(item, functions) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        define("%s.%s" % (node.name, item.name), item.name, item.body)
                        roots += [item.args, *item.decorator_list]
                    else:
                        own.append(item)
                define(node.name, node.name, own)
                roots += node.decorator_list
            else:
                roots.append(node)
    todo = [key for key in ("main", *kept) if key in code]
    todo += [key for name in names(roots) for key in called.get(name, [])]
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += [k for name in code[key] for k in called.get(name, [])]
    return sorted(set(code) - reached)


def test_every_definition_is_reached():
    assert all(reason.strip() for reason in KEPT_UNUSED.values())
    package = Path(mzvtools.__file__).parent
    assert unused_definitions(package, KEPT_UNUSED) == []
    # and every entry is needed: nothing else reaches it
    assert set(KEPT_UNUSED) <= set(unused_definitions(package))


def test_unused_definition_scan_sees_a_leftover(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .leftover import Thing, helper\n"
        "def main(argv=None):\n"
        "    return helper() + Thing().used()\n")
    (tmp_path / "leftover.py").write_text(
        "__all__ = ['Thing', 'exported', 'helper']\n"
        "def helper():\n"
        "    return 1\n"
        "def exported():\n"
        "    return chained()\n"
        "def chained():\n"
        "    return 2\n"
        "def recursive():\n"
        "    return recursive()\n"
        "class Thing:\n"
        "    def __repr__(self):\n"
        "        return from_a_dunder()\n"
        "    def used(self):\n"
        "        return 0\n"
        "    def unused(self):\n"
        "        return self.used()\n"
        "def from_a_dunder():\n"
        "    return 3\n")
    # an export reached by nothing is flagged, and so is what only it reaches
    assert unused_definitions(tmp_path) == ["Thing.unused", "chained", "exported", "recursive"]
    assert unused_definitions(tmp_path, {"exported": "kept"}) == ["Thing.unused", "recursive"]


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
from mzvtools import BinaryWord, Graph, feynman, hypercube_zeta2, mzv_eval
from mzvtools.errors import InvariantError
if __debug__:
    raise SystemExit("not running under python -O")
for refused in [lambda: mzv_eval((2,), 2.5),
                lambda: mzv_eval((2,) * 200, 10),
                lambda: mzv_eval((10 ** 9,), 10),
                lambda: BinaryWord([1.7, 0]),
                lambda: hypercube_zeta2(10 ** 12)]:
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
        "summing at 20 working digits at z = 1/2 would take more kernel work than the cap "
        "MAX_KERNEL_WORK = 70000000",
        "binary word letters must be 0 or 1, got 1.7",
        "1000000000000 samples x (2 draws + 1 terms per sample) exceed the sampling work "
        "cap MAX_SAMPLE_WORK = 2000000000",
        "deletion-contraction disagrees with the matrix-tree count"]
