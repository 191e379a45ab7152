"""Internal invariants raise InvariantError, a fault rather than a domain
error, and none of them rests on an ``assert`` statement (which ``python -O``
strips)."""

import ast
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
