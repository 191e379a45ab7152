"""Double-shuffle relation tables: frozen small-weight structure, exact
ranks, and numeric validation of generated relations at 40 digits."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from mpmath import mp

from mzvtools import (Composition, InsufficientRelationsError, LinComb,
                      build_relation_matrix, decompose_in_hoffman_basis,
                      dimension, dimension_upper_bound, hoffman_words,
                      matrix_rank, mzv_eval)
from mzvtools import relations
from mzvtools.algebra import shuffle, stuffle
from mzvtools.cli import main
from mzvtools.errors import InvariantError
from mzvtools.linalg import SparseRREF
from mzvtools.relations import echelon_form, is_hoffman, relation_table
from mzvtools.words import enumerate_compositions, from_binary


def comp_combo(*pairs):
    return LinComb([(Composition(p), Fraction(c)) for p, c in pairs])


def row_combo(matrix, row):
    """A {column: int} row of the matrix as a combination of its words."""
    return LinComb({matrix.basis[c]: v for c, v in row.items()})


def table_relation(weight, provenance):
    """The row of the weight's relation table named by its product, as a
    combination."""
    matrix = relation_table(weight)
    return row_combo(matrix, matrix.rows()[matrix.provenance.index(provenance)])


def test_weight_three_hoffman_row():
    combo = table_relation(3, "hoffman (2)")
    assert combo == comp_combo(((1, 2), 1), ((3,), -1))


def test_weight_three_structure():
    matrix = build_relation_matrix(3)
    assert [str(c) for c in matrix.basis] == ["(1,2)", "(3)"]
    assert matrix_rank(matrix) == 1
    assert dimension_upper_bound(3) == 1


@pytest.mark.parametrize("weight", range(2, 13))
def test_the_two_column_indexes_agree(weight):
    # basis maps a column to its word and column_of maps it back; the basis
    # is a tuple, so no caller can reorder the shared table's columns
    matrix = relation_table(weight)
    assert type(matrix.basis) is tuple
    assert all(matrix.column_of(w) == i for i, w in enumerate(matrix.basis))


def test_weight_four_rows():
    # the three double-shuffle rows at weight 4, from the products 2x2 and 1*3
    matrix = build_relation_matrix(4)
    rows = {str(row_combo(matrix, row)) for row in matrix.rows()}
    assert "4*(1,3) - (4)" in rows
    assert "(1,3) + (2,2) - (4)" in rows
    assert matrix_rank(matrix) == 3


def test_weight_four_decompositions():
    assert decompose_in_hoffman_basis(Composition((1, 1, 2))) == comp_combo(
        ((2, 2), Fraction(4, 3)))
    assert decompose_in_hoffman_basis(Composition((1, 3))) == comp_combo(
        ((2, 2), Fraction(1, 3)))
    assert decompose_in_hoffman_basis(Composition((4,))) == comp_combo(
        ((2, 2), Fraction(4, 3)))
    assert decompose_in_hoffman_basis(Composition((2, 2))) == comp_combo(((2, 2), 1))


def test_weight_five_rank_and_free_columns():
    matrix = build_relation_matrix(5)
    assert matrix_rank(matrix) == 6
    assert dimension_upper_bound(5) == 2
    assert {str(w) for w in hoffman_words(5)} == {"(2,3)", "(3,2)"}


def test_double_shuffle_row_has_no_divergent_words():
    for weight, prov in [(5, "double-shuffle (2)|(3)"), (5, "double-shuffle (2)|(1,2)"),
                         (8, "double-shuffle (1,3)|(2,2)")]:
        combo = table_relation(weight, prov)
        assert all(w.is_convergent for w, _ in combo.terms())


@pytest.mark.parametrize("n", range(2, 9))
def test_hoffman_row_divergence_cancels(n):
    # the stuffle (1)*(n) and the shuffle x1 sh X_n both produce (n,1);
    # the difference must be supported on convergent words only
    combo = table_relation(n + 1, "hoffman (%d)" % n)
    assert all(w.is_convergent for w, _ in combo.terms())
    assert all(w.weight == n + 1 for w, _ in combo.terms())


def _products(weight):
    """The row products at a weight in the documented row order, with their
    provenance strings."""
    for wm in range(2, weight // 2 + 1):
        ms = enumerate_compositions(wm, convergent_only=True)
        ns = enumerate_compositions(weight - wm, convergent_only=True)
        for i, m in enumerate(ms):
            for n in (ns[i:] if 2 * wm == weight else ns):
                yield m, n, "double-shuffle %s|%s" % (m, n)
    for n in enumerate_compositions(weight - 1, convergent_only=True):
        yield Composition((1,)), n, "hoffman %s" % (n,)


@pytest.mark.parametrize("weight", range(3, 11))
def test_rows_match_an_independent_pullback(weight):
    # oracle: pull the shuffle back word by word and subtract the stuffle
    # as LinCombs, then map the words to columns
    matrix = build_relation_matrix(weight)
    expected, provenance = [], []
    for m, n, prov in _products(weight):
        sh = shuffle(m.to_binary(), n.to_binary())
        combo = LinComb([(from_binary(u), c) for u, c in sh.terms()]) - stuffle(m, n)
        expected.append({matrix.column_of(w): c for w, c in combo.terms()})
        provenance.append(prov)
    assert list(matrix.rows()) == expected
    assert list(matrix.provenance) == provenance
    assert all(type(v) is int for row in matrix.rows() for v in row.values())


def test_uncancelled_divergent_term_is_an_invariant_error(monkeypatch):
    # drop the divergent term (n,1) from every stuffle: the shuffle's copy
    # of it is left over in each Hoffman row, first in hoffman (1,2)
    real = relations.stuffle
    monkeypatch.setattr(relations, "stuffle", lambda a, b: tuple(
        (p, c) for p, c in real(a, b) if p[-1] >= 2))
    with pytest.raises(InvariantError, match=r"\(1,2,1\)"):
        build_relation_matrix(4)


def test_row_build_makes_no_lincomb(monkeypatch):
    # rows come straight from the integer word products; a LinComb per
    # product would only be turned back into part tuples and ints
    def refuse(*args, **kwargs):
        raise AssertionError("LinComb built during the row build")
    monkeypatch.setattr(LinComb, "__init__", refuse)
    matrix = build_relation_matrix(8)
    assert matrix.n_rows == len(list(_products(8)))


def test_relation_rows_are_weight_homogeneous():
    matrix = build_relation_matrix(6)
    for row in matrix.rows():
        assert {w.weight for w, _ in row_combo(matrix, row).terms()} == {6}


def test_rank_is_invariant_under_row_order():
    matrix = build_relation_matrix(6)
    rows = list(matrix.rows())
    base = matrix_rank(matrix)
    from mzvtools.linalg import SparseRREF
    for seed in (1, 2):
        shuffled = rows[:]
        random.Random(seed).shuffle(shuffled)
        rref = SparseRREF()
        rref.insert_all(shuffled)
        assert rref.rank == base


@pytest.mark.parametrize("weight,expected", [
    (2, 1), (3, 1), (4, 1), (5, 2), (6, 2), (7, 3), (8, 4),
])
def test_bound_equals_dimension_at_small_weights(weight, expected):
    assert dimension_upper_bound(weight) == expected == dimension(weight)


def test_bound_never_below_dimension():
    # the code asserts this internally; exercise it across a range
    for n in range(2, 9):
        assert dimension_upper_bound(n) >= dimension(n)


OPTIMIZED_FALSE_RELATION = """
from mzvtools import relations
from mzvtools.errors import InvariantError
if __debug__:
    raise SystemExit("not running under python -O")
relations.dimension = lambda n: 2 ** n
try:
    relations.dimension_upper_bound(4)
except InvariantError as exc:
    print(exc)
else:
    raise SystemExit("no InvariantError")
"""


def test_false_relation_is_a_fault_under_python_O():
    # python -O strips assert statements; the invariant must not rest on one
    env = dict(os.environ, PYTHONPATH=str(Path(relations.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_FALSE_RELATION],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "some relation is false" in proc.stdout


def test_weight_cap_enforced():
    with pytest.raises(ValueError):
        build_relation_matrix(13)
    with pytest.raises(ValueError):
        build_relation_matrix(1)


def test_weight_cap_checked_on_cached_weights():
    decompose_in_hoffman_basis(Composition((1, 4)))
    dimension_upper_bound(5)
    with pytest.raises(ValueError):
        decompose_in_hoffman_basis(Composition((1, 4)), max_weight=4)
    with pytest.raises(ValueError):
        dimension_upper_bound(5, max_weight=4)


def test_decompose_and_dims_share_one_table(monkeypatch, capsys):
    # one process, as in a session: the weight-10 rows are built and
    # eliminated once, for the decomposition, and dims reads them back
    relations._table.cache_clear()
    builds, inserts = [], []
    build = relations.build_relation_matrix
    insert_all = SparseRREF.insert_all
    monkeypatch.setattr(relations, "build_relation_matrix",
                        lambda *args: builds.append(args[:2]) or build(*args))
    monkeypatch.setattr(SparseRREF, "insert_all",
                        lambda self, rows: inserts.append(len(rows)) or insert_all(self, rows))
    assert main(["hoffman-decompose", "(1,9)"]) == 0
    assert main(["dims", "--max", "10"]) == 0
    assert builds == [(10, True)] + [(n, True) for n in range(2, 10)]
    assert inserts.count(relations.relation_table(10).n_rows) == 1
    assert len(inserts) == len(builds)
    assert capsys.readouterr().out.splitlines()[-1].split() == ["10", "256", "249", "7", "7"]
    with pytest.raises(ValueError):
        decompose_in_hoffman_basis(Composition((1, 9)), max_weight=9)


def test_free_columns_are_the_hoffman_words():
    # with Hoffman-last pivot priority, the unreduced columns land exactly on
    # the words over parts {2,3}
    for n in range(2, 9):
        assert decompose_in_hoffman_basis(
            hoffman_words(n)[0]) == LinComb.term(hoffman_words(n)[0])


@pytest.mark.parametrize("weight", range(2, 9))
def test_every_convergent_word_decomposes(weight):
    for c in enumerate_compositions(weight, convergent_only=True):
        combo = decompose_in_hoffman_basis(c)
        assert all(is_hoffman(w) for w, _ in combo.terms())


def test_decompose_rejects_divergent_words():
    with pytest.raises(ValueError):
        decompose_in_hoffman_basis(Composition((2, 1)))


def test_insufficient_relations_error_carries_context():
    err = InsufficientRelationsError(Composition((4,)), [Composition((1, 3))])
    assert err.comp == Composition((4,))
    assert tuple(err.free_words) == (Composition((1, 3)),)
    assert "(1,3)" in str(err)


def test_words_the_rows_do_not_pin_are_refused(monkeypatch):
    # without its Hoffman rows weight 4 keeps the one row 4*(1,3) - (4):
    # (1,3) is a pivot that leans on the free non-Hoffman word (4), and
    # (4) and (1,1,2) are free columns themselves
    monkeypatch.setattr(relations, "_table",
                        lambda weight: build_relation_matrix(weight, False, weight))
    with pytest.raises(InsufficientRelationsError) as exc:
        decompose_in_hoffman_basis(Composition((1, 3)))
    assert exc.value.free_words == (Composition((4,)),)
    for parts in [(4,), (1, 1, 2)]:
        with pytest.raises(InsufficientRelationsError) as exc:
            decompose_in_hoffman_basis(Composition(parts))
        assert exc.value.free_words == (Composition(parts),)
    assert decompose_in_hoffman_basis(Composition((2, 2))) == comp_combo(((2, 2), 1))


# ------------------------------------------------------- theorem witnesses
# Three theorems outside the double-shuffle rows, checked on the table's
# Hoffman decompositions: duality, zeta(w) = zeta(w dagger) from the
# iterated-integral form; Granville's sum theorem, by which the convergent
# words of weight N and depth r sum to zeta(N) for every r; and Ohno's
# relation, which contains both.

def duality_failures(weight):
    """The convergent words of a weight that do not decompose like their dual."""
    return [c for c in enumerate_compositions(weight, convergent_only=True)
            if decompose_in_hoffman_basis(c)
            != decompose_in_hoffman_basis(from_binary(c.to_binary().dual()))]


def sum_theorem_failures(weight):
    """The depths whose convergent words do not decompose, summed, like (weight)."""
    words = enumerate_compositions(weight, convergent_only=True)
    target = decompose_in_hoffman_basis(Composition((weight,)))
    return [r for r in range(1, weight)
            if sum((decompose_in_hoffman_basis(c) for c in words if c.depth == r),
                   LinComb()) != target]


def raised(parts, extra):
    """Every part tuple parts + e with e >= 0 part by part and |e| = extra."""
    if len(parts) == 1:
        yield (parts[0] + extra,)
        return
    for e in range(extra + 1):
        for rest in raised(parts[1:], extra - e):
            yield (parts[0] + e,) + rest


def ohno_sum(comp, extra):
    """The decompositions of every comp + e with |e| = extra, summed as one
    combination (repeated + would be quadratic in the number of terms)."""
    return LinComb((w, c) for parts in raised(comp.parts, extra)
                   for w, c in decompose_in_hoffman_basis(Composition(parts)).terms())


def ohno_failures(weight):
    """The pairs (k, l) with weight(k) + l = weight where Ohno's relation,
    the sum over |e| = l of zeta(k + e) equal to the same sum for the dual
    of k, does not hold for the decompositions."""
    return [(k, l) for l in range(weight - 1)
            for k in enumerate_compositions(weight - l, convergent_only=True)
            if ohno_sum(k, l) != ohno_sum(from_binary(k.to_binary().dual()), l)]


@pytest.mark.parametrize("weight", range(2, 12))
def test_table_decompositions_satisfy_duality_and_the_sum_theorem(weight):
    # 1,023 duality pairs and 55 depth sums over weights 2 to 11
    assert duality_failures(weight) == []
    assert sum_theorem_failures(weight) == []


@pytest.mark.parametrize("weight", range(2, 11))
def test_table_decompositions_satisfy_ohnos_relation(weight):
    # 1,013 pairs (k, l) with weight(k) + l <= 10; at l = 0 it is duality
    assert ohno_failures(weight) == []


def test_a_perturbed_pivot_row_trips_the_witnesses(monkeypatch):
    # a fresh table cache for this test only, so the shared tables stay intact
    monkeypatch.setattr(relations, "_table", lru_cache(maxsize=16)(relations._table.__wrapped__))
    matrix = relation_table(6)
    row = echelon_form(matrix).pivot_rows[matrix.column_of(Composition((6,)))]
    hoffman = next(c for c in row if is_hoffman(matrix.basis[c]))
    row[hoffman] += 1
    assert Composition((6,)) in duality_failures(6)
    assert sum_theorem_failures(6) == [2, 3, 4, 5]
    failures = ohno_failures(6)
    assert len(failures) == 8
    assert (Composition((3,)), 3) in failures and (Composition((1, 2)), 3) in failures


def _combo_value(combo, digits):
    total = mp.mpf(0)
    for w, c in combo.terms():
        total += mp.mpf(c.numerator) / c.denominator * mzv_eval(w, digits).value
    return total


@pytest.mark.parametrize("weight", [4, 5, 6, 7, 12])
def test_relations_cancel_numerically(weight):
    """Every generated relation row sums to zero at 40 digits: at weight 12
    all 1,672 rows over the 1,024 convergent words."""
    matrix = build_relation_matrix(weight)
    with mp.workdps(50):
        values = [mzv_eval(w, 40).value for w in matrix.basis]
        for row, provenance in zip(matrix.rows(), matrix.provenance):
            total = mp.fsum(c * values[col] for col, c in row.items())
            assert abs(total) < mp.mpf(10) ** -30, provenance
    assert weight != 12 or matrix.n_rows == 1672


@pytest.mark.parametrize("parts", [(1, 3), (1, 1, 2), (2, 3), (1, 4), (3, 3), (1, 2, 3)])
def test_decompositions_hold_numerically(parts):
    c = Composition(parts)
    combo = decompose_in_hoffman_basis(c)
    with mp.workdps(50):
        lhs = mzv_eval(c, 40).value
        rhs = _combo_value(combo, 40)
        assert abs(lhs - rhs) < mp.mpf(10) ** -30


def test_provenance_strings_name_the_products():
    matrix = build_relation_matrix(4)
    provs = set(matrix.provenance)
    assert any(p.startswith("double-shuffle") for p in provs)
    assert any(p.startswith("hoffman") for p in provs)
