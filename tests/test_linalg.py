import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest

from mzvtools import linalg
from mzvtools.errors import InvariantError
from mzvtools.linalg import SparseRREF, bareiss_det
from mzvtools.relations import (_hoffman_last_priority, echelon_form, is_hoffman,
                                relation_table)


def gauss_rank(rows, n_cols):
    """Plain fraction Gaussian elimination, the reference for everything else."""
    m = [[Fraction(r.get(j, 0)) for j in range(n_cols)] for r in rows]
    rank = 0
    for col in range(n_cols):
        sel = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def random_sparse_rows(rng, n_rows, n_cols, density=0.4):
    rows = []
    for _ in range(n_rows):
        row = {}
        for j in range(n_cols):
            if rng.random() < density:
                row[j] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        rows.append(row)
    return rows


def integer_rows(rows):
    """Rational rows scaled to integers by the lcm of their denominators,
    zeros dropped: the same row space, as ``insert_all`` takes it."""
    out = []
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        den = lcm(*(v.denominator for v in row.values()))
        out.append({c: int(v * den) for c, v in row.items()})
    return out


@pytest.mark.parametrize("seed", range(8))
def test_rank_engines_agree(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(3, 10), rng.randint(3, 10)
    rows = random_sparse_rows(rng, n_rows, n_cols)
    expected = gauss_rank(rows, n_cols)

    rref = SparseRREF()
    rref.insert_all(integer_rows(rows))
    assert rref.rank == expected


def test_rank_of_dependent_rows():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 3, 1: 6}]
    rref = SparseRREF()
    rref.insert_all(rows)
    assert rref.rank == 1


def test_pivot_rows_are_fully_back_substituted():
    # every pivot row must be zero on all other pivot columns
    rng = random.Random(9)
    rref = SparseRREF()
    rref.insert_all(integer_rows(random_sparse_rows(rng, 12, 8)))
    for pivcol, row in rref.pivot_rows.items():
        assert row[pivcol] == 1
        for other in rref.pivot_rows:
            if other != pivcol:
                assert other not in row


def test_priority_steers_pivot_choice():
    # with column 1 made expensive, the pivot for a row hitting {0,1} is 0,
    # and column 1 is left free
    rref = SparseRREF(priority={0: 0, 1: 10}.get)
    rref.insert_all([{0: 1, 1: 1}])
    assert list(rref.pivot_rows) == [0]
    assert rref.pivot_rows[0] == {0: 1, 1: 1}
    flipped = SparseRREF(priority={0: 10, 1: 0}.get)
    flipped.insert_all([{0: 1, 1: 1}])
    assert list(flipped.pivot_rows) == [1]


def cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(len(m)):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


@pytest.mark.parametrize("seed", range(6))
def test_bareiss_det_matches_cofactor_expansion(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
    assert bareiss_det([row[:] for row in m]) == cofactor_det(m)


def test_bareiss_det_singular():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert bareiss_det(m) == 0


# ------------------------------------------------------------ insert_all


def minus(target, coef, row):
    """target - coef * row, zeros dropped."""
    out = dict(target)
    for c, v in row.items():
        out[c] = out.get(c, 0) - coef * v
    return {c: v for c, v in out.items() if v}


def inserted_one_by_one(rows, priority=lambda c: c):
    """The oracle for ``insert_all``: the reduced echelon over ``Fraction``,
    one row at a time.  Each row is reduced by the pivot rows of its pivot
    columns; if a residue is left, it is scaled to pivot entry 1 at its most
    preferred column and back-substituted into every pivot row that holds
    that column.  Returns the pivot rows, {pivot column: {column: Fraction}}."""
    pivots = {}
    for row in rows:
        out = {c: Fraction(v) for c, v in row.items() if v}
        # one pass suffices: pivot rows only touch non-pivot columns
        for c in [c for c in out if c in pivots]:
            out = minus(out, out[c], pivots[c])
        if not out:
            continue
        p = min(out, key=priority)
        new_row = {c: v / out[p] for c, v in out.items()}
        for q, target in pivots.items():
            if p in target:
                pivots[q] = minus(target, target[p], new_row)
        pivots[p] = new_row
    return pivots


def reversed_priority(n_cols):
    return lambda c: n_cols - c


@pytest.mark.parametrize("seed", range(12))
def test_insert_all_matches_one_by_one_insert(seed):
    rng = random.Random(100 + seed)
    n_cols = rng.randint(2, 12)
    rows = random_sparse_rows(rng, rng.randint(1, 14), n_cols, rng.choice((0.2, 0.5)))
    rows.append({0: Fraction(0), n_cols - 1: Fraction(0)})  # explicit zeros only
    priority = reversed_priority(n_cols)
    batch = SparseRREF(priority)
    assert batch.insert_all(integer_rows(rows)) == batch.rank
    assert batch.pivot_rows == inserted_one_by_one(rows, priority)
    assert all(type(v) is Fraction for row in batch.pivot_rows.values() for v in row.values())


@pytest.mark.parametrize("weight", range(2, 10))
def test_insert_all_matches_one_by_one_on_relation_tables(weight):
    matrix = relation_table(weight)
    priority = _hoffman_last_priority(matrix.basis)
    batch = SparseRREF(priority)
    batch.insert_all(matrix.rows())
    assert batch.pivot_rows == inserted_one_by_one(matrix.rows(), priority)


def test_insert_all_leaves_its_input_rows_unchanged():
    # The first row is primitive and clears nothing, so it would become a
    # pivot row as the caller's own dict; the second row's pivot, column 0,
    # is then back-substituted into it.  Columns are preferred in the order
    # 2, 0, 1.
    rows = [{2: 1, 0: 1}, {2: 1, 1: 1}]
    before = [dict(row) for row in rows]
    rref = SparseRREF({2: 0, 0: 1, 1: 2}.get)
    rref.insert_all(rows)
    assert rref.pivot_rows == {2: {2: 1, 1: 1}, 0: {0: 1, 1: -1}}
    assert rows == before
    # the table's rows are shared by every reader of the table
    for weight in (8, 10):
        matrix = relation_table(weight)
        before = [dict(row) for row in matrix.rows()]
        SparseRREF(_hoffman_last_priority(matrix.basis)).insert_all(matrix.rows())
        assert list(matrix.rows()) == before


def canonical_hoffman_last(basis):
    """The earlier pivot priority, kept as an oracle: non-Hoffman columns
    first, each group in canonical order, without the ones-first key."""
    order = sorted(range(len(basis)), key=lambda i: (is_hoffman(basis[i]), i))
    return {i: rank for rank, i in enumerate(order)}.__getitem__


@pytest.mark.parametrize("weight", range(2, 11))
def test_ones_first_order_gives_the_canonical_order_echelon(weight):
    # the bound is d_N here, so every non-Hoffman column is a pivot under
    # either order and the reduced echelon for that pivot set is unique
    matrix = relation_table(weight)
    oracle = SparseRREF(canonical_hoffman_last(matrix.basis))
    oracle.insert_all(matrix.rows())
    assert echelon_form(matrix).pivot_rows == oracle.pivot_rows


# One-by-one insert is too slow past weight 9, so the echelons of weights 10
# and 11 (entries of 37 and 47 bits) are pinned by a digest of their text.
@pytest.mark.parametrize("weight, digest", [
    (10, "bd494fd3a656ed82cd7a50fd94208fbe183cf1351ab3d18a44d2550e69b74523"),
    (11, "21e62ba1ce631bf740f29c641fd84418eac8ad6c8d0b1597b02c9fdea6ee27db"),
], ids=["w10", "w11"])
def test_relation_echelons_are_frozen(weight, digest):
    rows = echelon_form(relation_table(weight)).pivot_rows
    text = "\n".join("%d: %s" % (piv, " ".join("%d:%d/%d" % (c, v.numerator, v.denominator)
                                              for c, v in sorted(row.items())))
                     for piv, row in sorted(rows.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# rank 2; its echelon holds 999/142 and -500/71
NEEDS_A_LARGE_MODULUS = [{0: 1000, 1: 999}, {0: 6, 1: 5, 2: 7}]


@pytest.mark.parametrize("rows", [
    # det 7: rank 1 mod 7, rank 2 over Q
    [{0: 1, 1: 2}, {0: 1, 1: 9}, {1: 3, 2: 1}],
    # rank 1 either way, but mod 7 the pivot moves from column 0 to 1
    [{0: 7, 1: 1}, {0: 14, 1: 2}],
    NEEDS_A_LARGE_MODULUS,
])
def test_insert_all_is_exact_where_small_primes_fail(rows):
    rref = SparseRREF()
    rref.insert_all(rows)
    assert rref.pivot_rows == inserted_one_by_one(rows)


def test_insert_all_rebuilds_entries_with_large_denominators():
    rref = SparseRREF()
    rref.insert_all(NEEDS_A_LARGE_MODULUS)
    assert rref.pivot_rows == {0: {0: 1, 2: Fraction(999, 142)},
                               1: {1: 1, 2: Fraction(-500, 71)}}


def test_a_faulty_elimination_step_is_an_invariant_error(monkeypatch):
    clear = linalg._clear

    def drops_an_entry(row, c, prow):
        clear(row, c, prow)
        if len(row) > 1:
            row.popitem()

    monkeypatch.setattr(linalg, "_clear", drops_an_entry)
    rref = SparseRREF()
    with pytest.raises(InvariantError):
        rref.insert_all(NEEDS_A_LARGE_MODULUS)
    assert rref.pivot_rows == {}


@pytest.mark.parametrize("rows", [
    [{0: 1, 1: 0}, {0: 1}],     # clearing the other row subtracts the zero
    [{0: 0, 1: 2}],             # the zero would become the pivot
])
def test_a_zero_entry_is_refused_before_elimination(rows):
    rref = SparseRREF()
    with pytest.raises(ValueError, match="row 0 holds a zero entry"):
        rref.insert_all(rows)
    assert rref.pivot_rows == {}
