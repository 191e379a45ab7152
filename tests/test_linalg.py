import hashlib
import random
from fractions import Fraction

import pytest

from mzvtools import linalg
from mzvtools.errors import InvariantError
from mzvtools.linalg import SparseRREF, bareiss_det
from mzvtools.relations import _hoffman_last_priority, echelon_form, relation_table


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


@pytest.mark.parametrize("seed", range(8))
def test_rank_engines_agree(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(3, 10), rng.randint(3, 10)
    rows = random_sparse_rows(rng, n_rows, n_cols)
    expected = gauss_rank(rows, n_cols)

    rref = SparseRREF()
    rref.insert_all(dict(r) for r in rows)
    assert rref.rank == expected


def test_rank_of_dependent_rows():
    rows = [{0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(4)},
            {0: Fraction(3), 1: Fraction(6)}]
    rref = SparseRREF()
    rref.insert_all(dict(r) for r in rows)
    assert rref.rank == 1


def test_insert_reports_new_pivot_or_none():
    rref = SparseRREF()
    assert rref.insert({0: Fraction(1), 1: Fraction(1)}) == 0
    assert rref.insert({1: Fraction(1)}) == 1
    assert rref.insert({0: Fraction(2), 1: Fraction(5)}) is None
    assert rref.rank == 2


def test_reduce_is_idempotent_and_pivot_free():
    rng = random.Random(3)
    rref = SparseRREF()
    rref.insert_all(dict(r) for r in random_sparse_rows(rng, 6, 6))
    row = {j: Fraction(rng.randint(-3, 3)) for j in range(6)}
    reduced = rref.reduce(dict(row))
    assert all(col not in rref.pivot_rows for col in reduced)
    assert rref.reduce(dict(reduced)) == reduced


def test_pivot_rows_are_fully_back_substituted():
    # every pivot row must be zero on all other pivot columns
    rng = random.Random(9)
    rref = SparseRREF()
    rref.insert_all(dict(r) for r in random_sparse_rows(rng, 12, 8))
    for pivcol, row in rref.pivot_rows.items():
        assert row[pivcol] == 1
        for other in rref.pivot_rows:
            if other != pivcol:
                assert other not in row


def test_priority_steers_pivot_choice():
    # with column 1 made expensive, the pivot for a row hitting {0,1} is 0,
    # and column 1 is left free
    rref = SparseRREF(priority={0: 0, 1: 10}.get)
    rref.insert({0: Fraction(1), 1: Fraction(1)})
    assert list(rref.pivot_rows) == [0]
    assert rref.pivot_rows[0] == {0: 1, 1: 1}
    flipped = SparseRREF(priority={0: 10, 1: 0}.get)
    flipped.insert({0: Fraction(1), 1: Fraction(1)})
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


def inserted_one_by_one(rows, priority=None):
    rref = SparseRREF(priority)
    for row in rows:
        rref.insert(row)
    return rref


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
    assert batch.insert_all(iter(rows)) == batch.rank
    assert batch.pivot_rows == inserted_one_by_one(rows, priority).pivot_rows
    assert all(type(v) is Fraction for row in batch.pivot_rows.values() for v in row.values())


def test_insert_all_keeps_rows_already_held():
    rng = random.Random(7)
    rows = random_sparse_rows(rng, 9, 7)
    priority = reversed_priority(7)
    rref = SparseRREF(priority)
    for row in rows[:4]:
        rref.insert(row)
    rref.insert_all(r for r in rows[4:])
    assert rref.pivot_rows == inserted_one_by_one(rows, priority).pivot_rows


@pytest.mark.parametrize("weight", range(2, 10))
def test_insert_all_matches_one_by_one_on_relation_tables(weight):
    matrix = relation_table(weight)
    priority = _hoffman_last_priority(matrix.basis)
    batch = SparseRREF(priority)
    batch.insert_all(matrix.rows())
    assert batch.pivot_rows == inserted_one_by_one(matrix.rows(), priority).pivot_rows


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
    assert rref.pivot_rows == inserted_one_by_one(rows).pivot_rows


def test_insert_all_rebuilds_entries_with_large_denominators():
    rref = SparseRREF()
    rref.insert_all(NEEDS_A_LARGE_MODULUS)
    assert rref.pivot_rows == {0: {0: 1, 2: Fraction(999, 142)},
                               1: {1: 1, 2: Fraction(-500, 71)}}


def test_a_faulty_elimination_step_is_an_invariant_error(monkeypatch):
    cleared = linalg._cleared

    def drops_an_entry(row, c, prow):
        out = cleared(row, c, prow)
        if len(out) > 1:
            out.popitem()
        return out

    monkeypatch.setattr(linalg, "_cleared", drops_an_entry)
    rref = SparseRREF()
    rref.insert({0: 1, 3: 1})
    held = {c: dict(row) for c, row in rref.pivot_rows.items()}
    with pytest.raises(InvariantError):
        rref.insert_all(NEEDS_A_LARGE_MODULUS)
    assert rref.pivot_rows == held
