import random
from fractions import Fraction

import pytest

from mzvtools.linalg import SparseRREF, bareiss_det


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
