import random
from fractions import Fraction

import pytest

from mzvtools import linalg
from mzvtools.errors import InvariantError
from mzvtools.linalg import SparseRREF, bareiss_det
from mzvtools.relations import _hoffman_last_priority, relation_table


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


# ------------------------------------------------- multimodular insert_all


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


def count_primes_used(monkeypatch):
    used = []
    echelon_mod = linalg._echelon_mod
    monkeypatch.setattr(linalg, "_echelon_mod",
                        lambda rows, p, priority: used.append(p) or echelon_mod(rows, p, priority))
    return used


@pytest.mark.parametrize("rows", [
    # det 7: rank 1 mod 7, rank 2 over Q
    [{0: 1, 1: 2}, {0: 1, 1: 9}, {1: 3, 2: 1}],
    # rank 1 either way, but mod 7 the pivot moves from column 0 to 1
    [{0: 7, 1: 1}, {0: 14, 1: 2}],
])
def test_unlucky_first_prime_still_ends_exact(monkeypatch, rows):
    monkeypatch.setattr(linalg, "PRIMES", (7, 2 ** 61 - 1))
    used = count_primes_used(monkeypatch)
    rref = SparseRREF()
    rref.insert_all(rows)
    assert used == [7, 2 ** 61 - 1]
    assert rref.pivot_rows == inserted_one_by_one(rows).pivot_rows


# rank 2, rank 1 mod 7; its echelon holds 999/142 and -500/71, which need a
# modulus above 2 * 999 * 142
NEEDS_A_LARGE_MODULUS = [{0: 1000, 1: 999}, {0: 6, 1: 5, 2: 7}]


def test_unlucky_later_prime_is_dropped(monkeypatch):
    # 1009 alone cannot rebuild the entries; 7 then loses a pivot and is
    # dropped; 1013 and 1019 join 1009 by CRT
    monkeypatch.setattr(linalg, "PRIMES", (1009, 7, 1013, 1019, 1021))
    used = count_primes_used(monkeypatch)
    rref = SparseRREF()
    rref.insert_all(NEEDS_A_LARGE_MODULUS)
    assert rref.pivot_rows == inserted_one_by_one(NEEDS_A_LARGE_MODULUS).pivot_rows
    assert rref.pivot_rows[1][2] == Fraction(-500, 71)
    assert used == [1009, 7, 1013, 1019]


def test_too_small_first_modulus_still_ends_exact(monkeypatch):
    monkeypatch.setattr(linalg, "PRIMES", (101, 103, 2 ** 61 - 1))
    used = count_primes_used(monkeypatch)
    rref = SparseRREF()
    rref.insert_all(NEEDS_A_LARGE_MODULUS)
    assert used == [101, 103, 2 ** 61 - 1]
    assert rref.pivot_rows == inserted_one_by_one(NEEDS_A_LARGE_MODULUS).pivot_rows


def test_exhausted_prime_tuple_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(linalg, "PRIMES", (101, 103))
    rref = SparseRREF()
    rref.insert({0: 1, 3: 1})
    held = {c: dict(row) for c, row in rref.pivot_rows.items()}
    with pytest.raises(InvariantError):
        rref.insert_all(NEEDS_A_LARGE_MODULUS)
    assert rref.pivot_rows == held


def is_strong_probable_prime(n, bases=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)):
    """Miller-Rabin with fixed bases; a proof of primality below 3.3e24."""
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_miller_rabin_separates_primes_from_composites():
    assert [n for n in range(60) if is_strong_probable_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    # strong pseudoprimes to the first bases, and a Mersenne composite
    for n in (2047, 3215031751, 3825123056546413051, 2 ** 67 - 1):
        assert not is_strong_probable_prime(n)


def test_every_prime_in_the_tuple_passes_miller_rabin():
    assert linalg.PRIMES
    assert len(set(linalg.PRIMES)) == len(linalg.PRIMES)
    assert all(is_strong_probable_prime(p) for p in linalg.PRIMES)
