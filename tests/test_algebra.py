"""Shuffle, stuffle, and regularization against independent oracles.

The shuffle oracle enumerates interleavings by explicit position choice;
the stuffle oracle is a forward take-left/take-right/merge recursion; the
regularization oracle solves the defining linear system (convergent words
pinned, products with a divergent generator killed) from scratch.  All
three are deliberately different algorithms from the implementation.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from mzvtools import (BinaryWord, Composition, GenericWord, LinComb, algebra,
                      shuffle, shuffle_combo, shuffle_regularize, stuffle,
                      stuffle_combo, stuffle_regularize)
from mzvtools.errors import InvariantError
from mzvtools.words import enumerate_compositions


def binary_combo(*pairs):
    return LinComb([(BinaryWord(w), Fraction(c)) for w, c in pairs])


def comp_combo(*pairs):
    return LinComb([(Composition(p), Fraction(c)) for p, c in pairs])


# ---------------------------------------------------------------- shuffle

def shuffle_oracle(u, v):
    """All C(m+n, m) interleavings, by choosing the positions of u."""
    m, n = len(u), len(v)
    counts = {}
    for pos in combinations(range(m + n), m):
        word = [None] * (m + n)
        ui = iter(u)
        for p in pos:
            word[p] = next(ui)
        vi = iter(v)
        for i in range(m + n):
            if word[i] is None:
                word[i] = next(vi)
        word = tuple(word)
        counts[word] = counts.get(word, 0) + 1
    return counts


def test_weight_four_square():
    assert shuffle(BinaryWord("10"), BinaryWord("10")) == binary_combo(
        ("1010", 2), ("1100", 4))


def test_shuffle_with_empty_word_is_identity():
    w = BinaryWord("110")
    assert shuffle(w, BinaryWord()) == LinComb.term(w)
    assert shuffle(BinaryWord(), w) == LinComb.term(w)


def test_shuffle_single_letters():
    assert shuffle(BinaryWord("1"), BinaryWord("0")) == binary_combo(
        ("10", 1), ("01", 1))


def test_shuffle_on_letter_words():
    u = GenericWord(("f3", "f5"))
    v = GenericWord(("f7",))
    got = shuffle(u, v)
    expected = LinComb([
        (GenericWord(("f7", "f3", "f5")), Fraction(1)),
        (GenericWord(("f3", "f7", "f5")), Fraction(1)),
        (GenericWord(("f3", "f5", "f7")), Fraction(1)),
    ])
    assert got == expected


def test_shuffle_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        shuffle(BinaryWord("10"), GenericWord(("a",)))


@pytest.mark.parametrize("u,v", [
    ("1", "0"), ("10", "10"), ("10", "110"), ("100", "11"),
    ("1010", "10"), ("110", "001"),
])
def test_shuffle_matches_position_oracle(u, v):
    got = shuffle(BinaryWord(u), BinaryWord(v))
    expected = shuffle_oracle(tuple(int(c) for c in u), tuple(int(c) for c in v))
    assert {w.letters: c for w, c in got.terms()} == {
        w: Fraction(c) for w, c in expected.items()}


def test_shuffle_total_mass_is_binomial():
    rng = random.Random(11)
    for _ in range(20):
        u = BinaryWord([rng.randint(0, 1) for _ in range(rng.randint(0, 5))])
        v = BinaryWord([rng.randint(0, 1) for _ in range(rng.randint(0, 5))])
        total = sum(c for _, c in shuffle(u, v).terms())
        m, n = len(u.letters), len(v.letters)
        assert total == Fraction(_binomial(m + n, m))


def _binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_shuffle_commutes_and_associates():
    rng = random.Random(5)
    words = [BinaryWord([rng.randint(0, 1) for _ in range(rng.randint(1, 4))])
             for _ in range(6)]
    for u, v in zip(words, words[1:]):
        assert shuffle(u, v) == shuffle(v, u)
    for u, v, w in zip(words, words[1:], words[2:]):
        left = shuffle_combo(shuffle(u, v), LinComb.term(w))
        right = shuffle_combo(LinComb.term(u), shuffle(v, w))
        assert left == right


# ---------------------------------------------------------------- stuffle

def stuffle_oracle(a, b):
    """Forward recursion: take from a, take from b, or merge the heads."""
    if not a:
        return {b: 1}
    if not b:
        return {a: 1}
    counts = {}
    for head, rest in (((a[0],), (a[1:], b)),
                       ((b[0],), (a, b[1:])),
                       ((a[0] + b[0],), (a[1:], b[1:]))):
        for tail, c in stuffle_oracle(*rest).items():
            word = head + tail
            counts[word] = counts.get(word, 0) + c
    return counts


def test_stuffle_of_singletons():
    assert stuffle(Composition((2,)), Composition((3,))) == comp_combo(
        ((2, 3), 1), ((3, 2), 1), ((5,), 1))


def test_stuffle_with_empty():
    c = Composition((1, 2))
    assert stuffle(c, Composition()) == LinComb.term(c)


def test_stuffle_depth_two_example():
    got = stuffle(Composition((1,)), Composition((1, 2)))
    assert got == comp_combo(((1, 1, 2), 2), ((1, 2, 1), 1), ((2, 2), 1), ((1, 3), 1))


@pytest.mark.parametrize("a,b", [
    ((2,), (3,)), ((1,), (1, 2)), ((1, 2), (2,)), ((2, 1), (1,)),
    ((1, 1), (2,)), ((1, 2), (1, 2)), ((3,), (1, 1, 2)),
])
def test_stuffle_matches_forward_oracle(a, b):
    got = stuffle(Composition(a), Composition(b))
    expected = stuffle_oracle(a, b)
    assert {w.parts: c for w, c in got.terms()} == {
        w: Fraction(c) for w, c in expected.items()}


def test_stuffle_commutes_and_associates():
    rng = random.Random(7)
    comps = [Composition(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
             for _ in range(6)]
    for a, b in zip(comps, comps[1:]):
        assert stuffle(a, b) == stuffle(b, a)
    for a, b, c in zip(comps, comps[1:], comps[2:]):
        left = stuffle_combo(stuffle(a, b), LinComb.term(c))
        right = stuffle_combo(LinComb.term(a), stuffle(b, c))
        assert left == right


def test_stuffle_preserves_weight():
    got = stuffle(Composition((1, 2)), Composition((2, 2)))
    assert all(w.weight == 7 for w, _ in got.terms())


# ---------------------------------------------------------- regularization

def test_regularize_fixes_convergent_words():
    for w in ("10", "1100", "1010", "10010"):
        assert shuffle_regularize(BinaryWord(w)) == LinComb.term(BinaryWord(w))
    for p in ((2,), (1, 2), (2, 3)):
        assert stuffle_regularize(Composition(p)) == LinComb.term(Composition(p))


def test_regularize_kills_the_generators():
    assert shuffle_regularize(BinaryWord("1")) == LinComb()
    assert shuffle_regularize(BinaryWord("0")) == LinComb()
    assert stuffle_regularize(Composition((1,))) == LinComb()


def test_regularize_frozen_examples():
    assert shuffle_regularize(BinaryWord("101")) == binary_combo(("110", -2))
    assert stuffle_regularize(Composition((2, 1))) == comp_combo(
        ((1, 2), -1), ((3,), -1))
    assert stuffle_regularize(Composition((1, 1))) == comp_combo(((2,), Fraction(-1, 2)))
    assert stuffle_regularize(Composition((1, 1, 1))) == comp_combo(((3,), Fraction(1, 3)))


def test_regularized_output_is_convergent():
    for weight in range(1, 7):
        for letters in product((0, 1), repeat=weight):
            for w, _ in shuffle_regularize(BinaryWord(letters)).terms():
                assert w.is_convergent
        for c in enumerate_compositions(weight):
            for w, _ in stuffle_regularize(c).terms():
                assert w.is_convergent


def test_regularize_digest_through_weight_eight():
    """Every binary word and every composition of weight <= 8, regularized,
    printed and hashed: the frozen value pins all 767 results at once."""
    lines = []
    for weight in range(9):
        for letters in product((0, 1), repeat=weight):
            w = BinaryWord(letters)
            lines.append("%s: %s" % (w, shuffle_regularize(w)))
        for c in enumerate_compositions(weight):
            lines.append("%s: %s" % (c, stuffle_regularize(c)))
    assert len(lines) == 767
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "d6b90c4e68a4ee00aa496b8fd78c6ba14a940a8a2a9b0fd01e2d85e85591db51")


def test_a_wrong_product_on_a_pure_power_trips_the_peeling_check(monkeypatch):
    """0 sh 00 = 3*000, so reg(000) = 0; a product that gives 2*000 instead
    must fail the run-peeling check, not pass as 0."""
    right = algebra._shuffle_letters

    def wrong(u, v):
        return (((0, 0, 0), 2),) if (u, v) == ((0,), (0, 0)) else right(u, v)

    algebra._reg_shuffle.cache_clear()
    monkeypatch.setattr(algebra, "_shuffle_letters", wrong)
    try:
        with pytest.raises(InvariantError, match="multiplicity"):
            shuffle_regularize(BinaryWord("000"))
    finally:
        algebra._reg_shuffle.cache_clear()


def test_the_shared_product_recursion_stays_memoized():
    # one cache miss per distinct (prefix, prefix) pair reached
    for product, u, v, misses in (
            (algebra._shuffle_letters, (1, 0, 1, 1, 0, 0), (1, 1, 0, 1, 0, 0), 48),
            (algebra._stuffle_parts, (2, 1, 3, 1, 2, 2), (1, 3, 2, 2, 1, 2), 49)):
        product.cache_clear()
        product(u, v)
        assert product.cache_info().misses == misses


def _regularize_combo(combo, regularize):
    return sum((c * regularize(w) for w, c in combo.terms()), LinComb())


@pytest.mark.parametrize("weight", range(2, 7))
def test_shuffle_regularization_is_a_morphism(weight):
    """reg(u sh v) = reg(u) sh reg(v), extended bilinearly."""
    rng = random.Random(weight)
    for _ in range(12):
        k = rng.randint(1, weight - 1)
        u = BinaryWord([rng.randint(0, 1) for _ in range(k)])
        v = BinaryWord([rng.randint(0, 1) for _ in range(weight - k)])
        lhs = _regularize_combo(shuffle(u, v), shuffle_regularize)
        rhs = shuffle_combo(shuffle_regularize(u), shuffle_regularize(v))
        assert lhs == rhs, (u, v)


@pytest.mark.parametrize("weight", range(2, 7))
def test_stuffle_regularization_is_a_morphism(weight):
    rng = random.Random(weight)
    for _ in range(12):
        k = rng.randint(1, weight - 1)
        all_u = list(enumerate_compositions(k))
        all_v = list(enumerate_compositions(weight - k))
        a, b = rng.choice(all_u), rng.choice(all_v)
        lhs = _regularize_combo(stuffle(a, b), stuffle_regularize)
        rhs = stuffle_combo(stuffle_regularize(a), stuffle_regularize(b))
        assert lhs == rhs, (a, b)


def _solve_unique(rows, n_unknowns, n_rhs):
    """Gaussian elimination over Fractions; returns pivot-column -> rhs row,
    asserting the system pins every unknown."""
    m = [list(r) + list(rhs) for r, rhs in rows]
    width = n_unknowns + n_rhs
    pivots = []
    rank = 0
    for col in range(n_unknowns):
        sel = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    assert rank == n_unknowns, "defining system does not pin regularization"
    for i in range(rank, len(m)):
        assert all(x == 0 for x in m[i][n_unknowns:width]), "inconsistent system"
    return {pivots[i]: m[i][n_unknowns:width] for i in range(rank)}


@pytest.mark.parametrize("weight", range(1, 6))
def test_shuffle_regularization_solves_the_defining_system(weight):
    """Unknowns reg(w) for every weight-n word; equations: convergent words
    map to themselves, and any product with a bare generator maps to zero.
    The system has a unique solution, and the implementation computes it."""
    words = list(product((0, 1), repeat=weight))
    conv = [w for w in words if w[0] == 1 and w[-1] == 0]
    idx = {w: i for i, w in enumerate(words)}
    cidx = {w: j for j, w in enumerate(conv)}
    rows = []
    for w in conv:
        r = [Fraction(0)] * len(words)
        r[idx[w]] = Fraction(1)
        rhs = [Fraction(0)] * len(conv)
        rhs[cidx[w]] = Fraction(1)
        rows.append((r, rhs))
    for g in ((0,), (1,)):
        for u in product((0, 1), repeat=weight - 1):
            r = [Fraction(0)] * len(words)
            for word, c in shuffle(BinaryWord(g), BinaryWord(u)).terms():
                r[idx[word.letters]] += c
            rows.append((r, [Fraction(0)] * len(conv)))
    sol = _solve_unique(rows, len(words), len(conv))
    for w in words:
        vec = [Fraction(0)] * len(conv)
        for word, c in shuffle_regularize(BinaryWord(w)).terms():
            vec[cidx[word.letters]] += c
        assert vec == sol[idx[w]], w


@pytest.mark.parametrize("weight", range(1, 7))
def test_stuffle_regularization_solves_the_defining_system(weight):
    comps = [c.parts for c in enumerate_compositions(weight)]
    conv = [p for p in comps if p[-1] >= 2]
    idx = {p: i for i, p in enumerate(comps)}
    cidx = {p: j for j, p in enumerate(conv)}
    rows = []
    for p in conv:
        r = [Fraction(0)] * len(comps)
        r[idx[p]] = Fraction(1)
        rhs = [Fraction(0)] * len(conv)
        rhs[cidx[p]] = Fraction(1)
        rows.append((r, rhs))
    for u in enumerate_compositions(weight - 1):
        r = [Fraction(0)] * len(comps)
        for word, c in stuffle(Composition((1,)), u).terms():
            r[idx[word.parts]] += c
        rows.append((r, [Fraction(0)] * len(conv)))
    sol = _solve_unique(rows, len(comps), len(conv))
    for p in comps:
        vec = [Fraction(0)] * len(conv)
        for word, c in stuffle_regularize(Composition(p)).terms():
            vec[cidx[word.parts]] += c
        assert vec == sol[idx[p]], p
