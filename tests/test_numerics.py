"""High-precision evaluation: Bernoulli numbers, Euler-Maclaurin, multiple
polylogarithms at z = 1/2, the path-splitting MZV evaluator, and the
hypercube Monte-Carlo check.  Cross-checks pit independent algorithms against each
other rather than trusting any single route."""

import json
import math
import re
import time
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from mpmath import mp, mpf, pi, zeta as mp_zeta

from mzvtools import (BigReal, Composition, bernoulli, enumerate_compositions,
                      hypercube_zeta2, mzv_eval, numerics, zeta_euler_maclaurin,
                      zeta_even_closed_form)
from mzvtools.cli import main
from mzvtools.errors import InvariantError
from mzvtools.numerics import (GUARD, MAX_DIGITS, MAX_KERNEL_WORK, MAX_SAMPLE_WORK,
                               _first_term_zeros, _path_halves, _polylog_fixed,
                               _scale_bits, _term_counts, _truncation_index,
                               hypercube_integrand, monte_carlo)

# The largest Euler-Maclaurin cutoff, which bounds the Bernoulli index too
LARGEST_CUTOFF = max(12, MAX_DIGITS + GUARD)


# ---------------------------------------------------------------- BigReal

def test_bigreal_from_fraction():
    x = BigReal(Fraction(1, 3), 25)
    assert x.digits == 25
    assert x.nstr(10) == "0.3333333333"


def test_bigreal_from_string_and_int():
    assert float(BigReal("2.5", 15)) == 2.5
    assert float(BigReal(7, 15)) == 7.0


def test_bigreal_json_obj():
    obj = BigReal(Fraction(1, 4), 20).to_json_obj()
    assert obj["digits"] == 20
    assert obj["value"].startswith("0.25")


def test_bigreal_requires_positive_digits():
    with pytest.raises(ValueError):
        BigReal(1, 0)


# -------------------------------------------------------------- Bernoulli

def bernoulli_oracle(n_max):
    """Taylor coefficients of t/(e^t - 1) by power-series division."""
    # denominator series: (e^t - 1)/t = sum t^k/(k+1)!
    fact = [Fraction(1)]
    for k in range(1, n_max + 2):
        fact.append(fact[-1] * k)
    den = [Fraction(1, int(fact[k + 1])) for k in range(n_max + 1)]
    inv = [Fraction(1)]
    for k in range(1, n_max + 1):
        inv.append(-sum(den[j] * inv[k - j] for j in range(1, k + 1)))
    return [inv[k] * fact[k] for k in range(n_max + 1)]


def bernoulli_recurrence(n_max):
    """B_0..B_n_max from sum_{k=0}^{n} C(n+1, k) B_k = [n == 0], which
    multiplying the generating series by (e^t - 1) gives."""
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        b.append(Fraction(-sum(math.comb(m + 1, k) * b[k] for k in range(m)), m + 1))
    return b


def test_bernoulli_against_series_division():
    oracle = bernoulli_oracle(20)
    for n in range(21):
        assert bernoulli(n) == oracle[n], n


def test_bernoulli_against_the_recurrence():
    oracle = bernoulli_recurrence(300)
    assert [bernoulli(n) for n in range(301)] == oracle


def test_bernoulli_refuses_bad_indices():
    # no route needs an index past the largest Euler-Maclaurin cutoff
    assert bernoulli(2.0) == Fraction(1, 6)
    assert bernoulli(LARGEST_CUTOFF).denominator > 1
    for n in [-1, 2.5, float("inf"), float("nan"), LARGEST_CUTOFF + 1, LARGEST_CUTOFF + 2]:
        with pytest.raises(ValueError, match="index must be an integer between 0 and %d"
                           % LARGEST_CUTOFF):
            bernoulli(n)


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    assert all(bernoulli(n) == 0 for n in range(3, 30, 2))


# -------------------------------------------------- even zeta closed form

@pytest.mark.parametrize("s,coeff", [(2, Fraction(1, 6)), (4, Fraction(1, 90)),
                                     (6, Fraction(1, 945)), (8, Fraction(1, 9450))])
def test_even_zeta_closed_form(s, coeff):
    v = zeta_even_closed_form(s, 40)
    with mp.workdps(50):
        expected = mpf(coeff.numerator) / coeff.denominator * pi ** s
        assert abs(v.value - expected) < mpf(10) ** -38


def test_even_zeta_rejects_odd_or_zero():
    with pytest.raises(ValueError):
        zeta_even_closed_form(3, 20)
    with pytest.raises(ValueError):
        zeta_even_closed_form(0, 20)
    # a float s used to fail as a list index
    with pytest.raises(ValueError, match="s must be an integer >= 2, got 4.5"):
        zeta_even_closed_form(4.5, 20)
    assert zeta_even_closed_form(4.0, 20).nstr() == zeta_even_closed_form(4, 20).nstr()


# ---------------------------------------------------------- Euler-Maclaurin

def test_euler_maclaurin_frozen_truncation():
    """Cutoff 100 with four correction terms reproduces a frozen 26-digit
    value lying within 1e-23 of the true zeta(2)."""
    v = zeta_euler_maclaurin(2, 30, cutoff=100, correction_terms=4)
    assert v.nstr(26) == "1.6449340668482264364724076"
    with mp.workdps(40):
        assert abs(v.value - pi ** 2 / 6) < mpf(10) ** -23


@pytest.mark.parametrize("s", [2, 3, 4, 7, 12])
def test_euler_maclaurin_matches_reference_zeta(s):
    v = zeta_euler_maclaurin(s, 40)
    with mp.workdps(50):
        assert abs(v.value - mp_zeta(s)) < mpf(10) ** -38


def test_euler_maclaurin_agrees_with_closed_form():
    for s in (2, 4, 6, 8, 10):
        a = zeta_euler_maclaurin(s, 50)
        b = zeta_even_closed_form(s, 50)
        with mp.workdps(60):
            assert abs(a.value - b.value) < mpf(10) ** -48


def test_euler_maclaurin_precision_scales():
    # asking for twice the digits reproduces the shorter answer
    lo = zeta_euler_maclaurin(3, 20)
    hi = zeta_euler_maclaurin(3, 40)
    with mp.workdps(50):
        assert abs(lo.value - hi.value) < mpf(10) ** -19


@pytest.mark.parametrize("cutoff,terms,bad", [
    (5, None, ("cutoff", 30 + GUARD, LARGEST_CUTOFF, 5)),
    (0, 4, ("cutoff", 1, LARGEST_CUTOFF, 0)),
    (-3, 4, ("cutoff", 1, LARGEST_CUTOFF, -3)),
    (10 ** 6, 4, ("cutoff", 1, LARGEST_CUTOFF, 10 ** 6)),
    (100.5, 4, ("cutoff", 1, LARGEST_CUTOFF, 100.5)),
    (100, -1, ("correction_terms", 0, LARGEST_CUTOFF // 2, -1)),
    (100, LARGEST_CUTOFF // 2 + 1, ("correction_terms", 0, LARGEST_CUTOFF // 2,
                                    LARGEST_CUTOFF // 2 + 1)),
    (100, 4.5, ("correction_terms", 0, LARGEST_CUTOFF // 2, 4.5)),
])
def test_euler_maclaurin_refuses_rather_than_changes_a_truncation(monkeypatch, cutoff,
                                                                  terms, bad):
    # cutoff 5 alone used to be doubled until it worked, cutoff 0 divided
    # by zero, -3 returned -0.395 and 10^6 summed for 9 s; nothing is
    # summed now, which taking away numerics' mpf would show
    monkeypatch.setattr(numerics, "mpf", None)
    message = "%s must be an integer between %d and %d, got %s" % bad
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        zeta_euler_maclaurin(2, 30, cutoff=cutoff, correction_terms=terms)


def test_euler_maclaurin_honours_an_explicit_truncation():
    # cutoff 40 is the smallest one 30 digits allow without correction_terms
    assert (zeta_euler_maclaurin(2, 30, cutoff=40).nstr()
            == zeta_euler_maclaurin(2, 30).nstr())
    with mp.workdps(40):
        n = 12
        plain = (sum(mpf(k) ** -2 for k in range(1, n + 1)) + mpf(1) / n
                 - mpf(1) / (2 * n ** 2))
        got = zeta_euler_maclaurin(2, 30, cutoff=n, correction_terms=0).value
        assert abs(got - plain) < mpf(10) ** -30


def test_euler_maclaurin_faults_past_its_termination_bound(monkeypatch):
    # corrections that never fall below the target by 2j = n are a fault,
    # not a reason to sum on or to double the cutoff
    monkeypatch.setattr(numerics, "bernoulli", lambda n: Fraction(10 ** 60))
    with pytest.raises(InvariantError, match=r"at n = 40 stayed above 10\^-40"):
        zeta_euler_maclaurin(2, 30)


def test_euler_maclaurin_rejects_s_one():
    with pytest.raises(ValueError):
        zeta_euler_maclaurin(1, 20)
    # a non-integral s used to be truncated: 2.5 gave zeta(2)
    for s in [2.5, float("inf"), float("nan")]:
        with pytest.raises(ValueError, match="s must be an integer >= 2"):
            zeta_euler_maclaurin(s, 10)
    assert zeta_euler_maclaurin(2.0, 10).nstr() == zeta_euler_maclaurin(2, 10).nstr()


# -------------------------------------------------------------- polylogs

def polylog_brute(parts, terms):
    """Nested-sum evaluation at z = 1/2, O(terms^depth); depth <= 2 only."""
    with mp.workdps(60):
        zm = mpf(1) / 2
        if len(parts) == 1:
            return sum(zm ** k / mpf(k) ** parts[0] for k in range(1, terms))
        total = mpf(0)
        for k2 in range(2, terms):
            inner = sum(mpf(1) / mpf(k1) ** parts[0] for k1 in range(1, k2))
            total += inner * zm ** k2 / mpf(k2) ** parts[1]
        return total


def polylog_half(parts, digits):
    """Li_parts(1/2) from the half-path kernel at digits + GUARD."""
    dps = digits + GUARD
    n = _term_counts([parts], dps)[len(parts)]
    return BigReal((numerics._polylog_half(parts, dps, n), -_scale_bits(dps)), digits)


def test_dilogarithm_at_one_half():
    # Li_2(1/2) = pi^2/12 - log(2)^2/2
    v = polylog_half((2,), 40)
    with mp.workdps(50):
        expected = pi ** 2 / 12 - mp.log(2) ** 2 / 2
        assert abs(v.value - expected) < mpf(10) ** -38


@pytest.mark.parametrize("parts", [(1,), (2,), (1, 2), (2, 1), (1, 1)])
def test_polylog_matches_brute_sum_at_half(parts):
    v = polylog_half(parts, 20)
    brute = polylog_brute(parts, 120)
    with mp.workdps(30):
        assert abs(v.value - brute) < mpf(10) ** -18


def test_polylog_at_one_is_zeta():
    # Li_2(1) = zeta(2) = pi^2/6
    v = mzv_eval((2,), 40)
    with mp.workdps(50):
        assert abs(v.value - pi ** 2 / 6) < mpf(10) ** -39


def test_polylog_at_one_prints_the_digits_of_zeta_2_3():
    # Li_(2,3)(1) = zeta(2,3) = 3 zeta(2) zeta(3) - 11/2 zeta(5)
    assert mzv_eval((2, 3), 12).nstr() == "0.228810397603"


def test_polylog_validates_raw_tuples():
    # parts below 1 used to be summed as if they were exponents
    for parts in [(-1, 2), (0, 2), (2.5,)]:
        with pytest.raises(ValueError, match="composition part must be an integer >= 1"):
            mzv_eval(parts, 10)
    assert mzv_eval((1, 2), 20).nstr() == mzv_eval(Composition((1, 2)), 20).nstr()


def test_polylog_at_one_requires_convergent_word():
    with pytest.raises(ValueError, match=r"^\(1\) diverges"):
        mzv_eval(Composition((1,)), 10)


def test_polylog_divergent_word_fine_below_one():
    # trailing 1s converge geometrically at z = 1/2: Li_1(1/2) = log 2
    v = polylog_half((1,), 30)
    with mp.workdps(40):
        assert abs(v.value - mp.log(2)) < mpf(10) ** -28


# --------------------------------------------- fixed-point polylog kernel

def polylog_columns_oracle(words, n, dps):
    """The mpf prefix-sum loop the integer kernel replaced, kept as its
    oracle: for every word its last column c_k = sum_{k1<...<k_{r-1}<k}
    1/(k1^n1 ... k^nr), k = 1..n, at dps digits.  Each column is built from
    the column of the word without its last part, so ``words`` must hold
    every prefix of each of its words."""
    cols = {}
    with mp.workdps(dps):
        for parts in sorted(words, key=len):
            if len(parts) == 1:
                cols[parts] = [mpf(1) / k ** parts[0] for k in range(1, n + 1)]
                continue
            prefix = mpf(0)
            new = []
            for k in range(1, n + 1):
                new.append(prefix / k ** parts[-1])
                prefix += cols[parts[:-1]][k - 1]
            cols[parts] = new
    return cols


def powers(n):
    """2^-1, ..., 2^-n at the current precision."""
    return [mpf(2) ** -k for k in range(1, n + 1)]


def all_compositions(max_weight):
    return [c.parts for w in range(1, max_weight + 1) for c in enumerate_compositions(w)]


# Every half-path word is a composition.  At 300 digits the mpf oracle
# would take about 15 s for all of weight <= 10 on a 2-vCPU host, so it
# covers weight <= 8 there (5 s).
@pytest.mark.parametrize("digits,max_weight", [(40, 10), (300, 8)])
def test_half_path_kernel_matches_the_mpf_oracle(digits, max_weight):
    """At z = 1/2 the kernel lies below the truncated sum by less than
    depth + N units of its scale, and the shared-scale value by less than 2
    units, each below 2^-16 10^-dps."""
    dps = digits + GUARD
    bits = _scale_bits(dps)
    words = all_compositions(max_weight)
    ns = {parts: _truncation_index(len(parts), dps, MAX_KERNEL_WORK) for parts in words}
    cols = polylog_columns_oracle(words, max(ns.values()), dps + 20)
    with mp.workdps(dps + 20):
        unit = mpf(2) ** -bits
        weights = powers(max(ns.values()))
        for parts in words:
            n = ns[parts]
            exact = mp.fdot(cols[parts][:n], weights[:n])
            low = exact / unit - _polylog_fixed(parts, bits, n)
            assert -1e-6 < low < len(parts) + n, parts
            low = exact / unit - numerics._polylog_half(parts, dps, n)
            assert -1e-6 < low < 2, parts
            assert low * unit < mpf(2) ** -15 * mpf(10) ** -dps, parts


def polylog_fixed_row_by_row(parts, bits, n):
    """The row-by-row loop the blocked kernel replaced, kept as its oracle:
    one step per term k and level, with a running prefix sum per level and
    the same floors, in the order prefix // k^nj, then the weight 2^-k."""
    one = 1 << bits
    *inner, last = parts
    sums = [0] * len(inner)
    total = 0
    for k in range(1, n + 1):
        prev = one
        for j, nj in enumerate(inner):
            prev, sums[j] = sums[j], sums[j] + prev // k ** nj
        total += prev // k ** last >> k
    return total


# Term counts around the block edges: inside the first block, on its last
# term, one past it, and into a third block.
BLOCK_EDGES = (1, 2, numerics._BLOCK - 1, numerics._BLOCK, numerics._BLOCK + 1,
               2 * numerics._BLOCK + 3)


def test_kernel_equals_the_row_by_row_loop():
    """The blocked kernel returns exactly the row-by-row loop's int for
    every composition of weight <= 6, across the block edges."""
    for parts in all_compositions(6):
        for n in BLOCK_EDGES:
            for bits in (40, 1100):
                assert (_polylog_fixed(parts, bits, n)
                        == polylog_fixed_row_by_row(parts, bits, n)), (parts, n, bits)


def test_divisors_off_the_tables_are_summed_alike():
    """A part above _TABLE_EXPONENT takes its power term by term, not from
    the shared tables, with the same sum."""
    big = numerics._TABLE_EXPONENT + 1
    n = numerics._BLOCK + 5
    numerics._powers.cache_clear()
    for parts in [(big,), (2, big), (big, 1, 3), (1, big, big)]:
        assert _polylog_fixed(parts, 200, n) == polylog_fixed_row_by_row(parts, 200, n)
    # tables for the parts 1, 2 and 3 alone, two blocks each
    assert numerics._powers.cache_info().currsize == 3 * 2


# -------------------------------------------------------------- mzv_eval

def test_precision_beyond_the_cap_fails_before_summing():
    for evaluate in (lambda d: mzv_eval((2,), d),
                     lambda d: zeta_euler_maclaurin(3, d),
                     lambda d: zeta_even_closed_form(4, d)):
        with pytest.raises(ValueError, match="digits must be an integer between 1 and %d"
                           % MAX_DIGITS):
            evaluate(MAX_DIGITS + 1)
        for digits in (0, 20.5):
            with pytest.raises(ValueError, match="digits must be an integer between"):
                evaluate(digits)


def test_euler_maclaurin_at_the_cap_matches_the_polylog_route():
    assert (zeta_euler_maclaurin(3, MAX_DIGITS).nstr()
            == mzv_eval((3,), MAX_DIGITS).nstr())


def test_mzv_empty_word_is_one():
    assert float(mzv_eval(Composition(), 20)) == 1.0


def test_mzv_rejects_divergent():
    with pytest.raises(ValueError):
        mzv_eval(Composition((2, 1)), 20)


@pytest.mark.parametrize("s", [2, 3, 4, 5, 8])
def test_mzv_depth_one_matches_reference(s):
    v = mzv_eval(Composition((s,)), 40)
    with mp.workdps(50):
        assert abs(v.value - mp_zeta(s)) < mpf(10) ** -38


def test_mzv_euler_identity():
    # zeta(1,2) = zeta(3)
    a = mzv_eval(Composition((1, 2)), 45)
    b = mzv_eval(Composition((3,)), 45)
    with mp.workdps(55):
        assert abs(a.value - b.value) < mpf(10) ** -43


def test_mzv_weight_four_values():
    with mp.workdps(50):
        z4 = mp_zeta(4)
        assert abs(mzv_eval(Composition((1, 1, 2)), 40).value - z4) < mpf(10) ** -38
        assert abs(mzv_eval(Composition((1, 3)), 40).value - z4 / 4) < mpf(10) ** -38
        assert abs(mzv_eval(Composition((2, 2)), 40).value - 3 * z4 / 4) < mpf(10) ** -38


def test_mzv_satisfies_stuffle_numerically():
    # zeta(2)*zeta(3) = zeta(2,3) + zeta(3,2) + zeta(5)
    with mp.workdps(50):
        z = lambda *p: mzv_eval(Composition(p), 40).value
        assert abs(z(2) * z(3) - (z(2, 3) + z(3, 2) + z(5))) < mpf(10) ** -38


@pytest.mark.parametrize("parts,digits,closed_form", [
    ((2,) * 13, 15, lambda: pi ** 26 / mp.factorial(27)),
    ((2,) * 20, 30, lambda: pi ** 40 / mp.factorial(41)),
    ((1, 3) * 7, 20, lambda: 2 * pi ** 28 / mp.factorial(30)),
], ids=["2^13", "2^20", "(1,3)^7"])
def test_mzv_digits_are_relative_for_tiny_values(parts, digits, closed_form):
    # zeta({2}^n) = pi^(2n)/(2n+1)! and zeta({1,3}^n) = 2 pi^(4n)/(4n+2)!;
    # an absolute error of about 10^-(digits+15) once spoilt the last digits
    # of these values below 10^-14
    with mp.workdps(digits + 30):
        expected = mp.nstr(closed_form(), digits)
    assert mzv_eval(parts, digits).nstr() == expected


SELF_DUAL_FAMILIES = ([("2^%d" % n, (2,) * n, 100) for n in range(1, 14)]
                      + [("(1,3)^%d" % n, (1, 3) * n, 100) for n in range(1, 7)]
                      + [("2^13", (2,) * 13, 1000), ("(1,3)^6", (1, 3) * 6, 1000)])


@pytest.mark.parametrize("parts,digits", [f[1:] for f in SELF_DUAL_FAMILIES],
                         ids=["%s-%d" % (f[0], f[2]) for f in SELF_DUAL_FAMILIES])
def test_self_dual_families_match_their_closed_forms(parts, digits):
    # zeta({2}^n) = pi^(2n)/(2n+1)! and zeta({1,3}^n) = 2 pi^(4n)/(4n+2)!
    # (Borwein-Bradley-Broadhurst-Lisonek), to a relative 10^-(digits-1) at
    # depths 1 to 13 and 2 to 12
    weight = sum(parts)
    with mp.workdps(digits + 20):
        expected = (pi ** weight / mp.factorial(weight + 1) if parts[0] == 2
                    else 2 * pi ** weight / mp.factorial(weight + 2))
        assert abs(mzv_eval(parts, digits).value - expected) < mpf(10) ** (1 - digits) * expected


def test_mzv_sums_once_at_the_first_term_precision(monkeypatch):
    # the working digits are set before the one sum, two half lookups per
    # split: digits + GUARD, plus one per leading zero of the first term
    # 1/prod_(i<=r) i^(n_i) when they exceed GUARD - 2
    precisions = []
    half = numerics._polylog_half
    monkeypatch.setattr(numerics, "_polylog_half",
                        lambda parts, dps, n: precisions.append(dps) or half(parts, dps, n))
    mzv_eval((1, 1, 1, 1, 1, 7), 20)  # first term 1/(5! 6^7): 7 zeros
    assert precisions == [20 + GUARD] * 2 * 13
    precisions.clear()
    # 1/(5! 6^11): 10 zeros, which once summed at digits + GUARD, where the
    # relative bound 2.1 (w+1) 10^-(digits+GUARD-10) exceeds 10^-digits
    mzv_eval((1, 1, 1, 1, 1, 11), 20)
    assert precisions == [20 + GUARD + 10] * 2 * 17
    precisions.clear()
    mzv_eval((2,) * 13, 15)  # first term 1/(13!)^2: 19 zeros
    assert precisions == [15 + GUARD + 19] * 2 * 27


def test_deep_words_are_refused_before_summing(monkeypatch):
    # summing ({2}^100) at 10 digits would take about 11 s, and each doubling
    # of the depth costs about 12 times more; a word is refused at the
    # precision it would sum at, before any half is summed
    kernel = []
    monkeypatch.setattr(numerics, "_polylog_fixed", lambda *args: kernel.append(args))
    cap = "would take more kernel work than the cap MAX_KERNEL_WORK = %d" % MAX_KERNEL_WORK
    start = time.perf_counter()
    with pytest.raises(ValueError, match="summing at 335 working digits at z = 1/2 " + cap
                                         + r" \(130594524 units\)$"):
        mzv_eval((2,) * 100, 10)
    with pytest.raises(ValueError, match="summing at 769 working digits at z = 1/2 " + cap
                                         + r" \(2399777113 units\)$"):
        mzv_eval((2,) * 200, 10)
    # depth 400 needs more terms than the cap leaves it, so its work is not
    # counted: the word alone, its deeper half, is refused
    with pytest.raises(ValueError, match="summing at 1757 working digits at z = 1/2 "
                                         + cap + "$"):
        mzv_eval((2,) * 400, 10)
    assert time.perf_counter() - start < 1
    assert kernel == []


def test_heavy_words_are_refused_before_their_splits_are_built(monkeypatch):
    # building every split of a weight-w word takes time that grows with w^2
    # ((10^4) at 10 digits once took 11 s to be refused), and (2, 10^9)
    # would raise 2 to the 10^9 for its first term.  A half of depth d sums
    # at least d terms, so a word whose deeper half, itself or its dual
    # (depth w - depth), is too deep for the cap is refused from its parts
    def fail(*args):
        raise AssertionError("built %s" % (args,))
    cap = (r"^summing at 20 working digits at z = 1/2 would take more kernel work than "
           "the cap MAX_KERNEL_WORK = %d$" % MAX_KERNEL_WORK)
    monkeypatch.setattr(numerics, "_path_halves", fail)
    start = time.perf_counter()
    with monkeypatch.context() as m:
        m.setattr(numerics, "_first_term_zeros", fail)
        for parts in [(10 ** 4,), (10 ** 9,), (2, 10 ** 9), (10 ** 9, 2)]:
            with pytest.raises(ValueError, match=cap):
                mzv_eval(parts, 10)
    # shallower words plan their deeper half alone before the splits: the
    # dual of (2000), (1,...,1,2), needs more terms than the cap leaves it
    for parts in [(2000,), (5000,)]:
        with pytest.raises(ValueError, match=cap):
            mzv_eval(parts, 10)
    assert time.perf_counter() - start < 0.5


def test_large_parts_count_the_size_of_their_divisors():
    # Li_(10^6)(1/2) plans 70 terms, as any Li_e(1/2) at 10 digits does, but
    # raising k^e to 6 million bits term by term would take tens of seconds:
    # the divisor bits of a part above _TABLE_EXPONENT count, so it is
    # refused by the plan
    start = time.perf_counter()
    with pytest.raises(ValueError, match="summing at 20 working digits at z = 1/2 would "
                       "take more kernel work than the cap MAX_KERNEL_WORK = %d "
                       r"\(316418759 units\)$" % MAX_KERNEL_WORK):
        _term_counts([(10 ** 6,)], 10 + GUARD)
    assert time.perf_counter() - start < 0.1
    # Li_(10^5)(1/2), 0.6-1.0 s of summing, stays below the cap
    assert _term_counts([(10 ** 5,)], 10 + GUARD) == {0: 0, 1: 70}


def test_every_word_through_weight_twelve_stays_below_the_work_cap():
    # so no word of the test suite or the benchmark sessions is refused:
    # the work grows with the digits, and every word sums at digits + GUARD,
    # so the words at one precision share their halves in the cache
    for weight in range(2, 13):
        for comp in enumerate_compositions(weight, convergent_only=True):
            assert _first_term_zeros(comp.parts) <= GUARD - 2, comp
            halves = _path_halves(comp.to_binary().letters)
            _term_counts(chain.from_iterable(halves), MAX_DIGITS + GUARD)


def test_the_truncation_search_runs_once_per_distinct_argument(monkeypatch):
    # a sweep asks for the same few (depth, dps, limit) over and over;
    # the memo runs the search once for each and evicts none of them
    asked = []
    memo = numerics._truncation_index
    monkeypatch.setattr(numerics, "_truncation_index",
                        lambda *args: asked.append(args) or memo(*args))
    memo.cache_clear()
    for comp in enumerate_compositions(8, convergent_only=True):
        mzv_eval(comp, 40)
    assert len(asked) > len(set(asked))
    assert memo.cache_info().misses == memo.cache_info().currsize == len(set(asked))


def zagier_coefficients(a, b, factor=lambda r: 1 - Fraction(1, 4 ** r)):
    """The exact coefficients c_r, r = 1..K with K = a+b+1, of Zagier's
    formula (Annals 175, 2012) for zeta(2^a, 3, 2^b) in the index order of
    this package:  sum_r c_r * pi^(2(K-r)) / (2(K-r)+1)! * zeta(2r+1), with
    c_r = 2 (-1)^r [C(2r, 2a+2) - (1 - 2^-2r) C(2r, 2b+1)].  ``factor``
    replaces (1 - 2^-2r), for a mutation test."""
    return [(r, 2 * (-1) ** r * (math.comb(2 * r, 2 * a + 2)
                                 - factor(r) * math.comb(2 * r, 2 * b + 1)))
            for r in range(1, a + b + 2)]


def zagier(a, b):
    """zeta(2^a, 3, 2^b) at the working precision, by Zagier's formula."""
    k = a + b + 1
    return mp.fsum(mpf(c.numerator) / c.denominator * pi ** (2 * (k - r))
                   / mp.factorial(2 * (k - r) + 1) * mp_zeta(2 * r + 1)
                   for r, c in zagier_coefficients(a, b))


def zagier_expression(a, b, **mutation):
    """The right side of Zagier's formula as an ``mzv`` expression: the
    word ({2}^n) is pi^(2n)/(2n+1)!, so each term is c_r*(2,...,2)*(2r+1)."""
    k = a + b + 1
    return " ".join("%s %s*%s(%d)" % ("-" if c < 0 else "+", abs(c),
                                      "(%s)*" % ",".join("2" * (k - r)) if k > r else "",
                                      2 * r + 1)
                    for r, c in zagier_coefficients(a, b, **mutation))


def test_zagier_weight_27_depth_13_at_1000_digits():
    # its one sum, at 1000 + GUARD + 20 working digits for the first term
    # 1/(5 (13!)^2), stays below MAX_KERNEL_WORK
    a, b = 4, 8
    with mp.workdps(1030):
        expected = mp.nstr(zagier(a, b), 1000)
    assert mzv_eval((2,) * a + (3,) + (2,) * b, 1000).nstr() == expected


@pytest.mark.parametrize("a,b", [(a, b) for a in range(13) for b in range(13 - a)])
def test_zagier_at_every_depth_and_position(a, b):
    # all 91 words (2^a, 3, 2^b) of depth 1 to 13; against a tolerance, since
    # a value within its bound can still print a last digit that differs from
    # the correctly rounded one, as (2,2,3,2) does at 100 digits
    value = mzv_eval((2,) * a + (3,) + (2,) * b, 100).value
    with mp.workdps(130):
        expected = zagier(a, b)
        assert abs(value - expected) < mpf(10) ** -99 * expected


# the 15 words (2^a, 3, 2^b) of weight <= 11
ZAGIER_WEIGHT_11 = [(a, b) for a in range(5) for b in range(5 - a)]


def _decomposition(capsys, expression):
    assert main(["hoffman-decompose", expression, "--json"]) == 0
    return json.loads(capsys.readouterr().out)["result"]["decomposition"]


def test_zagier_family_decomposes_exactly(capsys):
    # a witness from a theorem, not from the double-shuffle rows: each right
    # side, expanded by stuffle and decomposed, is the left word's vector
    assert len(ZAGIER_WEIGHT_11) == 15
    for a, b in ZAGIER_WEIGHT_11:
        word = "(%s)" % ",".join(["2"] * a + ["3"] + ["2"] * b)
        assert (_decomposition(capsys, zagier_expression(a, b))
                == _decomposition(capsys, word)), word


def test_zagier_family_without_its_power_of_two_factor_mismatches(capsys):
    # the mutation test of the exact witness: (1 - 2^-2r) replaced by 1
    for a, b in ZAGIER_WEIGHT_11:
        word = "(%s)" % ",".join(["2"] * a + ["3"] + ["2"] * b)
        assert (_decomposition(capsys, zagier_expression(a, b, factor=lambda r: 1))
                != _decomposition(capsys, word)), word


def test_mzv_precision_doubling_consistency():
    a = mzv_eval(Composition((2, 3)), 30)
    b = mzv_eval(Composition((2, 3)), 60)
    with mp.workdps(70):
        assert abs(a.value - b.value) < mpf(10) ** -29


def test_mzv_depth_three_value():
    # zeta(1,2,3) = 3 zeta(3)^2 - 203/48 zeta(6), to 40 digits; in this index
    # order it is zeta(3,2,1) in the usual one
    v = mzv_eval(Composition((1, 2, 3)), 40)
    with mp.workdps(60):
        closed = 3 * mp_zeta(3) ** 2 - mpf(203) / 48 * mp_zeta(6)
        assert abs(v.value - closed) < mpf(10) ** -40 * closed


@pytest.mark.parametrize("weight", range(3, 9))
def test_sum_theorem_at_every_depth(weight):
    # Granville's sum theorem: the convergent words of weight N and depth r
    # sum to zeta(N), for every depth r, checked against Euler-Maclaurin
    target = zeta_euler_maclaurin(weight, 40).value
    words = enumerate_compositions(weight, convergent_only=True)
    for depth in range(1, weight):
        with mp.workdps(60):
            total = sum(mzv_eval(c, 40).value for c in words if c.depth == depth)
            assert abs(total - target) < mpf(10) ** -38


# ------------------------------------------------------------ Monte Carlo

def test_hypercube_integrand():
    assert hypercube_integrand(0.0, 0.0) == 1.0
    assert hypercube_integrand(0.5, 0.5) == pytest.approx(1 / 0.75)


def test_hypercube_estimate_hits_zeta_two():
    est = hypercube_zeta2(10 ** 5, seed=42)
    assert abs(est.value - float(pi ** 2 / 6)) < 3 * est.stderr


def test_hypercube_is_deterministic():
    a = hypercube_zeta2(10 ** 5, seed=42)
    b = hypercube_zeta2(10 ** 5, seed=42)
    assert a.value == b.value and a.stderr == b.stderr
    assert a.value == pytest.approx(1.6474309090793844, abs=0)
    assert a.samples == 10 ** 5 and a.seed == 42


@pytest.mark.parametrize("samples", [2.9, 1, float("inf"), float("nan")])
def test_monte_carlo_refuses_a_bad_sample_count(samples):
    # 2.9 samples used to be truncated to 2; nothing is sampled now
    with pytest.raises(ValueError, match="samples must be an integer >= 2"):
        monte_carlo(None, 1, 1, samples, 1)


class Drawn(Exception):
    """Raised in place of drawing a substream: the request was accepted."""


def test_hypercube_refuses_more_samples_than_its_cap_before_drawing(monkeypatch):
    # 2 draws + 1 term a sample: 666,666,666 samples is the most the cap takes
    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(numerics, "_substream", drawn)
    assert MAX_SAMPLE_WORK // 3 == 666_666_666
    with pytest.raises(Drawn):
        hypercube_zeta2(666_666_666)
    start = time.perf_counter()
    for samples in (666_666_667, 10 ** 12):
        with pytest.raises(ValueError, match="^%d samples x \\(2 draws \\+ 1 terms per sample\\) "
                           "exceed the sampling work cap MAX_SAMPLE_WORK = %d$"
                           % (samples, MAX_SAMPLE_WORK)):
            hypercube_zeta2(samples)
    assert time.perf_counter() - start < 0.5
    # the periods benchmark's request stays well inside the cap
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    assert 5 * 3 * workloads.HYPERCUBE_SAMPLES <= MAX_SAMPLE_WORK


def test_hypercube_stderr_scales_like_sqrt_n():
    prev = hypercube_zeta2(10 ** 4, seed=42).stderr
    for exp in (5, 6):
        cur = hypercube_zeta2(10 ** exp, seed=42).stderr
        ratio = prev / cur
        assert 10 ** 0.5 / 2 < ratio < 10 ** 0.5 * 2
        prev = cur
