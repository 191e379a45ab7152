"""High-precision numerics for zeta values and multiple polylogarithms.

All routines take a requested precision ``digits`` (decimal) and work
internally at ``digits + GUARD`` so that the reported digits are trusted;
results come back as ``BigReal`` values that carry their precision.  More
than MAX_DIGITS digits, by any route, raise ValueError before any
summation, as does a polylogarithm sum, for any z, whose kernel work
exceeds MAX_KERNEL_WORK: per term, its depth weighted by the scale's size
plus a constant for the loop, 0.03-0.15 us a unit.  The term counts
are found once, in that check, and handed to the kernel.  The digits are
relative, however small the value: the first series term, a lower bound
of the value, sets the working digits before the one sum.
The multiple polylogarithms are summed in fixed point: Python ints scaled
by 2^B, where every truncation is a floor with a stated error bound,
converted to mpmath once at the end.
The simple-zeta routes, pi and the elementary functions use mpmath's
arbitrary-precision floats; every series, truncation bound and algorithm
is implemented here.

Evaluation strategy for a convergent multiple zeta value: encode it as an
iterated integral word over {0, 1} on the path from 0 to 1, split the path
at 1/2, and rewrite the upper half through t -> 1-t (reverse the subword
and exchange the letters).  Both halves become multiple polylogarithms at
z = 1/2, where the defining nested sums converge geometrically: about
3.33 * digits terms each, for any weight.  A multiple polylogarithm at
z = 1 is the multiple zeta value of its word and is evaluated the same way;
a series is summed only for 0 < z < 1.  The polylogarithm itself is
summed by the prefix-sum dynamic program, costing depth * N integer
operations, never N^depth: the N terms go in blocks of _BLOCK, each level
of a block is one pass over its column, and memory is O(depth * _BLOCK).
The two halves of every split share one scale, so their products are
summed as ints.

Simple zeta values have two independent routes for cross-checking: the
Euler-Maclaurin corrected partial sum (any integer s >= 2), and for even s
the closed form (2 pi)^s |B_s| / (2 s!) from the Bernoulli numbers, which
are generated exactly from the integer tangent numbers.

numpy is imported by ``_substream`` on the first Monte Carlo draw, so
everything else here runs without loading it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import floordiv, rshift
from typing import NamedTuple

from mpmath import mp, mpf

from .errors import MAX_DIGITS, _Immutable, check, integer_in
from .words import Composition, letters_to_parts

GUARD = 10
DEFAULT_SEED = 42


class BigReal(_Immutable):
    """A real number printed to an explicit number of decimal digits.

    ``value`` is a Fraction or anything mpf reads, such as an exact
    (mantissa, exponent) pair of ints.  It is kept at digits + GUARD, so
    that printing rounds it to the digits once.
    """

    __slots__ = ("value", "digits")

    def __init__(self, value, digits):
        digits = integer_in(digits, "digits", 1)
        with mp.workdps(digits + GUARD):
            value = mp.convert(value) if isinstance(value, Fraction) else mpf(value)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "digits", digits)

    def nstr(self, significant=None):
        return mp.nstr(self.value, significant or self.digits)

    def __float__(self):
        return float(self.value)

    def __str__(self):
        return self.nstr()

    def __repr__(self):
        return "BigReal(%r, digits=%d)" % (self.nstr(), self.digits)

    def to_json_obj(self):
        return {"value": self.nstr(), "digits": self.digits}


class MonteCarloEstimate(NamedTuple):
    value: float
    stderr: float
    samples: int
    seed: int


# The largest cutoff the Euler-Maclaurin route picks by default, at
# MAX_DIGITS: it bounds an explicit cutoff and the Bernoulli index.
_MAX_CUTOFF = max(12, MAX_DIGITS + GUARD)
# B_0, B_2, ..., B_2(k-1) as far as any call has asked, and the row
# [0, h_1, ..., h_(k-1)] of the tangent-number triangle behind the last.
_BERNOULLI = [Fraction(1), Fraction(1, 6)]
_TANGENT_ROW = [0, 1]


def bernoulli(n):
    """The n-th Bernoulli number as an exact Fraction.

    Convention: B_1 = -1/2; the other odd ones vanish.  The even ones come
    from the tangent numbers T_k of tan x = sum_k T_k x^(2k-1) / (2k-1)!
    as B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), and the T_k from the
    integer triangle of Brent and Harvey ("Fast computation of Bernoulli,
    Tangent and Secant numbers", 2011) built one row at a time: row k is
    h_i = (k-i) h'_i + (k-i+2) h_(i-1) for 1 <= i <= k from row k-1, with
    h_0 = h'_k = 0, and T_k = h_k.  So the table grows to the largest index
    asked for, at O(k) integer operations per number.  An index beyond the
    largest Euler-Maclaurin cutoff, max(12, MAX_DIGITS + GUARD), which
    bounds what any route can need, raises ValueError, as does a
    non-integral one.
    """
    n = integer_in(n, "index", 0, _MAX_CUTOFF)
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    for k in range(len(_BERNOULLI), n // 2 + 1):
        row = _TANGENT_ROW + [0]
        for i in range(1, k + 1):
            row[i] = (k - i) * row[i] + (k - i + 2) * row[i - 1]
        _BERNOULLI.append(Fraction(2 * k * row[k], (-4) ** k * (1 - 4 ** k)))
        _TANGENT_ROW[:] = row  # after the slow Fraction, so the two stay in step
    return _BERNOULLI[n // 2]


def zeta_even_closed_form(s, digits):
    """zeta(s) for even s >= 2 via (2 pi)^s |B_s| / (2 s!).

    s is bounded as the index of ``bernoulli``, and more than MAX_DIGITS
    digits raise ValueError before any work.
    """
    s = integer_in(s, "s", 2)
    if s % 2:
        raise ValueError("closed form needs an even integer s >= 2")
    digits = integer_in(digits, "digits", 1, MAX_DIGITS)
    b = bernoulli(s)
    with mp.workdps(digits + GUARD):
        value = ((2 * mp.pi) ** s * abs(mpf(b.numerator)) / b.denominator
                 / (2 * mp.factorial(s)))
    return BigReal(value, digits)


def zeta_euler_maclaurin(s, digits, cutoff=None, correction_terms=None):
    """zeta(s) for integer s >= 2 by the Euler-Maclaurin corrected partial sum.

    With cutoff n, the approximation is

        sum_{k<=n} k^-s + n^(1-s)/(s-1) - n^-s/2
        + sum_j B_{2j}/(2j)! * (s)(s+1)...(s+2j-2) * n^(-s-2j+1).

    By default n = max(12, digits + GUARD), and correction terms are added
    until the first one below 10^-(digits+GUARD), which is left out.  For
    any n >= digits + GUARD that term comes at some 2j < n: since
    |B_2j|/(2j)! = 2 zeta(2j)/(2 pi)^(2j), the terms shrink by about
    ((s+2j)/(2 pi n))^2 per step, and some term with 2j < n is below 10^-n
    for every s >= 2 (checked for every n from 11 to the largest cutoff;
    s = 2 is the worst case).  The sum stops at 2j = n, and a term still
    above the target there raises InvariantError.

    An explicit ``cutoff`` is used as given, from digits + GUARD up to the
    largest default, max(12, MAX_DIGITS + GUARD), or from 1 when
    ``correction_terms`` is also given.  Then exactly that many terms are
    added (correction_terms=4 means through the B_8, n^(-s-7) term), at
    most half the largest cutoff, with no accuracy promise.  Other values,
    non-integral ones, a non-integral s and more than MAX_DIGITS digits
    raise ValueError before any summation.
    """
    s = integer_in(s, "s", 2)
    digits = integer_in(digits, "digits", 1, MAX_DIGITS)
    target = digits + GUARD
    n = (max(12, target) if cutoff is None else integer_in(
        cutoff, "cutoff", target if correction_terms is None else 1, _MAX_CUTOFF))
    terms = (n // 2 if correction_terms is None else
             integer_in(correction_terms, "correction_terms", 0, _MAX_CUTOFF // 2))
    with mp.workdps(target + 10):
        eps = mpf(10) ** (-target)
        partial = sum(mpf(k) ** (-s) for k in range(1, n + 1))
        value = partial + mpf(n) ** (1 - s) / (s - 1) - mpf(n) ** (-s) / 2
        rising = s  # (s)(s+1)...(s+2j-2)
        for j in range(1, terms + 1):
            b = bernoulli(2 * j)
            term = (mpf(b.numerator) / b.denominator / mp.factorial(2 * j)
                    * rising * mpf(n) ** (-s - 2 * j + 1))
            if correction_terms is None and abs(term) < eps:
                break
            value += term
            rising *= (s + 2 * j - 1) * (s + 2 * j)
        else:
            check(correction_terms is not None, "Euler-Maclaurin terms for "
                  "zeta(%d) at n = %d stayed above 10^-%d" % (s, n, target))
    return BigReal(value, digits)


@lru_cache(maxsize=2 ** 10)
def _truncation_index(r, z, dps, limit):
    """An N with the tail of a depth-r series below 10^-(dps+1), for
    0 < z < 1, or None when no N up to ``limit`` will do.

    The inner sums are bounded by k^(r-1), so the tail after N is at
    most (N+1)^(r-1) z^(N+1) (r-1)! / (1-z)^r.  N is the first value of
    the search that passes this bound: it starts near dps / -log10(z) and
    steps by an eighth of N, so it may exceed the smallest N that passes
    by up to about an eighth.  Memoized, as a sweep asks for the same few
    arguments over and over.
    """
    p, q = z.numerator, z.denominator
    # -log10(z) from the ints, and near 1 from 1 - z = (q-p)/q: float(z)
    # rounds to 1 there
    decay = (math.log10(q) - math.log10(p) if 2 * p <= q
             else -math.log1p((p - q) / q) / math.log(10))
    log_fact = math.log10(math.factorial(r - 1))
    log_1mz = math.log10(q - p) - math.log10(q)
    n = max(8, int(dps / decay) + 4) if decay * limit > dps else limit + 1
    while n <= limit and ((r - 1) * math.log10(n + 1) - (n + 1) * decay
                          + log_fact - r * log_1mz > -(dps + 1)):
        n += max(4, n // 8)
    return n if n <= limit else None


# Kernel work units: per series term, the depth weighted by 1 + B/256 for a
# scale of B bits, plus 3 for the loop itself.  On a 2-vCPU host a unit
# takes 0.03-0.15 us: 0.03-0.07 for Li_2(1/2), 0.06-0.11 for the half
# Li_(3,9)(1/2) at 300 and 2000 digits, 0.09-0.13 for Li_2(1 - 10^-4), whose
# last level is summed term by term (zeta(3,9) at MAX_DIGITS: 1.9e7 units
# in 1.4 s), so the cap is about 2-10 s of summing.  Deep words cost less
# than counted, as their deep levels hold small ints.  mzv_eval counts each
# distinct half once, as its cache sums it once; the largest request of
# weight <= 12, (1,2,1,1,7) at MAX_DIGITS, takes 2.2e7.
MAX_KERNEL_WORK = 7 * 10 ** 7


def _term_counts(series, z, dps):
    """The term count of each depth, {depth: N}, for summing the part tuples
    ``series`` at z and dps, each from ``_truncation_index`` with the terms
    the cap leaves for that depth.  A sum whose kernel work, cached values
    included, would exceed MAX_KERNEL_WORK raises ValueError before any
    summation, so whether a request is refused depends on the request alone.
    """
    bits = _scale_bits(dps)
    terms, work = {0: 0}, 0  # work in 1/256 units
    for r, count in Counter(map(len, series)).items():
        if r and work is not None:
            cost = count * (r * (256 + bits) + 3 * 256)
            terms[r] = _truncation_index(r, z, dps, MAX_KERNEL_WORK * 256 // cost)
            work = None if terms[r] is None else work + terms[r] * cost
    if work is None or work > MAX_KERNEL_WORK * 256:
        raise ValueError("summing at %d working digits at z = %s would take more "
                         "kernel work than the cap MAX_KERNEL_WORK = %d%s"
                         % (dps, z, MAX_KERNEL_WORK,
                            "" if work is None else " (%d units)" % (work // 256)))
    return terms


def _scale_bits(dps):
    """Fraction bits B of the fixed-point values at dps digits: one unit,
    2^-B, is below 2^-16 * 10^-dps."""
    return math.ceil(dps * math.log2(10)) + 16


# The kernel sums the terms in blocks of _BLOCK consecutive k, one level at
# a time, and takes its divisors k^e from full-block tables shared by every
# sum, whatever its term count: a shorter block stops at its own length.
# Tables cover k < _TABLE_TERMS = 2^13, every term of a sum at z = 1/2 up to
# MAX_DIGITS (at most 7,545), and parts e <= _TABLE_EXPONENT; other divisors
# are raised to their powers term by term, as the terms past 2^13 of a sum
# near z = 1 are used once, and the table of a larger part would hold ints
# of KBs each for sums of a few dozen terms.  The cache is bounded by 512
# entries, enough for every block and part of a weight-12 word at
# MAX_DIGITS (30 blocks).  An entry holds _BLOCK ints of at most 13e bits:
# at most 25 KB, so 13 MB for the whole cache.
_BLOCK = 256
_TABLE_TERMS = 2 ** 13
_TABLE_EXPONENT = 32


@lru_cache(maxsize=512)
def _powers(e, start):
    """k^e for the _BLOCK values of k from ``start``."""
    return tuple(k ** e for k in range(start, start + _BLOCK))


def _divisors(e, start, m):
    """k^e for the m values of k from ``start``, m <= _BLOCK."""
    if e <= _TABLE_EXPONENT and start < _TABLE_TERMS:
        return _powers(e, start)
    return map(pow, range(start, start + m), repeat(e))


def _polylog_fixed(parts, z, bits, n):
    """The first n terms of Li_{parts}(z) = sum_{k1<...<kr} z^kr / prod ki^ni
    as an int scaled by 2^bits, for a nonempty ``parts`` and a Fraction z in
    (0, 1].

    The column of level j at k is the prefix sum of level j-1 up to k-1,
    floor-divided by k^nj (level 0 is the constant 2^bits).  The terms go
    in blocks of _BLOCK values of k; within a block each level is one
    accumulate over the column, started from the level's prefix sum at
    the end of the previous block, so memory is O(depth * _BLOCK) for any n.
    The last column is weighted by z^k: a right shift by s*k when z = 2^-s,
    taken before the division by k^nr (the same floor, as both are floors
    of a nonnegative int), else a running weight 2^bits z^k updated by
    ``* p // q``.

    Truncation error, in units 2^-bits: every floor loses less than one
    unit, a level-j column holds at most 2^bits and is below its exact
    value by less than j units, so the result never exceeds the n-term sum
    and lies below it by less than depth * sum_{k<=n} z^k + n units.  That
    is at most depth + n at z = 1/2 and (depth + 1) * n at z = 1.  For
    other z = p/q the running weight is low by less than 1/(1-z) <= q units,
    which makes it less than (depth + 1 + q) * n.
    """
    one = 1 << bits
    p, q = z.numerator, z.denominator
    s = q.bit_length() - 1
    shift = p == 1 and q == 1 << s
    *inner, last = parts
    carries = [0] * len(inner)
    total, weight = 0, one
    for start in range(1, n + 1, _BLOCK):
        m = min(_BLOCK, n + 1 - start)
        prevs = repeat(one, m)
        for j, nj in enumerate(inner):
            prevs = list(accumulate(map(floordiv, prevs, _divisors(nj, start, m)),
                                    initial=carries[j]))
            carries[j] = prevs.pop()
        divisors = _divisors(last, start, m)
        if not shift:
            for prev, divisor in zip(prevs, divisors):
                weight = weight * p // q
                total += prev // divisor * weight >> bits
        elif s:
            total += sum(map(floordiv, map(rshift, prevs, range(s * start, s * (start + m), s)),
                             divisors))
        else:  # z = 1
            total += sum(map(floordiv, prevs, divisors))
    return total


def _polylog_raw(parts, z, dps, n):
    """Li_{parts}(z) at dps digits as an int scaled by 2^_scale_bits(dps).

    ``z`` is an exact Fraction in (0, 1); the scale depends on dps alone,
    so all values at one precision share it.  The series is cut after the
    n terms that ``_term_counts`` found, where its tail is below
    10^-(dps+1), and the kernel runs enough bits finer that its error bound
    (``_polylog_fixed``) is below one unit of the shared scale; the final
    shift loses less than one more.  The result is therefore below the truncated sum by less
    than 2 units.
    """
    bits = _scale_bits(dps)
    if not parts:
        return 1 << bits
    extra = ((len(parts) + 1 + z.denominator) * n).bit_length()
    return _polylog_fixed(parts, z, bits + extra, n) >> extra


# Half-path values, ints at the scale of their dps (a few hundred bytes
# each).  At least four times the 986 half-path values of the numeric-w10
# benchmark session; a sweep over every convergent weight-12 word needs
# 3,072.
@lru_cache(maxsize=2 ** 12)
def _polylog_half(parts, dps, n):
    return _polylog_raw(parts, Fraction(1, 2), dps, n)


def _first_term_zeros(parts, z):
    """floor(-log10 t1) for the first term t1 = z^r / prod_(i<=r) i^(n_i)
    of Li_parts(z) at a Fraction or int z in (0, 1]: since t1 bounds the
    sum from below, this bounds the value's leading zero digits from above.

    Exact from ints, as floor(log10 floor(1/t1)) counted up from below,
    because 0.30102 < log10 2."""
    r = len(parts)
    inverse = (z.denominator ** r * math.prod(i ** n for i, n in enumerate(parts, 1))
               // z.numerator ** r)
    e = (inverse.bit_length() - 1) * 30102 // 100000
    while 10 ** (e + 1) <= inverse:
        e += 1
    return e


def multiple_polylog(comp, z, digits):
    """The one-variable multiple polylogarithm sum_{k1<...<kr} z^{kr} / prod ki^{ni}.

    ``z`` may be a Fraction, int or float with 0 < z <= 1.  At z = 1 the
    value is the multiple zeta value of the composition, returned by
    ``mzv_eval`` (a divergent one raises ValueError there).  For z < 1 the
    series is summed, divergent compositions (last part 1) included, since
    convergence is geometric.  The digits are relative for every z.  A raw
    tuple goes through ``Composition``, so parts below 1 raise ValueError,
    as do more than MAX_DIGITS digits and a series that would take more
    kernel work than MAX_KERNEL_WORK, just below z = 1 included.
    """
    comp = comp if isinstance(comp, Composition) else Composition(comp)
    zq = Fraction(z)  # exact for int, Fraction and (dyadic) float inputs
    if not 0 < zq <= 1:
        raise ValueError("z must satisfy 0 < z <= 1, got %s" % (z,))
    if zq == 1:
        return mzv_eval(comp, digits)
    digits = integer_in(digits, "digits", 1, MAX_DIGITS)
    # one more working digit per leading zero of the first term makes the
    # error relative
    dps = digits + GUARD + _first_term_zeros(comp.parts, zq)
    n = _term_counts([comp.parts], zq, dps)[len(comp.parts)]
    # mpf reads an (int, exponent) pair exactly and rounds it once
    return BigReal((_polylog_raw(comp.parts, zq, dps, n), -_scale_bits(dps)), digits)


def _path_halves(letters):
    """The (lower, upper) part tuples of each split of a convergent binary
    word's path at 1/2, the upper one read back through t -> 1-t."""
    # both path pieces of a convergent word start with the letter 1
    return [(letters_to_parts(letters[:k]),
             letters_to_parts(tuple(1 - a for a in reversed(letters[k:]))))
            for k in range(len(letters) + 1)]


def mzv_eval(comp, digits):
    """Evaluate a convergent multiple zeta value to the requested digits.

    Splits the iterated-integral path at 1/2; each half is a multiple
    polylogarithm at z = 1/2 (the upper half after t -> 1-t), so the work
    grows linearly in digits and weight.  Every half is at most 1 and
    less than 2 units of the shared scale 2^-B below its truncated sum, so
    each product, summed as an int at scale 2^(2B), is less than 4 units
    of 2^-B below the product of the truncated halves; the sum is rounded
    to digits once.

    The digits are relative.  The working digits dps are set once, before
    the one sum: digits + GUARD, plus the first series term's leading zeros
    L = floor(-log10 (1/prod_(i<=r) i^(n_i))) when L > GUARD - 2.  Each
    half's tail is below 10^-(dps+1), so over the w + 1 splits of a weight-w
    word the sum is below the value by less than 0.21 (w+1) 10^-dps, and
    since the value is above 10^-(L+1), the relative error is below
    2.1 (w+1) 10^-(dps-L): below 2.1 (w+1) 10^-(digits+2) up to the
    threshold and 2.1 (w+1) 10^-(digits+GUARD) past it.  Every word of
    weight <= 12 has L <= 8, so its relative error is below 0.3 * 10^-digits.
    More than MAX_DIGITS digits raise ValueError before any summation, as
    does a sum that would take more kernel work than MAX_KERNEL_WORK at dps:
    ({2}^100) and ({2}^200) at 10 digits are refused at once.
    """
    comp = comp if isinstance(comp, Composition) else Composition(comp)
    if not comp.is_convergent:
        raise ValueError("%s diverges; regularize before evaluating" % (comp,))
    digits = integer_in(digits, "digits", 1, MAX_DIGITS)
    # Up to GUARD - 2 leading zeros every word sums at digits + GUARD, so
    # words share their halves in the _polylog_half cache: in the 40-digit
    # sweep of the 256 weight-10 words, 4,864 of 5,632 lookups hit.
    zeros = _first_term_zeros(comp.parts, 1)
    dps = digits + GUARD + (zeros if zeros > GUARD - 2 else 0)
    halves = _path_halves(comp.to_binary().letters)
    # the _polylog_half cache sums each distinct half once per request
    n = _term_counts(set(chain.from_iterable(halves)), Fraction(1, 2), dps)
    total = sum(_polylog_half(lower, dps, n[len(lower)])
                * _polylog_half(upper, dps, n[len(upper)]) for lower, upper in halves)
    return BigReal((total, -2 * _scale_bits(dps)), digits)


def hypercube_integrand(x, y):
    """The two-dimensional integrand 1/(1-xy) whose unit-square integral is zeta(2)."""
    return 1.0 / (1.0 - x * y)


_BATCH = 1 << 16
# Sampling work: per sample, one unit per coordinate drawn and one per term
# of the integrand.  A unit takes about 6 ns (4-8 ns over runs) on a 2-vCPU
# host, for the unit square (2 + 1 a sample) and the wheels K4, W4 and W5
# (5 + 16 to 9 + 121) alike, so the cap is about 12 s of sampling.
MAX_SAMPLE_WORK = 2 * 10 ** 9


def _substream(seed, index):
    import numpy as np
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))


def monte_carlo(integrand, dimension, terms, samples, seed):
    """Monte-Carlo estimate of an integral over the unit cube of a dimension.

    ``integrand`` maps a (count, dimension) array of uniform points to their
    count values, summing ``terms`` terms per point.  The sample budget is
    split into fixed-size batches, each drawn from its own seed-derived
    substream, so the combined estimate depends only on (samples, seed) and
    not on how the batches are scheduled.  Sampling work
    samples x (dimension + terms) above MAX_SAMPLE_WORK raises ValueError
    before any substream is drawn.
    """
    samples, seed = integer_in(samples, "samples", 2), integer_in(seed, "seed", 0)
    if samples * (dimension + terms) > MAX_SAMPLE_WORK:
        raise ValueError("%d samples x (%d draws + %d terms per sample) exceed the "
                         "sampling work cap MAX_SAMPLE_WORK = %d"
                         % (samples, dimension, terms, MAX_SAMPLE_WORK))
    s1 = 0.0
    s2 = 0.0
    done = 0
    batch = 0
    while done < samples:
        count = min(_BATCH, samples - done)
        f = integrand(_substream(seed, batch).random((count, dimension)))
        s1 += float(f.sum())
        s2 += float((f * f).sum())
        done += count
        batch += 1
    mean = s1 / samples
    var = max(s2 / samples - mean * mean, 0.0) * samples / (samples - 1)
    return MonteCarloEstimate(mean, math.sqrt(var / samples), samples, seed)


def hypercube_zeta2(samples, seed=DEFAULT_SEED):
    """Monte-Carlo estimate of the integral of 1/(1-xy) over the unit square:
    two draws and one integrand term a sample, so ``monte_carlo`` refuses
    more than MAX_SAMPLE_WORK // 3 samples."""
    return monte_carlo(lambda u: hypercube_integrand(u[:, 0], u[:, 1]), 2, 1, samples, seed)
