"""High-precision numerics for zeta values and multiple polylogarithms.

All routines take a requested precision ``digits`` (decimal) and work
internally at ``digits + GUARD`` so that the reported digits are trusted;
results come back as ``BigReal`` values that carry their precision.  More
than MAX_DIGITS digits of a polylogarithm or multiple zeta value, or
more than MAX_EULER_MACLAURIN_DIGITS of zeta(s) by Euler-Maclaurin, raise
ValueError before any summation.  The multiple polylogarithms are summed
in fixed point: Python ints scaled by 2^B, where every truncation is a
floor with a stated error bound, converted to mpmath once at the end.
The simple-zeta routes, pi and the elementary functions use mpmath's
arbitrary-precision floats; every series, truncation bound and algorithm
is implemented here.

Evaluation strategy for a convergent multiple zeta value: encode it as an
iterated integral word over {0, 1} on the path from 0 to 1, split the path
at 1/2, and rewrite the upper half through t -> 1-t (reverse the subword
and exchange the letters).  Both halves become multiple polylogarithms at
z = 1/2, where the defining nested sums converge geometrically: about
3.33 * digits terms each, for any weight.  The polylogarithm itself is
summed by the prefix-sum dynamic program in one loop over the N terms,
costing depth * N integer operations, never N^depth, in O(depth) memory.
The two halves of every split share one scale, so their products are
summed as ints.

Simple zeta values have two independent routes for cross-checking: the
Euler-Maclaurin corrected partial sum (any integer s >= 2), and for even s
the closed form (2 pi)^s |B_s| / (2 s!) from the Bernoulli numbers, which
are generated exactly by their convolution recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from mpmath import mp, mpf

from .errors import _Immutable, integral
from .words import Composition, letters_to_parts

GUARD = 10
# Larger requests fail at once rather than run for minutes: at 2000 digits
# zeta(3,9) takes about 2 s on a 2-vCPU host, and the time grows about
# fourfold each time the digits double.
MAX_DIGITS = 2000
# The Euler-Maclaurin route of zeta(s) grows faster, about ninefold each
# time the digits double: 1000 digits take about 3.5 s in a fresh process,
# 2000 digits about 40 s.
MAX_EULER_MACLAURIN_DIGITS = 1000
DEFAULT_SEED = 42


class BigReal(_Immutable):
    """A real number rounded to an explicit number of decimal digits.

    ``value`` is a Fraction or anything mpf reads, such as an exact
    (mantissa, exponent) pair of ints, which is rounded once.
    """

    __slots__ = ("value", "digits")

    def __init__(self, value, digits):
        digits = int(digits)
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if isinstance(value, Fraction):
            with mp.workdps(digits):
                value = mpf(value.numerator) / value.denominator
        else:
            with mp.workdps(digits):
                value = mpf(value)
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


_BERNOULLI = [Fraction(1)]


def bernoulli(n):
    """The n-th Bernoulli number as an exact Fraction.

    Multiplying the generating series by (e^t - 1) and matching
    coefficients gives sum_{k=0}^{n} C(n+1, k) B_k = [n == 0], hence the
    recurrence solved here.  Convention: B_1 = -1/2.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        acc = sum(math.comb(m + 1, k) * _BERNOULLI[k] for k in range(m))
        _BERNOULLI.append(Fraction(-acc, m + 1))
    return _BERNOULLI[n]


def zeta_even_closed_form(s, digits):
    """zeta(s) for even s >= 2 via (2 pi)^s |B_s| / (2 s!)."""
    if s < 2 or s % 2:
        raise ValueError("closed form needs an even integer s >= 2")
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

    By default the cutoff and the number of correction terms are chosen so
    the first omitted term is below 10^-(digits+guard).  Passing ``cutoff``
    and ``correction_terms`` explicitly returns that specific truncation
    with no accuracy promise (the corrections are even-indexed Bernoulli
    terms: correction_terms=4 means through the B_8, n^(-s-7) term).
    More than MAX_EULER_MACLAURIN_DIGITS digits raise ValueError before any
    summation, and so does a non-integral s.
    """
    s = integral(s, "need an integer s >= 2")
    if s < 2:
        raise ValueError("need an integer s >= 2")
    _check_digits(digits, MAX_EULER_MACLAURIN_DIGITS)
    target = digits + GUARD
    n = cutoff if cutoff is not None else max(12, target)
    with mp.workdps(target + 10):
        eps = mpf(10) ** (-target)
        while True:
            partial = sum(mpf(k) ** (-s) for k in range(1, n + 1))
            value = partial + mpf(n) ** (1 - s) / (s - 1) - mpf(n) ** (-s) / 2
            ok = True
            prev_mag = mp.inf
            j = 1
            while True:
                if correction_terms is not None and j > correction_terms:
                    break
                b = bernoulli(2 * j)
                rising = 1
                for i in range(2 * j - 1):
                    rising *= s + i
                term = (mpf(b.numerator) / b.denominator / mp.factorial(2 * j)
                        * rising * mpf(n) ** (-s - 2 * j + 1))
                mag = abs(term)
                if correction_terms is None:
                    if mag < eps:
                        break
                    if mag >= prev_mag:
                        ok = False  # divergent tail reached before the target
                        break
                value += term
                prev_mag = mag
                j += 1
            if ok or correction_terms is not None:
                break
            n *= 2
    return BigReal(value, digits)


def _truncation_index(parts, z, dps):
    """Smallest N with the series tail below 10^-dps.

    The inner sums are bounded by k^(depth-1), so for z < 1 the tail after N
    is at most (N+1)^(r-1) z^(N+1) (r-1)! / (1-z)^r; for z = 1 (convergent
    words only) it is at most N^(r-w) / (w-r), which converges so slowly
    that a hard cap guards against infeasible requests.
    """
    r = len(parts)
    if z == 1:
        w = sum(parts)
        # Guard digits exist for round-off, not truncation: aiming the tail
        # at the padded precision would cost 10^GUARD times more terms, so
        # target the delivered digits plus a small slack instead.
        target = dps - GUARD + 2
        log_n = (target - math.log10(w - r)) / (w - r)
        if log_n > 7:
            raise ValueError("z=1 converges polynomially; %d digits would need "
                             "about 10^%.1f terms" % (dps - GUARD, log_n))
        return int(10 ** log_n) + 2
    log_z = math.log10(float(z))
    log_fact = math.log10(math.factorial(r - 1)) if r > 1 else 0.0
    log_1mz = math.log10(1.0 - float(z))

    def log_bound(n):
        return (r - 1) * math.log10(n + 1) + (n + 1) * log_z + log_fact - r * log_1mz

    n = max(8, int(dps / -log_z) + 4)
    while log_bound(n) > -(dps + 1):
        n += max(4, n // 8)
    return n


def _scale_bits(dps):
    """Fraction bits B of the fixed-point values at dps digits: one unit,
    2^-B, is below 2^-16 * 10^-dps."""
    return math.ceil(dps * math.log2(10)) + 16


def _polylog_fixed(parts, z, bits, n):
    """The first n terms of Li_{parts}(z) = sum_{k1<...<kr} z^kr / prod ki^ni
    as an int scaled by 2^bits, for a nonempty ``parts`` and a Fraction z in
    (0, 1].

    One loop over k keeps a running prefix sum per level: the column of
    level j at k is the prefix sum of level j-1 up to k-1, floor-divided by
    k^nj (level 0 is the constant 2^bits), so memory is O(depth) for any n.
    The last column is weighted by z^k: a right shift by s*k when z = 2^-s,
    else a running weight 2^bits z^k updated by ``* p // q``.

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
    sums = [0] * len(inner)
    total, weight = 0, one
    for k in range(1, n + 1):
        prev = one
        for j, nj in enumerate(inner):
            prev, sums[j] = sums[j], sums[j] + prev // k ** nj
        if shift:
            total += prev // k ** last >> s * k
        else:
            weight = weight * p // q
            total += prev // k ** last * weight >> bits
    return total


def _polylog_raw(parts, z, dps):
    """Li_{parts}(z) at dps digits as an int scaled by 2^_scale_bits(dps).

    ``z`` is an exact Fraction in (0, 1]; the scale depends on dps alone,
    so all values at one precision share it.  The series is cut where its
    tail drops below 10^-(dps+1) (``_truncation_index``), and the kernel
    runs enough bits finer that its error bound (``_polylog_fixed``) is
    below one unit of the shared scale; the final shift loses less than
    one more.  The result is therefore below the truncated sum by less
    than 2 units.
    """
    bits = _scale_bits(dps)
    if not parts:
        return 1 << bits
    n = _truncation_index(parts, z, dps)
    extra = ((len(parts) + 1 + z.denominator) * n).bit_length()
    return _polylog_fixed(parts, z, bits + extra, n) >> extra


# Half-path values, ints at the scale of their dps (a few hundred bytes
# each).  At least four times the 986 half-path values of the numeric-w10
# benchmark session; a sweep over every convergent weight-12 word needs
# 3,072.
@lru_cache(maxsize=2 ** 12)
def _polylog_half(parts, dps):
    return _polylog_raw(parts, Fraction(1, 2), dps)


def _check_digits(digits, cap=MAX_DIGITS):
    if not 1 <= digits <= cap:
        raise ValueError("digits must be between 1 and %d, got %d"
                         % (cap, digits))


def multiple_polylog(comp, z, digits):
    """The one-variable multiple polylogarithm sum_{k1<...<kr} z^{kr} / prod ki^{ni}.

    ``z`` may be a Fraction, int or float with 0 < z < 1, or exactly 1 when
    the composition is convergent.  Divergent compositions (last part 1)
    are fine for z < 1, where convergence is geometric.  A raw tuple goes
    through ``Composition``, so parts below 1 raise ValueError, as do more
    than MAX_DIGITS digits.
    """
    comp = comp if isinstance(comp, Composition) else Composition(comp)
    zq = Fraction(z)  # exact for int, Fraction and (dyadic) float inputs
    if not 0 < zq <= 1:
        raise ValueError("z must satisfy 0 < z <= 1, got %s" % (z,))
    if zq == 1 and not comp.is_convergent:
        raise ValueError("the series diverges at z = 1 for %s" % (comp,))
    _check_digits(digits)
    dps = digits + GUARD
    # mpf reads an (int, exponent) pair exactly and rounds it once
    return BigReal((_polylog_raw(comp.parts, zq, dps), -_scale_bits(dps)), digits)


def mzv_eval(comp, digits):
    """Evaluate a convergent multiple zeta value to the requested digits.

    Splits the iterated-integral path at 1/2; each half is a multiple
    polylogarithm at z = 1/2 (the upper half after t -> 1-t), so the work
    grows linearly in digits and weight.  Every half is at most 1 and
    less than 2 units of the shared scale 2^-B below its truncated sum, so
    each product, summed as an int at scale 2^(2B), is less than 4 units
    of 2^-B below the product of the truncated halves; the sum is rounded
    to digits once.  More than MAX_DIGITS digits raise ValueError before
    any summation.
    """
    comp = comp if isinstance(comp, Composition) else Composition(comp)
    if not comp.is_convergent:
        raise ValueError("%s diverges; regularize before evaluating" % (comp,))
    _check_digits(digits)
    dps = digits + GUARD
    letters = comp.to_binary().letters
    total = 0
    for k in range(len(letters) + 1):
        # both path pieces of a convergent word start with the letter 1
        lower = letters_to_parts(letters[:k])
        upper = letters_to_parts(tuple(1 - a for a in reversed(letters[k:])))
        total += _polylog_half(lower, dps) * _polylog_half(upper, dps)
    return BigReal((total, -2 * _scale_bits(dps)), digits)


def hypercube_integrand(x, y):
    """The two-dimensional integrand 1/(1-xy) whose unit-square integral is zeta(2)."""
    return 1.0 / (1.0 - x * y)


_BATCH = 1 << 16


def _substream(seed, index):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))


def monte_carlo(integrand, dimension, samples, seed):
    """Monte-Carlo estimate of an integral over the unit cube of a dimension.

    ``integrand`` maps a (count, dimension) array of uniform points to their
    count values.  The sample budget is split into fixed-size batches, each
    drawn from its own seed-derived substream, so the combined estimate
    depends only on (samples, seed) and not on how the batches are
    scheduled.
    """
    samples = integral(samples, "need at least 2 samples")
    if samples < 2:
        raise ValueError("need at least 2 samples")
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
    """Monte-Carlo estimate of the integral of 1/(1-xy) over the unit square."""
    return monte_carlo(lambda u: hypercube_integrand(u[:, 0], u[:, 1]), 2, samples, seed)
