"""Integer relation detection by exact lattice reduction.

Given reals x1..xm known to P digits, build the integer lattice spanned by
rows (e_i | round(C x_i)) with C = 10^(P - g), reduce it with LLL over
exact rational arithmetic, its Gram-Schmidt coefficients and squared norms
taken one row at a time from the integer inner products of the rows (no
Gram-Schmidt vectors), and scan the reduced basis once, shortest rows
first, for a vector whose first m entries give a combination sum c_i x_i
cancelling almost to the working precision.  Acceptance requires the
residual below 10^-(P - g - s) (guard g = 10, slack s = 5) and max |c_i|
within the caller's height bound; coefficients are normalized to gcd 1
with positive leading entry.

When nothing is accepted the result still carries information: with the
LLL quality factor for delta = 3/4, the first reduced vector b1 satisfies
|b1| <= 2^((m-1)/2) lambda1, and an exact relation of height H yields a
lattice vector of length at most H sqrt(m + m^2/4), so any true relation
has height at least |b1| / (2^((m-1)/2) sqrt(m + m^2/4)).  A |b1| past the
float range is capped at the largest float, which keeps the floor finite
and still a lower bound.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpf

from .errors import integer_in
from .numerics import GUARD, MAX_DIGITS, BigReal

SLACK = 5
_DELTA = Fraction(3, 4)
# The most lattice work, m^4 (digits + L)^2 for m values whose largest has L
# digits before the units place, that detect reduces.
# On a 2-vCPU host a unit takes 2.8-3.7 ns from 10 values at 400 digits up
# (14 values at 400 digits: 6.2e9, 17 s) and up to 9 ns for small lattices,
# so the cap is about 20 s; the README's (1,11) example, 13 values at 420
# digits, takes 5.0e9.
MAX_LATTICE_WORK = 6 * 10 ** 9


def _gram_schmidt_row(b, k, mu, norms):
    """Set row k of the Gram-Schmidt coefficients mu and the squared norm
    B_k of integer rows from their inner products alone (Cohen, Alg. 2.6.3),
    as Fractions, given rows 0..k-1 of both:
    mu_kj = (<b_k, b_j> - sum_{i<j} mu_ji mu_ki B_i) / B_j and
    B_k = <b_k, b_k> - sum_{j<k} mu_kj^2 B_j; mu_kj stays 0 where B_j = 0."""
    row = []
    for j in range(k):
        if norms[j]:
            dot = sum(x * y for x, y in zip(b[k], b[j]))
            row.append((dot - sum(mu[j][i] * row[i] * norms[i]
                                  for i in range(j))) / norms[j])
        else:
            row.append(Fraction(0))
    mu[k] = row
    norms[k] = (Fraction(sum(x * x for x in b[k]))
                - sum(m * m * n for m, n in zip(row, norms)))


def lll_reduce(basis):
    """LLL-reduce integer basis rows with exact rational arithmetic and
    delta = 3/4, the value the height floor of ``detect`` rests on.

    Rows of unequal length and non-integral entries, infinities and NaN
    among them, raise ValueError.
    The loop keeps one invariant: the Gram-Schmidt rows below k are those
    of the current basis.  Row k is computed each time the loop reaches
    k, and a swap of rows k - 1 and k steps back to k - 1, so nothing is
    ever recomputed for the whole basis.  Size reduction b_k -= r b_j
    (j < k) leaves every Gram-Schmidt vector and norm unchanged and changes
    only row k of mu, by mu_k -= r mu_j with mu_jj = 1, which is the
    update applied in place.
    """
    b = [[integer_in(x, "lll_reduce entry") for x in row] for row in basis]
    if any(len(row) != len(b[0]) for row in b):
        raise ValueError("lll_reduce needs rows of equal length")
    mu, norms = [None] * len(b), [None] * len(b)
    k = 0
    while k < len(b):
        _gram_schmidt_row(b, k, mu, norms)
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            if abs(q) > Fraction(1, 2):
                r = int(q + Fraction(1, 2)) if q > 0 else -int(-q + Fraction(1, 2))
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= r * mu[j][i]
                mu[k][j] -= r
        if k == 0 or norms[k] >= (_DELTA - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            k -= 1
    return b


class DetectionResult(NamedTuple):
    """Outcome of a relation search: either coefficients, or a certified
    lower bound on the height of any relation that might exist."""

    coefficients: tuple | None
    residual: mpf
    threshold: mpf
    height_bound: int
    height_floor: float
    digits: int

    @property
    def found(self):
        return self.coefficients is not None

    def __bool__(self):
        return self.found

    def __str__(self):
        if self.found:
            return "relation %s, residual %s" % (list(self.coefficients),
                                                 mp.nstr(self.residual, 3))
        return ("no relation with max|c| <= %d; any exact relation has "
                "max|c| > %.3g" % (self.height_bound, self.height_floor))

    __repr__ = __str__

    def to_json_obj(self):
        return {
            "coefficients": list(self.coefficients) if self.found else None,
            "residual": mp.nstr(self.residual, 5),
            "threshold": mp.nstr(self.threshold, 3),
            "height_bound": self.height_bound,
            "height_floor": self.height_floor,
            "digits": self.digits,
        }


def _as_mpf(x):
    if isinstance(x, BigReal):
        return x.value, x.digits
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator, mp.dps
    return mpf(x), mp.dps


def check_search(m, digits, height_bound, magnitude=0):
    """The checks on a search for relations among m values at the given
    digits and height bound, made before any value is computed, and again
    by ``detect`` with the values' ``magnitude``: the digits of the largest
    |x_i| before the units place (0 when all are below 10), which lengthen
    every lattice entry.  Returns (digits, height_bound) as ints.

    ValueError unless 2 <= m <= 50, unless the height bound is an integer
    of at least 1 and the digits an integer from 1 to MAX_DIGITS, unless
    digits >= 20 + log10(height_bound) * m (below that the lattice cannot
    separate true relations from noise), and when the lattice work
    m^4 (digits + magnitude)^2 exceeds MAX_LATTICE_WORK; its message counts
    the digits + magnitude of the entries.
    """
    if not 2 <= m <= 50:
        raise ValueError("detect needs between 2 and 50 values")
    height_bound = integer_in(height_bound, "height_bound", 1)
    digits = integer_in(digits, "digits", 1, MAX_DIGITS)
    needed = 20 + math.log10(height_bound) * m
    if digits < needed:
        raise ValueError("%d digits is too low: need at least %d for %d values "
                         "at height bound %d" % (digits, math.ceil(needed), m,
                                                 height_bound))
    entry = digits + magnitude  # the digits of the largest lattice entry
    if m ** 4 * entry ** 2 > MAX_LATTICE_WORK:
        raise ValueError("reducing %d values at %d digits would take %d units of "
                         "lattice work (values^4 digits^2), more than the cap "
                         "MAX_LATTICE_WORK = %d" % (m, entry, m ** 4 * entry ** 2,
                                                    MAX_LATTICE_WORK))
    return digits, height_bound


def detect(xs, digits=None, height_bound=10 ** 6):
    """Search for small integers c with sum c_i x_i = 0.

    ``xs`` holds BigReal values (or raw mpf/floats, trusted to the current
    working precision); ``digits`` defaults to the smallest precision among
    the inputs.  The request is refused with a ValueError, before any
    reduction, where ``check_search`` refuses it, and when an input carries
    fewer digits than requested.
    """
    m = len(xs)
    values, precisions = zip(*map(_as_mpf, xs)) if m else ((), ())
    digits = min(precisions, default=None) if digits is None else digits
    magnitude = max((int(mp.log10(abs(v))) for v in values if abs(v) >= 10), default=0)
    digits, height_bound = check_search(m, digits, height_bound, magnitude)
    for p in precisions:
        if p < digits:
            raise ValueError("an input carries only %d digits, below the "
                             "requested %d" % (p, digits))
    with mp.workdps(digits + GUARD):
        scale = mpf(10) ** (digits - GUARD)
        reduced = lll_reduce([[int(i == j) for j in range(m)]
                              + [int(mp.floor(v * scale + mpf(1) / 2))]
                              for i, v in enumerate(values)])

    def norm2(row):
        return sum(x * x for x in row)

    first_norm = float(min(math.isqrt(norm2(reduced[0])), sys.float_info.max))
    height_floor = first_norm / (2 ** ((m - 1) / 2) * math.sqrt(m + m * m / 4.0))
    with mp.workdps(digits + GUARD):
        threshold = mpf(10) ** (-(digits - GUARD - SLACK))
        for coeffs in (row[:m] for row in sorted(reduced, key=norm2)):
            residual = abs(sum(c * v for c, v in zip(coeffs, values)))
            if (any(coeffs) and max(map(abs, coeffs)) <= height_bound
                    and residual < threshold):
                g = math.gcd(*coeffs)
                if next(c for c in coeffs if c) < 0:
                    g = -g
                return DetectionResult(tuple(c // g for c in coeffs), residual,
                                       threshold, height_bound, height_floor,
                                       digits)
        residual = abs(sum(c * v for c, v in zip(reduced[0][:m], values)))
    return DetectionResult(None, residual, threshold, height_bound,
                           height_floor, digits)
