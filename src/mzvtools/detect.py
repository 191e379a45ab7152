"""Integer relation detection by exact lattice reduction.

Given reals x1..xm known to P digits, build the integer lattice spanned by
rows (e_i | round(C x_i)) with C = 10^(P - g), reduce it with LLL over
exact rational arithmetic, and scan the reduced basis for a vector whose
first m entries give a combination sum c_i x_i cancelling almost to the
working precision.  Acceptance requires the residual below
10^-(P - g - s) (guard g = 10, slack s = 5) and max |c_i| within the
caller's height bound; coefficients are normalized to gcd 1 with positive
leading entry.

When nothing is accepted the result still carries information: with the
LLL quality factor for delta = 3/4, the first reduced vector b1 satisfies
|b1| <= 2^((m-1)/2) lambda1, and an exact relation of height H yields a
lattice vector of length at most H sqrt(m + m^2/4), so any true relation
has height at least |b1| / (2^((m-1)/2) sqrt(m + m^2/4)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from mpmath import mp, mpf

from .numerics import GUARD, BigReal

SLACK = 5
_DELTA = Fraction(3, 4)


def _gram_schmidt(basis):
    """Orthogonalize over Fraction; returns (mu matrix, norms^2)."""
    n = len(basis)
    gs = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for i in range(n):
        v = [Fraction(x) for x in basis[i]]
        for j in range(i):
            if norms[j] == 0:
                continue
            mu[i][j] = sum(Fraction(basis[i][k]) * gs[j][k]
                           for k in range(len(v))) / norms[j]
            v = [v[k] - mu[i][j] * gs[j][k] for k in range(len(v))]
        gs.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


def lll_reduce(basis):
    """LLL-reduce integer basis rows with exact rational arithmetic and
    delta = 3/4, the value the height floor of ``detect`` rests on.

    Gram-Schmidt is computed at the start and after each swap only.  Size
    reduction b_k -= r b_j (j < k) leaves every Gram-Schmidt vector and
    norm unchanged and changes only row k of mu, by mu_k -= r mu_j with
    mu_jj = 1, which is the update applied in place.
    """
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n <= 1:
        return b
    mu, norms = _gram_schmidt(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            if abs(q) > Fraction(1, 2):
                r = int(q + Fraction(1, 2)) if q > 0 else -int(-q + Fraction(1, 2))
                b[k] = [b[k][i] - r * b[j][i] for i in range(len(b[k]))]
                for i in range(j):
                    mu[k][i] -= r * mu[j][i]
                mu[k][j] -= r
        if norms[k] >= (_DELTA - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = _gram_schmidt(b)
            k = max(k - 1, 1)
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


def detect(xs, digits=None, height_bound=10 ** 6):
    """Search for small integers c with sum c_i x_i = 0.

    ``xs`` holds BigReal values (or raw mpf/floats, trusted to the current
    working precision); ``digits`` defaults to the smallest precision among
    the inputs.  Needs digits >= 20 + log10(height_bound) * len(xs), else
    the lattice cannot separate true relations from noise and a ValueError
    is raised, as it is for a height bound below 1.
    """
    if not 2 <= len(xs) <= 50:
        raise ValueError("detect needs between 2 and 50 values")
    if height_bound < 1:
        raise ValueError("height_bound must be >= 1, got %s" % (height_bound,))
    m = len(xs)
    pairs = [_as_mpf(x) for x in xs]
    digits = digits if digits is not None else min(p for _, p in pairs)
    needed = 20 + math.log10(height_bound) * m
    if digits < needed:
        raise ValueError("%d digits is too low: need at least %d for %d values "
                         "at height bound %d" % (digits, math.ceil(needed), m,
                                                 height_bound))
    for _, p in pairs:
        if p < digits:
            raise ValueError("an input carries only %d digits, below the "
                             "requested %d" % (p, digits))
    scale_power = digits - GUARD
    with mp.workdps(digits + GUARD):
        values = [v for v, _ in pairs]
        scaled = [int(mp.floor(v * mpf(10) ** scale_power + mpf(1) / 2))
                  for v in values]
    basis = []
    for i in range(m):
        row = [0] * m + [scaled[i]]
        row[i] = 1
        basis.append(row)
    reduced = lll_reduce(basis)

    def norm2(row):
        return sum(x * x for x in row)

    first_norm = float(math.isqrt(norm2(reduced[0])))
    height_floor = first_norm / (2 ** ((m - 1) / 2) * math.sqrt(m + m * m / 4.0))
    with mp.workdps(digits + GUARD):
        threshold = mpf(10) ** (-(digits - GUARD - SLACK))
        best = None
        for row in sorted(reduced, key=norm2):
            coeffs = row[:m]
            if not any(coeffs):
                continue
            if max(abs(c) for c in coeffs) > height_bound:
                continue
            residual = abs(sum(c * v for c, v in zip(coeffs, values)))
            if residual < threshold:
                best = (coeffs, residual)
                break
        if best is None:
            residual = abs(sum(c * v for c, v in
                               zip(reduced[0][:m], values)))
            return DetectionResult(None, residual, threshold, height_bound,
                                   height_floor, digits)
        coeffs, residual = best
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    coeffs = [c // g for c in coeffs]
    lead = next(c for c in coeffs if c)
    if lead < 0:
        coeffs = [-c for c in coeffs]
    return DetectionResult(tuple(coeffs), residual, threshold, height_bound,
                           height_floor, digits)
