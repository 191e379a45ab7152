"""Weight-graded dimension counts for the span of multiple zeta values.

Three independent counts agree in every weight:

* ``dimension`` -- the recurrence d_0 = 1, d_1 = 0, d_2 = 1,
  d_n = d_{n-2} + d_{n-3}, i.e. the coefficients of 1/(1 - t^2 - t^3).
  These are the conjectured (and upper-bound-proved) dimensions.
* ``count_hoffman_words`` -- compositions all of whose parts lie in {2,3},
  counted by direct dynamic programming; the Hoffman words furnish the
  conjectural basis in each weight.
* ``count_f_monomials`` -- words in one commuting letter of weight 2 and
  noncommuting letters of odd weights 3, 5, 7, ..., counted by expanding
  1/(1-t^2) * 1/(1 - (t^3 + t^5 + t^7 + ...)) with exact integer
  coefficients.

The growth rate d_{n+1}/d_n tends to the real root of X^3 - X - 1,
about 1.3247, the largest root of the recurrence's characteristic
polynomial.
"""

from __future__ import annotations

from .errors import integer_in


def dimension(n):
    """d_n from the recurrence d_n = d_{n-2} + d_{n-3}."""
    return _dimensions(integer_in(n, "weight", 0))[-1]


def count_hoffman_words(n):
    """Number of compositions of n with every part in {2, 3}."""
    return _hoffman_counts(integer_in(n, "weight", 0))[-1]


def count_f_monomials(n):
    """Number of weight-n monomials in one weight-2 commuting letter times a
    word in noncommuting letters of odd weights 3, 5, 7, ...

    Counted as the t^n coefficient of 1/(1-t^2) * 1/(1-(t^3+t^5+...)),
    expanded with exact integer arithmetic.
    """
    return _f_monomial_counts(integer_in(n, "weight", 0))[-1]


def weight_counts(n):
    """(d_k, Hoffman words, f-monomials) for every weight k = 0..n.

    Each recurrence runs once up to n, about n^2 steps in all; calling the
    three per-weight counts for every k would take about n^3.
    """
    n = integer_in(n, "weight", 0)
    return list(zip(_dimensions(n), _hoffman_counts(n), _f_monomial_counts(n)))


def _dimensions(n):
    """d_0, ..., d_n."""
    d = [1, 0, 1]
    while len(d) <= n:
        d.append(d[-2] + d[-3])
    return d[:n + 1]


def _hoffman_counts(n):
    """The number of compositions of k into parts 2 and 3, for k = 0..n."""
    counts = [0] * (n + 1)
    counts[0] = 1
    for total in range(1, n + 1):
        for part in (2, 3):
            if total >= part:
                counts[total] += counts[total - part]
    return counts


def _f_monomial_counts(n):
    """The f-monomial counts of weights 0..n."""
    # words in the odd letters: w = 1 + (t^3 + t^5 + ...) * w
    odd_words = [0] * (n + 1)
    odd_words[0] = 1
    for total in range(1, n + 1):
        odd_words[total] = sum(odd_words[total - j] for j in range(3, total + 1, 2))
    # multiply by the even series 1/(1-t^2) = 1 + t^2 + t^4 + ...
    counts = []
    for k, w in enumerate(odd_words):
        counts.append(w + (counts[k - 2] if k >= 2 else 0))
    return counts

