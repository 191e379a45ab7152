"""Exact linear algebra over the rationals, sized for relation matrices.

* ``SparseRREF`` -- reduced row echelon form over ``Fraction`` with sparse
  rows and a configurable column priority for pivot choice.  Rows are
  {column: int or Fraction} maps.  ``insert`` adds one row exactly: it
  reduces the row against the current pivots and, if independent,
  back-substitutes into every pivot row that holds the new pivot column, so
  the basis stays fully reduced.  ``insert_all`` adds a batch by the same
  steps over the integers mod a few large primes, combines the primes by
  CRT, rebuilds each entry by rational reconstruction and then verifies
  the result exactly against every input row, so its answer is the exact
  one (the multimodular method of the MZV Data Mine, Bluemlein-Broadhurst-
  Vermaseren, arXiv:0907.2557).  For relation matrices the reduced rows
  are supported on the pivot column plus the few free columns.  Every
  reported rank and decomposition comes from it.
* ``bareiss_det`` -- dense one-step fraction-free elimination over
  unbounded integers, for the matrix-tree count of spanning trees.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm

from .errors import InvariantError

# The primes insert_all works modulo, tried in this order until the
# reconstructed echelon verifies.  Mersenne primes: 2^127 - 1 alone
# reconstructs every relation echelon through weight 11; weight 12, whose
# entries reach 70 bits, also needs 2^107 - 1.
PRIMES = (2 ** 127 - 1, 2 ** 107 - 1, 2 ** 89 - 1, 2 ** 521 - 1)


class SparseRREF:
    """Reduced row echelon form with sparse rational rows.

    ``priority`` maps a column index to its pivot preference (lower is
    chosen first); by default the column index itself.  Each pivot row's
    pivot is its most preferred column, so for a one-to-one priority the
    pivot columns and the rows depend only on the row space, not on the
    order or the method of insertion.  Columns that never get a pivot are
    the free columns of the accumulated row space.
    """

    def __init__(self, priority=None):
        self.priority = priority if priority is not None else (lambda c: c)
        self.pivot_rows = {}   # pivot column -> {column: Fraction}, pivot entry == 1

    @property
    def rank(self):
        return len(self.pivot_rows)

    def reduce(self, row):
        """Return the residue of ``row`` modulo the current row space.

        ``row`` is a {column: coefficient} map; the input is not mutated.
        """
        out = {c: Fraction(v) for c, v in row.items() if v}
        # one pass suffices: pivot rows only touch non-pivot columns
        for c in [c for c in out if c in self.pivot_rows]:
            _subtract(out, out.pop(c), self.pivot_rows[c], c)
        return out

    def insert(self, row):
        """Add a row to the row space.

        Returns the new pivot column, or None if the row was dependent.
        """
        out = self.reduce(row)
        if not out:
            return None
        p = min(out, key=self.priority)
        pv = out[p]
        new_row = {c: v / pv for c, v in out.items()}
        # back-substitute into every pivot row that holds the new pivot column
        for target in self.pivot_rows.values():
            coef = target.pop(p, None)
            if coef is not None:
                _subtract(target, coef, new_row, p)
        self.pivot_rows[p] = new_row
        return p

    def insert_all(self, rows):
        """Add every row of an iterable; returns the rank.

        The input rows, with the rows already held, are scaled to integers
        and eliminated mod the primes of ``PRIMES`` in turn, each by the
        steps of ``insert``.  Primes with the same pivot columns are combined
        by CRT; where two disagree, the one with fewer pivots, or as many
        pivots placed later in priority order, was unlucky and is dropped.
        Each entry is then rebuilt by rational reconstruction.  The rebuilt
        rows are kept only if every input row reduces to zero against them:
        they then span the input's row space, and there are rank_p <= rank_Q
        of them, so they are its reduced echelon form.  A failed
        reconstruction or check adds the next prime; InvariantError when
        none is left.
        """
        rows = [r for r in map(_integer_row, chain(self.pivot_rows.values(), rows)) if r]
        # Rows whose leading column comes last go first: a new pivot column is
        # then rarely in the rows already eliminated, so back-substitution has
        # little to do (mod 2^127 - 1 the weight-10 relation rows take 0.05 s
        # in this order and 0.66 s in table order).
        rows.sort(key=lambda r: min(map(self.priority, r)), reverse=True)
        held = self.pivot_rows
        residues = None
        for p in PRIMES:
            echelon = _echelon_mod(rows, p, self.priority)
            if residues is not None and echelon.keys() == residues.keys():
                residues = _crt(residues, modulus, echelon, p)
                modulus *= p
            elif residues is None or (_pivot_key(echelon, self.priority)
                                      < _pivot_key(residues, self.priority)):
                residues, modulus = echelon, p
            else:
                continue  # p was unlucky; the residues already failed
            self.pivot_rows = _reconstruct(residues, modulus)
            if self.pivot_rows is not None and not any(map(self.reduce, rows)):
                return self.rank
        self.pivot_rows = held
        raise InvariantError("the multimodular echelon of %d rows did not "
                             "verify mod %d primes" % (len(rows), len(PRIMES)))


def _subtract(target, coef, row, skip):
    """target -= coef * row in place, over the columns of row except skip."""
    get = target.get
    for cc, v in row.items():
        if cc != skip:
            s = get(cc, 0) - coef * v
            if s:
                target[cc] = s
            elif cc in target:
                del target[cc]


def _integer_row(row):
    """The nonzero entries of a rational row, scaled to integers by the lcm
    of their denominators."""
    row = {c: v for c, v in row.items() if v}
    den = lcm(*(v.denominator for v in row.values()))
    return {c: int(v * den) for c, v in row.items()}


def _echelon_mod(rows, p, priority):
    """The reduced echelon form of integer rows mod the prime p, built by
    the steps of ``SparseRREF.insert``; each pivot row is stored without
    its pivot entry, which is 1."""
    pivots = {}
    for row in rows:
        out = {}
        for c, v in row.items():
            v %= p
            if v:
                out[c] = v
        for c in [c for c in out if c in pivots]:
            _subtract_mod(out, out.pop(c), pivots[c], p)
        if not out:
            continue
        piv = min(out, key=priority)
        inv = pow(out.pop(piv), -1, p)
        new_row = {c: v * inv % p for c, v in out.items()}
        for target in pivots.values():
            coef = target.pop(piv, None)
            if coef is not None:
                _subtract_mod(target, coef, new_row, p)
        pivots[piv] = new_row
    return pivots


def _subtract_mod(target, coef, row, p):
    """target -= coef * row mod p in place."""
    get = target.get
    for c, v in row.items():
        s = (get(c, 0) - coef * v) % p
        if s:
            target[c] = s
        else:
            target.pop(c, None)


def _pivot_key(pivots, priority):
    """Sort key that puts the echelon mod a lucky prime first.

    The pivots in the first k columns in priority order count the rank of
    the rows cut down to those columns, and a rank mod p never exceeds the
    rank over Q; a lucky prime reaches it for every k."""
    return -len(pivots), sorted(map(priority, pivots))


def _crt(residues, modulus, echelon, p):
    """Combine entries mod ``modulus`` with the entries mod p of an echelon
    with the same pivot columns; an absent entry is 0."""
    inv = pow(modulus, -1, p)
    out = {}
    for piv, row in residues.items():
        other = echelon[piv]
        new_row = {}
        for c in dict.fromkeys(chain(row, other)):
            a = row.get(c, 0)
            new_row[c] = a + modulus * ((other.get(c, 0) - a) * inv % p)
        out[piv] = new_row
    return out


def _reconstruct(residues, modulus):
    """Fraction pivot rows, pivot entry 1, from their entries mod
    ``modulus``; None if some entry has no rational reconstruction."""
    bound = isqrt(modulus // 2)
    out = {}
    for piv, row in residues.items():
        new_row = {piv: Fraction(1)}
        for c, a in row.items():
            q = _rational(a, modulus, bound)
            if q is None:
                return None
            if q:
                new_row[c] = q
        out[piv] = new_row
    return out


def _rational(a, m, bound):
    """The fraction r/s with |r|, s <= bound and r = a*s mod m, if any
    (Wang's rational reconstruction: the extended Euclidean algorithm on
    m and a, stopped at the first remainder within the bound)."""
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def bareiss_det(rows):
    """Determinant of a square integer matrix, fraction-free."""
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
