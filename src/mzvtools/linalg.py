"""Exact linear algebra over the rationals, sized for relation matrices.

* ``SparseRREF`` -- reduced row echelon form over ``Fraction`` with sparse
  rows and a configurable column priority for pivot choice.  Rows are
  {column: int or Fraction} maps.  ``insert`` adds one row exactly: it
  reduces the row against the current pivots and, if independent,
  back-substitutes into every pivot row that holds the new pivot column, so
  the basis stays fully reduced.  ``insert_all`` adds a batch by the same
  steps fraction-free over the integers, keeping each pivot row primitive,
  then checks in integers that every input row is the combination of the
  pivot rows its pivot columns select, and only then divides each pivot row
  by its pivot entry.  For relation matrices the reduced rows are supported
  on the pivot column plus the few free columns.  Every reported rank and
  decomposition comes from it.
* ``bareiss_det`` -- dense one-step fraction-free elimination over
  unbounded integers, for the matrix-tree count of spanning trees.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import check


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
            _subtract(out, out[c], self.pivot_rows[c])
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
            if p in target:
                _subtract(target, target[p], new_row)
        self.pivot_rows[p] = new_row
        return p

    def insert_all(self, rows):
        """Add every row of an iterable; returns the rank.

        The input rows, with the rows already held, are scaled to integers
        and eliminated exactly over the integers by the steps of ``insert``,
        fraction-free: clearing column c from a row takes a*row - b*P_c,
        where (a, b) is (P_c[c], row[c]) over their gcd, and every pivot
        row is kept primitive (the gcd of its entries divided out, its
        pivot entry positive).  These steps keep the pivot rows in the input's row
        space; they are kept only after every input row checks out as a
        combination of them (``_spans``), so they span all of it and form
        its reduced echelon form.  InvariantError if the check fails; the
        rows held are then kept.
        """
        rows = [r for r in map(_integer_row, chain(self.pivot_rows.values(), rows)) if r]
        # Rows whose leading column comes last go first: a new pivot column is
        # then rarely in the rows already eliminated, so back-substitution has
        # little to do (the weight-10 relation rows take 0.1-0.2 s in this
        # order and 0.7-0.9 s in table order).
        rows.sort(key=lambda r: min(map(self.priority, r)), reverse=True)
        pivots = {}   # pivot column -> primitive integer row, pivot entry > 0
        for row in rows:
            for c in [c for c in row if c in pivots]:
                row = _cleared(row, c, pivots[c])
            if not row:
                continue
            p = min(row, key=self.priority)
            row = _primitive(row, row[p])
            for q, target in pivots.items():
                if p in target:
                    pivots[q] = _primitive(_cleared(target, p, row))
            pivots[p] = row
        check(_spans(rows, pivots), "the integer echelon of %d rows does not "
              "span them" % len(rows))
        self.pivot_rows = {p: {c: Fraction(v, row[p]) for c, v in row.items()}
                           for p, row in pivots.items()}
        return self.rank


def _subtract(target, coef, row):
    """target -= coef * row in place, for coef and entries of row nonzero."""
    get = target.get
    for c, v in row.items():
        s = get(c, 0) - coef * v
        if s:
            target[c] = s
        else:
            del target[c]   # a zero sum needs a term of target, as coef * v != 0


def _integer_row(row):
    """The nonzero entries of a rational row, scaled to integers by the lcm
    of their denominators."""
    row = {c: v for c, v in row.items() if v}
    den = lcm(*(v.denominator for v in row.values()))
    return {c: int(v * den) for c, v in row.items()}


def _primitive(row, lead=1):
    """An integer row divided by the gcd of its entries, with the sign of
    ``lead``."""
    g = gcd(*row.values()) or 1
    if lead < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _cleared(row, c, prow):
    """The integer row a*row - b*prow, where (a, b) is (prow[c], row[c])
    over their gcd: column c cancels, and a > 0 when prow[c] > 0, so an
    entry in a column prow lacks keeps its sign."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    out = {k: a * v for k, v in row.items()} if a != 1 else dict(row)
    _subtract(out, b, prow)
    return out


def _spans(rows, pivots):
    """True when every integer row r is the combination of the integer pivot
    rows P_c that its pivot columns c select: L*r = sum (L/a_c)*r[c]*P_c on
    every column, where a_c = P_c[c] and L is the lcm of those a_c.

    Written apart from the elimination, so a fault in it shows here."""
    for r in rows:
        cols = [c for c in r if c in pivots]
        den = lcm(*(pivots[c][c] for c in cols))
        acc = {k: den * v for k, v in r.items()}
        for c in cols:
            m = den // pivots[c][c] * r[c]
            for k, v in pivots[c].items():
                acc[k] = acc.get(k, 0) - m * v
        if any(acc.values()):
            return False
    return True


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
