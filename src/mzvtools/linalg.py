"""Exact linear algebra over the integers and rationals, sized for relation
matrices.

* ``SparseRREF`` -- the reduced row echelon form of one batch of sparse
  integer rows, {column: nonzero int} maps, with a configurable column
  priority for pivot choice.  ``insert_all`` copies each input row once and
  eliminates the batch fraction-free over the integers in place, keeping
  each pivot row primitive and back-substituting each new pivot into every
  pivot row that holds its column, then checks in integers that every input
  row is the combination of the pivot rows its pivot columns select, and
  only then divides each pivot row by its pivot entry.  For relation
  matrices the reduced rows are supported on the pivot column plus the few
  free columns.  Every reported rank and decomposition comes from it.
* ``bareiss_det`` -- dense one-step fraction-free elimination over
  unbounded integers, for the matrix-tree count of spanning trees.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import check


class SparseRREF:
    """Reduced row echelon form of one batch of sparse integer rows.

    ``priority`` maps a column index to its pivot preference (lower is
    chosen first); by default the column index itself.  Each pivot row's
    pivot is its most preferred column, so for a one-to-one priority the
    pivot columns and the rows depend only on the row space, not on the
    order of the rows.  Columns that never get a pivot are the free columns
    of the row space.
    """

    def __init__(self, priority=None):
        self.priority = priority if priority is not None else (lambda c: c)
        self.pivot_rows = {}   # pivot column -> {column: Fraction}, pivot entry == 1

    @property
    def rank(self):
        return len(self.pivot_rows)

    def insert_all(self, rows):
        """Compute the echelon of one batch of {column: nonzero int} rows;
        returns the rank.

        The rows, empty ones skipped, are eliminated exactly over the
        integers, fraction-free: clearing column c from a row takes
        a*row - b*P_c, where (a, b) is (P_c[c], row[c]) over their gcd; a new
        pivot row is made primitive (the gcd of its entries divided out, its
        pivot entry positive) and cleared the same way from every pivot row
        that holds its column.  Each input row's entries are copied once;
        every clearing then updates that copy, or the pivot row it clears,
        in place, on the columns of P_c alone, and rescales the whole row
        only when a != 1.  The input rows are not changed.  These steps keep
        the pivot rows in the input's row space; they are kept only after
        every input row checks out as a combination of them (``_spans``), so
        they span all of it and form its reduced echelon form.
        ValueError, before any elimination, if a row holds an explicit zero;
        InvariantError if the check fails.  ``pivot_rows`` is then unchanged.
        """
        rows = list(rows)
        for i, r in enumerate(rows):
            if 0 in r.values():
                raise ValueError("row %d holds a zero entry: %r" % (i, r))
        rows = [r for r in rows if r]
        # Rows whose leading column comes last go first: a new pivot column is
        # then rarely in the rows already eliminated, so back-substitution has
        # little to do (on 2 vCPUs, the weight-10 relation rows take
        # 0.05-0.1 s in this order and 0.45-0.7 s in table order).
        rows.sort(key=lambda r: min(map(self.priority, r)), reverse=True)
        pivots = {}   # pivot column -> primitive integer row, pivot entry > 0
        for row in rows:
            row = dict(row)   # the one copy: the clearing below is in place
            for c in [c for c in row if c in pivots]:
                _clear(row, c, pivots[c])
            if not row:
                continue
            p = min(row, key=self.priority)
            row = _primitive(row, row[p])
            for q, target in pivots.items():
                if p in target:
                    _clear(target, p, row)
                    pivots[q] = _primitive(target)
            pivots[p] = row
        check(_spans(rows, pivots), "the integer echelon of %d rows does not "
              "span them" % len(rows))
        self.pivot_rows = {p: {c: Fraction(v, row[p]) for c, v in row.items()}
                           for p, row in pivots.items()}
        return self.rank


def _primitive(row, lead=1):
    """An integer row divided by the gcd of its entries, with the sign of
    ``lead``."""
    g = gcd(*row.values()) or 1
    if lead < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _clear(row, c, prow):
    """Set the integer row to a*row - b*prow in place, where (a, b) is
    (prow[c], row[c]) over their gcd: column c cancels, and a > 0 when
    prow[c] > 0, so an entry in a column prow lacks keeps its sign.  Only
    prow's columns are visited, unless a != 1 rescales the whole row."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    if a != 1:
        for k, v in row.items():
            row[k] = a * v
    get = row.get
    for k, v in prow.items():
        s = get(k, 0) - b * v
        if s:
            row[k] = s
        else:
            del row[k]   # a zero sum needs a term of row, as b * v != 0


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
