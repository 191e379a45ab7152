"""Exact linear algebra over the rationals, sized for relation matrices.

* ``SparseRREF`` -- incremental reduced row echelon form over ``Fraction``
  with sparse rows and a configurable column priority for pivot choice.
  Rows are {column: int or Fraction} maps, inserted one at a time; each
  insertion reduces the row against the current pivots and, if independent,
  back-substitutes into every pivot row that holds the new pivot column, so
  the basis stays fully reduced.  For relation matrices the reduced rows are
  supported on the pivot column plus the few free columns, which keeps the
  whole computation cheap even at a thousand columns.  Every reported rank
  and decomposition comes from it.
* ``bareiss_det`` -- dense one-step fraction-free elimination over
  unbounded integers, for the matrix-tree count of spanning trees.
"""

from __future__ import annotations

from fractions import Fraction


class SparseRREF:
    """Incremental reduced row echelon form with sparse rational rows.

    ``priority`` maps a column index to its pivot preference (lower is
    chosen first); by default the column index itself.  Columns that never
    get a pivot are the free columns of the accumulated row space.
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
        for row in rows:
            self.insert(row)
        return self.rank


def _subtract(target, coef, row, skip):
    """target -= coef * row in place, over the columns of row except skip."""
    for cc, v in row.items():
        if cc != skip:
            s = target.get(cc, Fraction(0)) - coef * v
            if s:
                target[cc] = s
            elif cc in target:
                del target[cc]


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
