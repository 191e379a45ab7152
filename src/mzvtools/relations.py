"""Double-shuffle relations, exact rank bounds and Hoffman decompositions.

A pair of nonempty convergent compositions m, n gives the relation

    (product as iterated integrals) - (product as nested sums) = 0:

the shuffle of the binary encodings, pulled back to compositions, minus the
stuffle of the compositions; every multiplicity in both is an integer, so
a row is a map to ints.  Mixing in the single divergent word (1) still
produces a valid relation because the lone divergent term appears once on
both sides and cancels: x1 sh X_n minus (1) st n is supported on
convergent compositions only (checked, not assumed).

Collecting all such rows at a fixed weight and eliminating exactly yields
an upper bound 2^(weight-2) - rank for the dimension of the span of that
weight's zeta values, and the reduced echelon form doubles as a rewriting
table into the Hoffman words (parts in {2, 3}): the pivot priority visits
non-Hoffman columns first, those with the most parts equal to 1 leading,
so the free columns land on Hoffman words whenever the relations allow it.

Each weight's matrix is built once per process (``relation_table``), holds
its rows as {column: int} maps, each named by its product ("double-shuffle
m|n" or "hoffman n"), and carries its echelon form, so rank bounds,
decompositions and ``mzv dims`` all read the same table; a single relation
is a row of that table, looked up by its name.
"""

from __future__ import annotations

from functools import lru_cache

# the names perfbench wraps here
from .algebra import _shuffle_letters as shuffle, _stuffle_parts as stuffle
from .dims import count_hoffman_words, dimension
from .errors import _Immutable, check, integer_in
from .lincomb import LinComb
from .linalg import SparseRREF
from .words import Composition, enumerate_compositions, letters_to_parts

DEFAULT_MAX_WEIGHT = 12

HOFFMAN_PARTS = (2, 3)


def is_hoffman(comp):
    """True when every part of the composition lies in {2, 3}."""
    return all(p in HOFFMAN_PARTS for p in comp.parts)


class InsufficientRelationsError(ValueError):
    """The double-shuffle rows at this weight do not pin the requested word."""

    def __init__(self, comp, free_words):
        self.comp = comp
        self.free_words = tuple(free_words)
        super().__init__(
            "relations at weight %d leave %s unresolved; free non-Hoffman "
            "coordinates: %s" % (comp.weight, comp,
                                 ", ".join(str(w) for w in self.free_words)))


def _relation_row(m, n, columns):
    """Shuffle minus stuffle of two compositions as an integer row.

    The shuffle of the binary encodings is pulled back to part tuples (both
    encodings start with the letter 1, so every interleaving decodes).
    ``columns`` maps the part tuples of the weight's convergent words to
    column keys; the result maps column keys to the nonzero integer
    coefficients, in column order.  A nonzero term outside ``columns``
    raises InvariantError.
    """
    acc = {}
    for u, c in shuffle(m.to_binary().letters, n.to_binary().letters):
        parts = letters_to_parts(u)
        acc[parts] = acc.get(parts, 0) + c
    for p, c in stuffle(m.parts, n.parts):
        acc[p] = acc.get(p, 0) - c
    stray = [str(Composition(p)) for p, c in acc.items() if c and p not in columns]
    check(not stray, "%s|%s leaves terms outside the convergent words: %s"
          % (m, n, ", ".join(stray)))
    return dict(sorted((columns[p], c) for p, c in acc.items() if c))


class RelationMatrix(_Immutable):
    """All double-shuffle (and optionally Hoffman) rows at one weight,
    expressed over the convergent compositions of that weight in canonical
    order: sparse {column index: int} rows, each with a provenance string.
    The columns are indexed both ways: ``basis``, a tuple, maps a column to
    its word, and the {parts: column} map the rows were built against maps
    a word back (``column_of``), and ``hoffman_columns`` holds the columns
    of the Hoffman words.  The echelon form is computed at most once and
    kept (``echelon_form``)."""

    __slots__ = ("weight", "basis", "provenance", "hoffman_columns", "_columns",
                 "_sparse_rows", "_echelon")

    def __init__(self, weight, basis, columns, rows, provenance):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_sparse_rows", tuple(rows))
        object.__setattr__(self, "provenance", tuple(provenance))
        object.__setattr__(self, "hoffman_columns",
                           frozenset(i for i, w in enumerate(self.basis) if is_hoffman(w)))
        object.__setattr__(self, "_echelon", None)

    @property
    def n_rows(self):
        return len(self._sparse_rows)

    def rows(self):
        """Sparse {column index: int} rows in generation order (shared: do not mutate)."""
        return self._sparse_rows

    def column_of(self, comp):
        """The column of a convergent composition of the matrix's weight."""
        return self._columns[comp.parts]


def check_weight(weight, max_weight):
    """The weight as an int; ValueError unless both arguments are integers
    and 2 <= weight <= max_weight."""
    weight = integer_in(weight, "weight", 2)
    if weight > integer_in(max_weight, "max_weight"):
        raise ValueError("weight %d exceeds the cap %d; raise max_weight "
                         "explicitly for longer runs" % (weight, max_weight))
    return weight


def build_relation_matrix(weight, include_hoffman=True, max_weight=DEFAULT_MAX_WEIGHT):
    """Collect the relation rows at the given weight, deterministically.

    Row order: double-shuffle rows over unordered pairs (m, n) with
    weight(m) <= weight(n), pairs ordered by weight(m) then canonically by
    m then n; then the Hoffman rows over convergent words of weight-1 in
    canonical order.
    """
    weight = check_weight(weight, max_weight)
    basis = enumerate_compositions(weight, convergent_only=True)
    columns = {w.parts: i for i, w in enumerate(basis)}
    rows = []
    provenance = []
    for wm in range(2, weight - 1):
        wn = weight - wm
        if wm > wn:
            break
        ms = enumerate_compositions(wm, convergent_only=True)
        ns = enumerate_compositions(wn, convergent_only=True)
        for i, m in enumerate(ms):
            for n in (ns[i:] if wm == wn else ns):
                rows.append(_relation_row(m, n, columns))
                provenance.append("double-shuffle %s|%s" % (m, n))
    if include_hoffman:
        one = Composition((1,))
        for n in enumerate_compositions(weight - 1, convergent_only=True):
            rows.append(_relation_row(one, n, columns))
            provenance.append("hoffman %s" % (n,))
    return RelationMatrix(weight, basis, columns, rows, provenance)


def relation_table(weight, max_weight=DEFAULT_MAX_WEIGHT):
    """The relation matrix at a weight, Hoffman rows included, built at
    most once per process.

    The cap is checked on every call, cached weights included.  The matrix
    and its echelon form are shared by every caller and must not be
    mutated.
    """
    return _table(check_weight(weight, max_weight))


# Enough for every weight from 2 to the default cap with room to spare; the
# bound matters because the weight-12 matrix alone holds 79k terms.
@lru_cache(maxsize=16)
def _table(weight):
    return build_relation_matrix(weight, True, weight)


def _hoffman_last_priority(basis):
    """Pivot priority that visits non-Hoffman columns first, so free columns
    land on Hoffman words when possible; among the non-Hoffman columns, those
    with more parts equal to 1 come first, then canonical order, and the
    Hoffman columns follow in canonical order.

    The order among non-Hoffman columns does not change the echelon where
    the bound equals d_N (every weight from 2 to 14).  No Hoffman column is
    a pivot: its pivot row would be a relation among Hoffman words alone,
    every row here holds for motivic MZVs, and the motivic Hoffman words are
    independent (Brown).  So the rank counts non-Hoffman pivots, and a rank
    of 2^(N-2) - d_N, the number of non-Hoffman columns, makes every one of
    them a pivot under any Hoffman-last order.  The reduced echelon form of a row space for a
    fixed pivot set is unique, so the pivot rows are the same; the order
    only changes the work (at weight 12 the echelon takes about a third of
    its time in canonical order).  Where the bound exceeds d_N, some
    non-Hoffman columns stay free, and which ones could depend on this
    order."""
    order = sorted(range(len(basis)),
                   key=lambda i: (is_hoffman(basis[i]), -basis[i].parts.count(1), i))
    return {i: rank for rank, i in enumerate(order)}.__getitem__


def echelon_form(matrix):
    """Exact reduced row echelon form of a RelationMatrix (SparseRREF), with
    the Hoffman-last pivot priority.

    All rows go in through one ``SparseRREF.insert_all`` call: they are
    eliminated exactly over the integers, and the result is kept only after
    every row checks out in integers as a combination of the pivot rows.
    Computed on the first call and kept on the matrix; the result is shared,
    so callers must not change it.
    """
    if matrix._echelon is None:
        rref = SparseRREF(priority=_hoffman_last_priority(matrix.basis))
        rref.insert_all(matrix.rows())
        object.__setattr__(matrix, "_echelon", rref)
    return matrix._echelon


def matrix_rank(matrix):
    return echelon_form(matrix).rank


def dimension_upper_bound(weight, max_weight=DEFAULT_MAX_WEIGHT):
    """2^(weight-2) minus the exact rank of the relation rows.

    Every row is a true relation, so this is a rigorous upper bound for the
    dimension of the weight-graded span of zeta values; a value below the
    d_n of the dimension recurrence would mean a false relation and raises
    InvariantError."""
    matrix = relation_table(weight, max_weight)
    weight = matrix.weight
    bound = 2 ** (weight - 2) - matrix_rank(matrix)
    check(bound >= dimension(weight), "bound %d fell below d_%d = %d: some relation is false"
          % (bound, weight, dimension(weight)))
    return bound


def decompose_in_hoffman_basis(comp, max_weight=DEFAULT_MAX_WEIGHT):
    """Rewrite a convergent composition as a rational combination of
    Hoffman words of the same weight, using the double-shuffle rows.

    Raises InsufficientRelationsError when the relations at that weight do
    not pin the word down to Hoffman coordinates.
    """
    if not isinstance(comp, Composition):
        raise TypeError("expected a Composition, got %r" % (comp,))
    if not comp.is_convergent:
        raise ValueError("%s diverges; only convergent words decompose" % (comp,))
    weight = comp.weight
    if weight < 2:
        return LinComb.term(comp)  # the empty word; weight-1 words all diverge
    matrix = relation_table(weight, max_weight)
    rref = echelon_form(matrix)
    col = matrix.column_of(comp)
    # a pivot word is minus the rest of its row, a free word is itself
    row = rref.pivot_rows.get(col)
    terms = {col: 1} if row is None else {cc: -v for cc, v in row.items() if cc != col}
    bad = sorted(matrix.basis[cc] for cc in terms.keys() - matrix.hoffman_columns)
    if bad:
        raise InsufficientRelationsError(comp, bad)
    return LinComb((matrix.basis[cc], v) for cc, v in terms.items())


def hoffman_words(weight):
    """The Hoffman words of a weight, in canonical order."""
    out = [c for c in enumerate_compositions(weight, convergent_only=True)
           if is_hoffman(c)]
    check(len(out) == count_hoffman_words(weight),
          "Hoffman words at weight %d disagree with their count" % weight)
    return out
