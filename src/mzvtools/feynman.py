"""Graph polynomials and numeric periods of log-divergent graphs.

The Kirchhoff (first graph) polynomial of a connected multigraph G is

    Psi_G = sum over spanning trees T of prod_{e not in T} x_e,

one squarefree monomial per tree, homogeneous of degree equal to the loop
number h = edges - vertices + 1.  It is computed by recursive
deletion-contraction (trees avoiding a non-bridge edge vs trees through
it), never by iterating over all edge subsets, and the monomial count is
cross-checked against the matrix-tree determinant, which is taken first
so that graphs with more than MAX_TREES trees are refused at once.

A graph is primitive log-divergent when edges = 2h and every proper
connected subgraph with a cycle has strictly more than twice as many edges
as independent cycles.  For a connected graph on V vertices that is the
same as V >= 2, edges = 2V - 2, and every vertex set U with 2 <= |U| < V
spanning at most 2|U| - 3 edges, so the test counts the edges inside each
vertex set in 2^V * edges steps.  That time doubles with each vertex, so
graphs on more than MAX_PRIMITIVE_VERTICES vertices are refused.  For
primitive log-divergent graphs the projective period

    integral over x_i >= 0 (chart x_N = 1) of dx_1 ... dx_{N-1} / Psi_G^2

converges, and is estimated by plain Monte-Carlo after the substitution
x = u/(1-u).  The integrand is evaluated in the stable form 1/Phi^2 with
Phi = sum over monomials of prod_{e in M} u_e prod_{e not in M} (1-u_e),
whose terms all lie in (0,1], so no overflow occurs near the boundary.
Each batch of samples is transposed, a chunk at a time, into edge-major
rows of u and 1 - u; each monomial's two products are taken left to right
into preallocated rows, in the order numpy's row-wise ``prod`` would take
them.  Phi is therefore bit-identical to row-wise products over per-tree
copies of the batch, without making those copies.  numpy is imported by
``period_monte_carlo`` alone, so the exact graph polynomials never load it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import _Immutable, check, integer_in
from .linalg import bareiss_det
from .numerics import (DEFAULT_SEED, GUARD, monte_carlo, mzv_eval,
                       zeta_euler_maclaurin)
from .words import format_expression, parse_expression

MAX_TREES = 300_000
# The primitivity scan takes 2^V * edges steps: 3-5 s for the wheel on 20
# vertices on a 2-vCPU host, and about twice as long for each vertex more.
MAX_PRIMITIVE_VERTICES = 20
# The largest weight whose constants are matched: the candidate list holds a
# product of simple zetas for every partition of the weight into parts >= 2,
# so it grows with the partitions of the weight.
MAX_MATCH_WEIGHT = 12
MAX_DENOMINATOR = 12
MAX_NUMERATOR = 1000
ACCEPT_SIGMA = 3.0
CANDIDATE_DIGITS = 30
# Samples per edge-major chunk of a batch in the period integrand: its rows
# of u and 1 - u and two accumulators stay in cache while every monomial's
# products are taken.
_CHUNK = 1 << 13


class Graph(_Immutable):
    """A connected multigraph on vertices 1..n without self-loops."""

    __slots__ = ("n_vertices", "edges")

    def __init__(self, n_vertices, edges):
        n = integer_in(n_vertices, "vertex count", 1)
        es = []
        for u, v in edges:
            u, v = integer_in(u, "edge end", 1, n), integer_in(v, "edge end", 1, n)
            if u == v:
                raise ValueError("self-loop at vertex %d is not allowed" % u)
            es.append((min(u, v), max(u, v)))
        if not _connected((1 << n) - 1, _ends(es)):
            raise ValueError("graph must be connected")
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "edges", tuple(es))

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def loop_number(self):
        return self.n_edges - self.n_vertices + 1

    @classmethod
    def parse(cls, text):
        """Parse ``"V=4; 1-2,1-3,1-4,2-3,2-4,3-4"`` or the JSON equivalent
        ``{"vertices": 4, "edges": [[1,2],...]}``."""
        s = text.strip()
        if s.startswith("{"):
            obj = json.loads(s)
            missing = sorted({"vertices", "edges"} - obj.keys())
            if missing:
                raise ValueError("a JSON graph needs the keys %s" % ", ".join(missing))
            return cls(obj["vertices"], obj["edges"])
        head, _, tail = s.partition(";")
        head = head.replace(" ", "")
        if not head.upper().startswith("V="):
            raise ValueError("graph text must start with V=<count>;")
        n = int(head[2:])
        edges = []
        tail = tail.strip()
        if tail:
            for tok in tail.split(","):
                u, _, v = tok.strip().partition("-")
                edges.append((int(u), int(v)))
        return cls(n, edges)

    def __str__(self):
        return "V=%d; %s" % (self.n_vertices,
                             ",".join("%d-%d" % e for e in self.edges))

    def __repr__(self):
        return "Graph(%r)" % (str(self),)


def _ends(edges):
    """Each edge (u, v) as the bitmask of its end vertices (bit u - 1)."""
    return [1 << (u - 1) | 1 << (v - 1) for u, v in edges]


def _connected(vertices, ends):
    """True when the edges, as end-vertex bitmasks, connect every vertex of
    the bitmask ``vertices``: the reach of its lowest vertex grows to a
    fixed point."""
    reach, last = vertices & -vertices, 0
    while reach != last:
        last = reach
        for e in ends:
            if e & reach:
                reach |= e
    return reach == vertices


def _spanning_trees(vertices, edges, chosen, out):
    """Append to ``out`` every spanning tree, as ``chosen`` plus a bitmask of
    edge ids (bit i for edge id i), of the graph on the vertex bitmask
    ``vertices`` whose loop-free ``edges`` are (end-vertex bitmask, id) pairs.

    The first edge is contracted (its higher vertex merged into the lower,
    loops dropped) and then, unless it is a bridge, deleted.
    """
    if not vertices & (vertices - 1):
        out.append(chosen)
        return
    if not edges:
        return
    (e0, id0), rest = edges[0], edges[1:]
    low = e0 & -e0
    high = e0 ^ low
    contracted = []
    for e, i in rest:
        if e & high:
            e = e ^ high | low
        if e & (e - 1):
            contracted.append((e, i))
    _spanning_trees(vertices ^ high, contracted, chosen | 1 << id0, out)
    if _connected(vertices, [e for e, _ in rest]):  # not a bridge
        _spanning_trees(vertices, rest, chosen, out)


def spanning_tree_count(graph):
    """Number of spanning trees by the matrix-tree theorem (exact integers)."""
    n = graph.n_vertices
    lap = [[0] * n for _ in range(n)]
    for u, v in graph.edges:
        lap[u - 1][u - 1] += 1
        lap[v - 1][v - 1] += 1
        lap[u - 1][v - 1] -= 1
        lap[v - 1][u - 1] -= 1
    minor = [row[:-1] for row in lap[:-1]]
    return bareiss_det(minor)


class GraphPolynomial(_Immutable):
    """A set of squarefree monomials in the edge variables, all of one degree.

    ``monomials`` must hold distinct monomials, each the increasing tuple of
    its edge ids, in print order: the order in which they print and in
    which the period integrand sums them.  They are stored as given.
    """

    __slots__ = ("degree", "monomials")

    def __init__(self, monomials):
        monomials = tuple(monomials)
        degrees = {len(m) for m in monomials}
        if len(degrees) > 1:
            raise ValueError("monomials of mixed degree: %s" % sorted(degrees))
        object.__setattr__(self, "degree", degrees.pop() if degrees else 0)
        object.__setattr__(self, "monomials", monomials)

    def __len__(self):
        return len(self.monomials)

    def evaluate(self, values):
        total = 0
        for m in self.monomials:
            term = 1
            for e in m:
                term = term * values[e]
            total = total + term
        return total

    def __str__(self):
        if not self.monomials:
            return "0"
        bits = []
        for m in self.monomials:
            bits.append("*".join("x%d" % (e + 1) for e in m) if m else "1")
        return " + ".join(bits)

    def __repr__(self):
        return "GraphPolynomial(%s)" % (self,)


def kirchhoff_polynomial(graph):
    """Psi_G: one monomial per spanning tree, on the complementary edges.
    A graph with more than MAX_TREES spanning trees raises ValueError."""
    count = spanning_tree_count(graph)
    if count > MAX_TREES:
        raise ValueError("%s has %d spanning trees, more than the %d this "
                         "enumeration allows" % (graph, count, MAX_TREES))
    trees = []
    _spanning_trees((1 << graph.n_vertices) - 1,
                    list(zip(_ends(graph.edges), range(graph.n_edges))), 0, trees)
    check(len(trees) == count,
          "deletion-contraction disagrees with the matrix-tree count")
    ids = range(graph.n_edges)
    return GraphPolynomial(sorted(tuple(i for i in ids if not t >> i & 1)
                                  for t in trees))


def is_primitive_log_divergent(graph):
    """edges = 2 * loops, and every proper connected subgraph with a cycle
    has edges > 2 * loops.

    Tested on vertex sets in 2^V * edges steps: V >= 2, edges = 2V - 2, and
    every U with 2 <= |U| < V spans at most 2|U| - 3 edges.  A violating
    edge set S (loops >= 1, |S| <= 2 * loops) has a connected violating
    component; adding the other edges among its vertices U keeps it
    violating, so U spans at least 2|U| - 2 edges, and U = V would make it
    every edge.  Conversely a component of an over-full U is over-full
    itself, and its inside edges form a proper violating subgraph.
    ValueError for a graph with edges = 2V - 2 on more than
    MAX_PRIMITIVE_VERTICES vertices.
    """
    n = graph.n_vertices
    if n < 2 or graph.n_edges != 2 * n - 2:
        return False
    if n > MAX_PRIMITIVE_VERTICES:
        raise ValueError("%s has %d vertices, more than the %d the primitivity "
                         "scan allows" % (graph, n, MAX_PRIMITIVE_VERTICES))
    ends = _ends(graph.edges)
    for mask in range(1, (1 << n) - 1):
        size = mask.bit_count()
        if size >= 2 and sum(e & mask == e for e in ends) > 2 * size - 3:
            return False
    return True


def _row_product(rows, ids, out):
    """Set ``out`` to the product of ``rows[i]`` for i in ``ids``, multiplied
    left to right as numpy's row-wise ``prod`` does (1 for no ids), and
    return it."""
    if not ids:
        out.fill(1.0)
        return out
    out[:] = rows[ids[0]]
    for i in ids[1:]:
        out *= rows[i]
    return out


def period_monte_carlo(graph, samples, seed=DEFAULT_SEED):
    """Monte-Carlo estimate of the period integral of 1/Psi_G^2.

    Chart: the last edge variable is set to 1; the others map to u/(1-u)
    over the unit cube, sampled in batches by ``numerics.monte_carlo``, so
    the estimate depends only on (samples, seed), not on scheduling.  Both
    are checked before the primitivity scan.  Each monomial of Psi is one
    integrand term, so ``monte_carlo`` refuses samples x (edges - 1 +
    monomials) above its cap before any sample is drawn.
    """
    import numpy as np
    samples, seed = integer_in(samples, "samples", 2), integer_in(seed, "seed", 0)
    if not is_primitive_log_divergent(graph):
        raise ValueError("%s is not primitive log-divergent; the period "
                         "integral does not converge" % (graph,))
    psi = kirchhoff_polynomial(graph)
    n_free = graph.n_edges - 1
    # each monomial's free edges, multiplied as u, and the rest, as 1 - u
    factors = []
    for m in psi.monomials:
        ins = [e for e in m if e < n_free]
        factors.append((ins, [e for e in range(n_free) if e not in ins]))

    def integrand(u):
        out = np.zeros(len(u))
        for lo in range(0, len(u), _CHUNK):
            x = np.ascontiguousarray(u[lo:lo + _CHUNK].T)
            y = 1.0 - x
            phi = out[lo:lo + x.shape[1]]
            a, b = np.empty_like(phi), np.empty_like(phi)
            for ins, outs in factors:
                _row_product(x, ins, a)
                a *= _row_product(y, outs, b)
                phi += a
            np.multiply(phi, phi, out=phi)
            np.divide(1.0, phi, out=phi)
        return out

    return monte_carlo(integrand, n_free, len(psi), samples, seed)


def _partitions(total, largest):
    if total == 0:
        yield ()
        return
    for p in range(min(total, largest), 1, -1):
        for rest in _partitions(total - p, p):
            yield (p,) + rest


def period_candidates(weight):
    """Known constants of a weight, as ``(label, terms, value)`` triples: the
    products of simple zetas over the partitions into parts >= 2, the
    depth-2 zeta values, and for weight 8 the wheel-type combination.

    Each candidate is an expression that ``parse_expression`` reads, and
    ``terms`` is its reading; ``label`` prints it with ``zeta(...)`` words.
    Each distinct word is evaluated once, a simple zeta by Euler-Maclaurin
    and a deeper word by ``mzv_eval``.
    """
    from mpmath import mp
    digits = CANDIDATE_DIGITS
    exprs = ["*".join("(%d)" % p for p in parts) for parts in _partitions(weight, weight)]
    exprs += ["(%d,%d)" % (a, weight - a) for a in range(1, weight - 1)]
    if weight == 8:
        # The wheel-type combination of the census (Schnetz, arXiv:0801.2856),
        # whose zeta(5,3) is sum_{m>n} m^-5 n^-3: the 5 sits on the larger
        # index, which is the order (3,5) here.
        exprs.append("27/5*(3,5) + 45/4*(5)*(3) - 261/20*(8)")
    candidates = [tuple(parse_expression(e)) for e in exprs]
    with mp.workdps(digits + GUARD):
        distinct = dict.fromkeys(w for terms in candidates for _, words in terms for w in words)
        values = {w: (zeta_euler_maclaurin(w.parts[0], digits) if w.depth == 1
                      else mzv_eval(w, digits)).value for w in distinct}
        # each product is taken left to right from its coefficient
        return tuple((format_expression(terms, "zeta%s"), terms,
                      sum(math.prod([values[w] for w in words], start=c) for c, words in terms))
                     for terms in candidates)


class PeriodMatch(NamedTuple):
    """A rational multiple q of a candidate constant: q is ``coefficient``,
    and the candidate is ``label`` as printed and ``terms`` as read."""

    coefficient: Fraction
    label: str
    value: float
    score: float
    terms: tuple

    def __str__(self):
        q = self.coefficient
        return "%s = %.8g  (%.2f sigma)" % (
            format_expression([(q * c, words) for c, words in self.terms], "zeta%s"),
            self.value, self.score)

    __repr__ = __str__

    def to_json_obj(self):
        return {"coefficient": str(self.coefficient), "label": self.label,
                "value": self.value, "score": self.score}


def check_match_weight(weight):
    """The weight as an int; ValueError unless it is an integer from 2 to
    MAX_MATCH_WEIGHT."""
    return integer_in(weight, "weight", 2, MAX_MATCH_WEIGHT)


def match_period(estimate, error, weight):
    """All candidates q * constant within ACCEPT_SIGMA standard errors of the
    estimate, q a small rational, ranked by residual / error.

    Every reduced fraction a/b with b <= MAX_DENOMINATOR and
    |a| <= MAX_NUMERATOR is considered, not just the closest one: at
    Monte-Carlo precision many rationals fit the window, and the caller
    wants the simple ones listed alongside the best-scoring ones.  Ties in
    score break toward smaller denominators.  A float estimate is never
    known better than its ulp, so a smaller error (an exact integrand has
    stderr 0) is raised to that.
    """
    if not math.isfinite(estimate):
        raise ValueError("estimate must be finite, got %r" % (estimate,))
    if not (math.isfinite(error) and error >= 0):
        raise ValueError("error must be finite and >= 0, got %r" % (error,))
    error = max(error, math.ulp(estimate))
    weight = check_match_weight(weight)
    matches = []
    for label, terms, value in period_candidates(weight):
        v = float(value)
        lo = (estimate - ACCEPT_SIGMA * error) / v
        hi = (estimate + ACCEPT_SIGMA * error) / v
        for b in range(1, MAX_DENOMINATOR + 1):
            for a in range(math.ceil(max(lo * b, -MAX_NUMERATOR)),
                           math.floor(min(hi * b, MAX_NUMERATOR)) + 1):
                if a == 0 or math.gcd(a, b) != 1:
                    continue
                q = Fraction(a, b)
                score = abs(estimate - float(q) * v) / error
                matches.append(PeriodMatch(q, label, float(q) * v, score, terms))
    matches.sort(key=lambda m: (m.score, m.coefficient.denominator,
                                abs(m.coefficient.numerator), m.label))
    return matches
