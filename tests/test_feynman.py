"""Graph polynomials and parametric periods.

Spanning-tree enumeration is cross-checked against the matrix-tree
determinant; the Kirchhoff polynomial against deletion-contraction; the
Monte-Carlo estimator against frozen deterministic values and the known
wheel periods.  The estimator is unbiased but heavy-tailed, so frozen
seeds guard the pipeline while the loose gates reflect honest accuracy.
"""

import hashlib
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from mpmath import mp, mpf

from mzvtools import (Composition, Graph, GraphPolynomial, feynman,
                      is_primitive_log_divergent, kirchhoff_polynomial,
                      match_period, mzv_eval, period_monte_carlo,
                      numerics, spanning_tree_count)
from mzvtools.numerics import MAX_SAMPLE_WORK, monte_carlo

K4 = Graph.parse("V=4; 1-2,1-3,1-4,2-3,2-4,3-4")
TRIANGLE = Graph.parse("V=3; 1-2,1-3,2-3")
W4 = Graph.parse("V=5; 1-2,1-3,1-4,1-5,2-3,3-4,4-5,2-5")


# ------------------------------------------------------------------ graphs

def test_parse_text_format():
    g = Graph.parse("V=4; 1-2,1-3,1-4,2-3,2-4,3-4")
    assert g.n_vertices == 4
    assert g.n_edges == 6


def test_parse_json_format():
    g = Graph.parse('{"vertices": 3, "edges": [[1, 2], [1, 3], [2, 3]]}')
    assert g.n_edges == 3
    assert g.n_vertices == 3


def test_parse_round_trip():
    assert Graph.parse(str(K4)).edges == K4.edges


def test_multi_edges_allowed():
    banana = Graph(2, [(1, 2), (1, 2)])
    assert banana.n_edges == 2
    assert banana.n_vertices == 2


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(2, [(1, 1), (1, 2)])


def test_disconnected_rejected():
    with pytest.raises(ValueError):
        Graph(4, [(1, 2), (3, 4)])


def test_vertex_out_of_range_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(1, 2), (2, 5)])
    # non-integral counts and ends used to be truncated: 3.7 vertices were 3
    with pytest.raises(ValueError, match="vertex count must be an integer >= 1"):
        Graph(3.7, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="edge end must be an integer between 1 and 3, got 2.5"):
        Graph(3, [(1, 2), (2, 2.5)])
    graph = Graph(3.0, [(1.0, 2), (2, 3)])
    assert (graph.n_vertices, graph.edges) == (3, ((1, 2), (2, 3)))


# ---------------------------------------------------------- tree counting

def random_connected_graph(rng, max_edges=8):
    n = rng.randint(2, 5)
    edges = [(i, i + 1) for i in range(1, n)]  # a path, for connectivity
    while len(edges) < rng.randint(n - 1, max_edges):
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)


def test_k4_has_sixteen_trees():
    assert spanning_tree_count(K4) == 16


@pytest.mark.parametrize("seed", range(10))
def test_tree_count_matches_matrix_tree(seed):
    g = random_connected_graph(random.Random(seed))
    assert len(kirchhoff_polynomial(g)) == spanning_tree_count(g)


def test_tree_graph_counts_one():
    path = Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert spanning_tree_count(path) == 1


# ------------------------------------------------------------- Kirchhoff

def test_triangle_polynomial():
    psi = kirchhoff_polynomial(TRIANGLE)
    assert str(psi) == "x1 + x2 + x3"
    assert psi.degree == 1
    assert len(psi) == 3


def test_k4_polynomial_shape():
    psi = kirchhoff_polynomial(K4)
    assert len(psi) == 16
    assert psi.degree == 3
    # squarefree monomials over 6 variables
    assert all(len(m) == 3 for m in psi.monomials)


def test_single_edge_polynomial_is_constant_one():
    g = Graph(2, [(1, 2)])
    psi = kirchhoff_polynomial(g)
    assert psi.degree == 0
    assert len(psi) == 1
    assert psi.evaluate([7.0]) == 1.0


def test_banana_polynomial():
    banana = Graph(2, [(1, 2), (1, 2)])
    assert str(kirchhoff_polynomial(banana)) == "x1 + x2"


def test_polynomial_is_homogeneous():
    psi = kirchhoff_polynomial(W4)
    values = [1.5, 0.3, 2.0, 0.7, 1.1, 0.4, 0.9, 1.3]
    lam = 2.0
    scaled = psi.evaluate([lam * v for v in values])
    assert scaled == pytest.approx(lam ** psi.degree * psi.evaluate(values))


def test_mixed_degree_monomials_rejected():
    with pytest.raises(ValueError):
        GraphPolynomial([frozenset([0]), frozenset([0, 1])])


def delete_edge(g, k):
    edges = [e for i, e in enumerate(g.edges) if i != k]
    return Graph(g.n_vertices, edges)


def contract_edge(g, k):
    """Contract edge k (assumed non-parallel so no loops arise), relabel."""
    u, v = g.edges[k]
    mapping = {}
    nxt = 1
    for w in range(1, g.n_vertices + 1):
        if w == v:
            continue
        mapping[w] = nxt
        nxt += 1
    mapping[v] = mapping[u]
    edges = [(mapping[a], mapping[b]) for i, (a, b) in enumerate(g.edges) if i != k]
    return Graph(g.n_vertices - 1, edges)


def test_deletion_contraction_identity():
    """Psi_G = Psi_{G-e} * x_e + Psi_{G/e} for a non-loop, non-bridge edge,
    compared via evaluation at random points (exact monomial bookkeeping
    differs by the variable renumbering).  Draws graphs until six distinct
    checks have run."""
    rng = random.Random(100)
    checked = 0
    while checked < 6:
        g = random_connected_graph(rng)
        for k, (u, v) in enumerate(g.edges):
            if g.edges.count((u, v)) > 1:
                continue  # contraction would create a self-loop
            try:
                deleted = delete_edge(g, k)
            except ValueError:
                continue  # bridge: deletion disconnects
            contracted = contract_edge(g, k)
            psi = kirchhoff_polynomial(g)
            psi_del = kirchhoff_polynomial(deleted)
            psi_con = kirchhoff_polynomial(contracted)
            xs = [rng.uniform(0.5, 2.0) for _ in range(g.n_edges)]
            rest = xs[:k] + xs[k + 1:]
            lhs = psi.evaluate(xs)
            rhs = psi_del.evaluate(rest) * xs[k] + psi_con.evaluate(rest)
            assert lhs == pytest.approx(rhs, rel=1e-12), (g, k)
            checked += 1
            break


# ------------------------------------------------------------- divergence

def test_k4_is_primitive_log_divergent():
    assert is_primitive_log_divergent(K4)


def test_triangle_is_not():
    assert not is_primitive_log_divergent(TRIANGLE)


def test_two_triangles_sharing_an_edge_are_not():
    g = Graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    assert not is_primitive_log_divergent(g)


def test_banana_is_primitive_log_divergent():
    assert is_primitive_log_divergent(Graph(2, [(1, 2), (1, 2)]))


def test_w4_is_primitive_log_divergent():
    assert is_primitive_log_divergent(W4)


def _connected_edges(vertices, edges):
    parent = {v: v for v in vertices}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[root(u)] = root(v)
    return len({root(v) for v in vertices}) <= 1


def primitive_by_edge_subsets(graph):
    """The definition itself, as the oracle: edges = 2 * loops >= 2, and no
    proper connected edge subset S with a cycle has |S| <= 2 * loops(S).
    Scans all 2^edges subsets."""
    edges = graph.edges
    n_edges = len(edges)
    loops = n_edges - graph.n_vertices + 1
    if loops < 1 or n_edges != 2 * loops:
        return False
    for mask in range(1, (1 << n_edges) - 1):
        subset = [edges[i] for i in range(n_edges) if mask >> i & 1]
        verts = {v for e in subset for v in e}
        if not _connected_edges(verts, subset):
            continue
        h = len(subset) - len(verts) + 1
        if h >= 1 and len(subset) <= 2 * h:
            return False
    return True


def random_multigraph(rng):
    """A connected multigraph on 2..6 vertices, weighted toward 5 and 6;
    most have 2V - 2 edges, and more than half have no multi-edge."""
    while True:
        n = rng.choice((2, 3, 4, 5, 5, 6, 6, 6))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        n_edges = 2 * n - 2 if rng.random() < 0.7 else rng.randint(n - 1, 2 * n + 1)
        if rng.random() < 0.6 and n_edges <= len(pairs):
            edges = rng.sample(pairs, n_edges)
        else:
            edges = [rng.choice(pairs) for _ in range(n_edges)]
        try:
            return Graph(n, edges)
        except ValueError:  # disconnected: draw again
            continue


def test_primitivity_matches_edge_subset_oracle():
    rng = random.Random(2021)
    graphs = [random_multigraph(rng) for _ in range(2500)]
    verdicts = [primitive_by_edge_subsets(g) for g in graphs]
    for g, want in zip(graphs, verdicts):
        assert is_primitive_log_divergent(g) == want, g
    # the sample reaches what the vertex-set form must get right
    assert sum(verdicts) >= 500
    assert sum(v for g, v in zip(graphs, verdicts) if g.n_vertices >= 5) >= 150
    assert any(g.n_edges != 2 * g.n_vertices - 2 for g in graphs)
    assert sum(len(set(g.edges)) < g.n_edges for g in graphs) >= 500


def wheel(spokes):
    n = spokes + 1
    rim = [(i, i + 1) for i in range(2, n)] + [(2, n)]
    return Graph(n, [(1, i) for i in range(2, n + 1)] + rim)


def complete_graph(n):
    return Graph(n, itertools.combinations(range(1, n + 1), 2))


def monomials_by_edge_subsets(graph):
    """The definition of Psi, as the oracle: the complement of every
    (V - 1)-edge subset that connects all vertices, sorted."""
    n_edges, vertices = graph.n_edges, range(1, graph.n_vertices + 1)
    return sorted(
        tuple(i for i in range(n_edges) if i not in tree)
        for tree in itertools.combinations(range(n_edges), graph.n_vertices - 1)
        if _connected_edges(vertices, [graph.edges[i] for i in tree]))


@pytest.mark.parametrize("graph", [
    K4, W4, wheel(5), complete_graph(5),
    Graph(4, [(1, 2), (1, 2), (1, 3), (2, 3), (3, 4), (1, 4), (3, 4)]),
], ids=["K4", "W4", "W5", "K5", "multigraph"])
def test_kirchhoff_monomials_match_edge_subset_oracle(graph):
    assert list(kirchhoff_polynomial(graph).monomials) == monomials_by_edge_subsets(graph)


def test_kirchhoff_polynomial_memory_is_bounded():
    # 16807 monomials of 15 edges each: stored once, as small tuples
    tracemalloc.start()
    try:
        psi = kirchhoff_polynomial(complete_graph(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(psi) == 16807
    assert peak < 8 * 10 ** 6


def test_kirchhoff_print_order_is_frozen():
    # past the edge-subset oracle's reach: the print order is also the order
    # in which the period integrand sums the monomials
    text = str(kirchhoff_polynomial(complete_graph(7)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1f70b7952d22069cf0eb456e975c64d536d0d5efcb634904970a6df7428b7582")


@pytest.mark.parametrize("spokes", range(3, 8))
def test_wheels_are_primitive(spokes):
    g = wheel(spokes)
    assert primitive_by_edge_subsets(g)
    assert is_primitive_log_divergent(g)


def test_double_edge_subdivergence_is_not_primitive():
    # 2V - 2 edges, but the doubled edge 1-2 is a one-loop subgraph with
    # two edges
    g = Graph(4, [(1, 2), (1, 2), (1, 3), (2, 3), (3, 4), (1, 4)])
    assert g.n_edges == 2 * g.n_vertices - 2
    assert not primitive_by_edge_subsets(g)
    assert not is_primitive_log_divergent(g)


def test_primitivity_scans_vertex_sets_not_edge_subsets():
    # W9 has 18 edges: 2^18 edge subsets, but only 2^10 vertex sets
    start = time.perf_counter()
    assert is_primitive_log_divergent(wheel(9))
    assert time.perf_counter() - start < 0.5


def test_primitivity_refuses_too_many_vertices_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="21 vertices"):
        is_primitive_log_divergent(wheel(20))
    assert time.perf_counter() - start < 0.5


# ------------------------------------------------------------ Monte Carlo

def test_period_requires_log_divergent_graph():
    with pytest.raises(ValueError):
        period_monte_carlo(TRIANGLE, 100)


class Drawn(Exception):
    """Raised in place of drawing a substream: the request was accepted."""


def test_period_cap_refuses_before_any_sample(monkeypatch):
    # W5 draws 9 coordinates a sample and sums 121 monomials: 15,384,615
    # samples is the most the cap takes, and 10^7, the largest request in
    # use, is 1.3e9 units
    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(numerics, "_substream", drawn)
    assert MAX_SAMPLE_WORK // (9 + 121) == 15_384_615
    for samples in (10 ** 7, 15_384_615):
        with pytest.raises(Drawn):
            period_monte_carlo(wheel(5), samples)
    with pytest.raises(ValueError, match="^15384616 samples x \\(9 draws \\+ 121 terms per "
                       "sample\\) exceed the sampling work cap MAX_SAMPLE_WORK = %d$"
                       % MAX_SAMPLE_WORK):
        period_monte_carlo(wheel(5), 15_384_616)


def test_banana_period_is_exactly_one():
    # Phi = u + (1-u) = 1, so every sample evaluates to 1
    est = period_monte_carlo(Graph(2, [(1, 2), (1, 2)]), 1000, seed=0)
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_period_is_deterministic():
    a = period_monte_carlo(K4, 10 ** 5, seed=3)
    b = period_monte_carlo(K4, 10 ** 5, seed=3)
    assert (a.value, a.stderr) == (b.value, b.stderr)


def test_k4_frozen_runs():
    # pipeline regression guards: exact values for two seeds
    a = period_monte_carlo(K4, 10 ** 5, seed=3)
    assert a.value == pytest.approx(6.4928592847361539, abs=0)
    assert a.stderr == pytest.approx(0.071557942274610389, abs=0)


def test_k4_period_at_ten_million_samples():
    """The acceptance gate: within 3 reported standard errors of 6 zeta(3)
    and within 2 percent, at the frozen representative seed."""
    est = period_monte_carlo(K4, 10 ** 7, seed=3)
    target = 6 * float(mzv_eval(Composition((3,)), 20).value)
    assert abs(est.value - target) < 3 * est.stderr
    assert abs(est.value - target) / target < 0.02


def test_w4_period_loose():
    # slow heavy-tailed convergence: 15 percent gate at one million samples
    est = period_monte_carlo(W4, 10 ** 6, seed=42)
    target = 20 * float(mzv_eval(Composition((5,)), 20).value)
    assert abs(est.value - target) / target < 0.15
    assert est.value == pytest.approx(18.834442847799671, abs=0)


def test_w5_frozen_run():
    # the 121-tree wheel, frozen at 10^5 samples
    est = period_monte_carlo(wheel(5), 10 ** 5, seed=1)
    assert est.value == pytest.approx(61.44017530036692, abs=0)
    assert est.stderr == pytest.approx(9.35662506193187, abs=0)


def mask_integrand(graph):
    """The integrand as a boolean mask per monomial, as the oracle: for each
    monomial the row-wise products of u over its free edges and of 1 - u
    over the others, taken from copies of the batch."""
    psi = kirchhoff_polynomial(graph)
    masks = np.zeros((len(psi), graph.n_edges - 1), dtype=bool)
    for row, m in enumerate(psi.monomials):
        for e in m:
            if e < graph.n_edges - 1:
                masks[row, e] = True

    def integrand(u):
        one_minus = 1.0 - u
        phi = np.zeros(len(u))
        for sel in masks:
            phi += u[:, sel].prod(axis=1) * one_minus[:, ~sel].prod(axis=1)
        return 1.0 / (phi * phi)

    return integrand


@pytest.mark.parametrize("graph", [
    K4, W4, wheel(5), Graph(2, [(1, 2), (1, 2)]),
], ids=["K4", "W4", "W5", "banana"])
@pytest.mark.parametrize("samples", [12345, 70001])
def test_period_integrand_is_bit_identical_to_the_mask_oracle(monkeypatch, graph, samples):
    # 12345 and 70001 are multiples of neither the 2^13-sample chunk nor the
    # 2^16-sample batch; the banana's two monomials have an empty u product
    # and an empty 1 - u product
    batches = []

    def recording(integrand, dimension, terms, samples, seed):
        def record(u):
            batches.append(integrand(u))
            return batches[-1]
        return monte_carlo(record, dimension, terms, samples, seed)

    monkeypatch.setattr(feynman, "monte_carlo", recording)
    est = period_monte_carlo(graph, samples, seed=5)
    ours = batches.copy()
    batches.clear()
    oracle = recording(mask_integrand(graph), graph.n_edges - 1,
                       len(kirchhoff_polynomial(graph)), samples, 5)
    assert len(ours) == len(batches) == math.ceil(samples / 2 ** 16)
    assert all(np.array_equal(a, b) for a, b in zip(ours, batches))
    assert (est.value, est.stderr) == (oracle.value, oracle.stderr)


def test_sample_budget_not_divisible_by_batch():
    est = period_monte_carlo(K4, 12345, seed=1)
    assert est.samples == 12345


# ------------------------------------------------------------ matching

def test_match_k4_period():
    est = period_monte_carlo(K4, 10 ** 6, seed=3)
    matches = match_period(est.value, max(est.stderr, 0.02 * est.value), 3)
    accepted = {(m.label, m.coefficient) for m in matches}
    assert ("zeta(3)", 6) in accepted


def test_match_weight_six_product():
    with mp.workdps(30):
        target = 36 * float(mzv_eval(Composition((3,)), 20).value) ** 2
    matches = match_period(target * 1.0001, 0.001 * target, 6)
    accepted = {(m.label, m.coefficient) for m in matches}
    assert ("zeta(3)*zeta(3)", 36) in accepted
    # at a tight error the integer coefficient also ranks first among
    # denominator-1 matches for this constant
    first = next(m for m in matches if m.label == "zeta(3)*zeta(3)")
    assert first.coefficient == 36


def test_weight_eight_combination_is_a_known_constant():
    from mzvtools.feynman import period_candidates
    table = {label: value for label, _, value in period_candidates(8)}
    # the census's zeta(5,3) = sum_{m>n} m^-5 n^-3 is the order (3,5) here;
    # the other order was listed too until it was settled
    label = "27/5*zeta(3,5) + 45/4*zeta(5)*zeta(3) - 261/20*zeta(8)"
    assert label in table
    assert "27/5*zeta(5,3) + 45/4*zeta(5)*zeta(3) - 261/20*zeta(8)" not in table
    assert mzv_eval((3, 5), 30).nstr() == "0.0377076729848475440113047822937"
    value = float(table[label])
    matches = match_period(value * 0.999, 0.005 * value, 8)
    hit = [m for m in matches if m.label == label]
    assert hit and hit[0].coefficient == 1
    assert hit[0].score <= 3


@pytest.mark.parametrize("q,text", [
    (2, "54/5*zeta(3,5) + 45/2*zeta(5)*zeta(3) - 261/10*zeta(8) = 2.2458626  (0.00 sigma)"),
    (-1, "-27/5*zeta(3,5) - 45/4*zeta(5)*zeta(3) + 261/20*zeta(8) = -1.1229313  (0.00 sigma)")])
def test_a_scaled_sum_prints_every_term_scaled(q, text):
    # q times a sum is printed term by term, not as a prefix "q*" before
    # its first term, which would scale that term alone
    from mzvtools.feynman import period_candidates
    combination = float(period_candidates(8)[-1][2])
    best = match_period(q * combination, 1e-9 * abs(combination), 8)[0]
    assert str(best) == text
    assert best.label == "27/5*zeta(3,5) + 45/4*zeta(5)*zeta(3) - 261/20*zeta(8)"
    assert best.coefficient == q


@pytest.mark.parametrize("weight", [3, 8, 12])
def test_candidates_are_expressions_with_each_word_evaluated_once(weight, monkeypatch):
    from mzvtools.feynman import period_candidates
    from mzvtools.words import format_expression, parse_expression
    calls = []
    for name in ("mzv_eval", "zeta_euler_maclaurin"):
        real = getattr(feynman, name)
        monkeypatch.setattr(feynman, name, lambda w, d, real=real, name=name: (
            calls.append((name, w)), real(w, d))[1])
    candidates = period_candidates(weight)
    for label, terms, _ in candidates:
        # the label is the expression printed with zeta(...) words, and the
        # expression reads back to the candidate's terms
        assert label == format_expression(terms, "zeta%s")
        assert parse_expression(format_expression(terms)) == list(terms)
    words = {w for _, terms, _ in candidates for _, ws in terms for w in ws}
    assert len(calls) == len(words)
    assert {w for _, w in calls} == {w.parts[0] for w in words if w.depth == 1} | {
        w for w in words if w.depth > 1}
    assert all((name == "zeta_euler_maclaurin") == isinstance(w, int) for name, w in calls)


def test_match_rejects_out_of_range_weight():
    with pytest.raises(ValueError):
        match_period(1.0, 0.1, 13)


def test_match_rejects_negative_or_non_finite_error():
    for error in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            match_period(1.0, error, 3)


def test_match_rejects_non_finite_estimate():
    for estimate in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^estimate must be finite"):
            match_period(estimate, 0.1, 3)


def test_match_numerators_are_bounded_not_scanned():
    # a wide window holds every |a| <= MAX_NUMERATOR already, so a wider one
    # lists the same fits, without scanning the integers past the bound
    start = time.perf_counter()
    wide = match_period(7.2, 1e6, 3)
    huge = match_period(1e300, 1e299, 3)
    elapsed = time.perf_counter() - start
    narrow = match_period(7.2, 1e4, 3)
    assert [(m.coefficient, m.label) for m in wide] == [
        (m.coefficient, m.label) for m in narrow]
    assert len(wide) == 29872
    assert huge == []
    assert elapsed < 1.5


def test_zero_error_is_raised_to_the_ulp():
    # an exact estimate of 6 zeta(3) = 6 zeta(1,2) matches both with score
    # 0, and nothing else lies within three ulps
    value = float(mzv_eval(Composition((3,)), 20).value)
    matches = match_period(6 * value, 0.0, 3)
    assert {(m.label, m.coefficient, m.score) for m in matches} == {
        ("zeta(3)", 6, 0.0), ("zeta(1,2)", 6, 0.0)}
