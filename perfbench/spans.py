"""Layer spans recorded from outside the program.

The toolkit's modules import each other's functions by name, so a span is
recorded by replacing that name in the calling module (for example
``mzvtools.relations.shuffle`` or ``mzvtools.cli.detect``) with a wrapper,
and by replacing two methods on their classes.  A module's calls to its own
public functions go through its globals too, so wrapping
``mzvtools.relations.build_relation_matrix`` also catches the call from the
echelon cache.  ``words`` and ``lincomb`` are not wrapped: they run once
per term, and wrapping them would cost more than they do; their time shows
up as the self time of the caller.

Spans stay in memory as ``[name, parent index, start, end, notes]`` lists
and are written out when the session ends.  Notes are taken after the end
time is read, so their cost lands in the tracing overhead, not in a span.
"""

from __future__ import annotations

import importlib
import time

from workloads import GRAPHS


def _rref_notes(args, kwargs, rank):
    rref = args[0]
    bits = max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for row in rref.pivot_rows.values() for v in row.values()),
               default=0)
    return {"rows_in": len(args[1]), "rank": rank, "bits": bits}


# (module, attribute at the call site, span name, notes(args, kwargs, result))
WRAPS = (
    ("mzvtools.cli", "decompose_in_hoffman_basis", "relations.decompose_in_hoffman_basis", None),
    ("mzvtools.cli", "build_relation_matrix", "relations.build_relation_matrix",
     lambda a, k, r: {"rows": r.n_rows}),
    ("mzvtools.cli", "matrix_rank", "relations.matrix_rank", None),
    ("mzvtools.cli", "mzv_eval", "numerics.mzv_eval", None),
    ("mzvtools.cli", "zeta_euler_maclaurin", "numerics.zeta_euler_maclaurin", None),
    ("mzvtools.cli", "detect", "detect.detect",
     lambda a, k, r: {"dim": len(a[0]), "found": r.found}),
    ("mzvtools.cli", "period_monte_carlo", "feynman.period_monte_carlo",
     lambda a, k, r: {"graph": str(a[0]), "samples": r.samples}),
    ("mzvtools.cli", "kirchhoff_polynomial", "feynman.kirchhoff_polynomial",
     lambda a, k, r: {"graph": str(a[0]), "trees": len(r)}),
    ("mzvtools.cli", "is_primitive_log_divergent", "feynman.is_primitive_log_divergent", None),
    ("mzvtools.cli", "match_period", "feynman.match_period", None),
    ("mzvtools.relations", "shuffle", "algebra.shuffle", None),
    ("mzvtools.relations", "stuffle", "algebra.stuffle", None),
    ("mzvtools.relations", "build_relation_matrix", "relations.build_relation_matrix",
     lambda a, k, r: {"rows": r.n_rows}),
    ("mzvtools.relations", "RelationMatrix.rows", "relations.RelationMatrix.rows",
     lambda a, k, r: {"nnz": sum(len(row) for row in r)}),
    ("mzvtools.linalg", "SparseRREF.insert_all", "linalg.SparseRREF.insert_all", _rref_notes),
    ("mzvtools.detect", "lll_reduce", "detect.lll_reduce", None),
    ("mzvtools.feynman", "is_primitive_log_divergent", "feynman.is_primitive_log_divergent", None),
    ("mzvtools.feynman", "kirchhoff_polynomial", "feynman.kirchhoff_polynomial",
     lambda a, k, r: {"graph": str(a[0]), "trees": len(r)}),
    ("mzvtools.feynman", "mzv_eval", "numerics.mzv_eval", None),
    ("mzvtools.feynman", "zeta_euler_maclaurin", "numerics.zeta_euler_maclaurin", None),
    ("mzvtools.numerics", "hypercube_zeta2", "numerics.hypercube_zeta2",
     lambda a, k, r: {"samples": r.samples}),
)


class Tracer:
    """Collects nested spans from one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def wrap(self, fn, name, notes=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if notes is not None:
                rec[4] = notes(args, kwargs, result)
            return result
        return traced

    def install(self):
        for module, attr, name, notes in WRAPS:
            owner = importlib.import_module(module)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            self._undo.append((owner, path[-1], original))
            setattr(owner, path[-1], self.wrap(original, name, notes))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _children(spans):
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[1] >= 0:
            children[s[1]].append(i)
    return children


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = _children(spans)
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][2], spans[c][3]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, wall, caches):
    """Per-layer figures of one traced session.

    ``wall`` is the traced session's wall time; ``caches`` maps a cache name
    to its ``(hits, misses)`` at the end of the session.
    """
    own = self_times(spans)
    dur = {}
    self_t = {}
    count = {}
    for s, st in zip(spans, own):
        dur[s[0]] = dur.get(s[0], 0.0) + s[3] - s[2]
        self_t[s[0]] = self_t.get(s[0], 0.0) + st
        count[s[0]] = count.get(s[0], 0) + 1

    def notes(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    children = _children(spans)

    def descendants(i):
        stack = list(children[i])
        while stack:
            j = stack.pop()
            yield j
            stack.extend(children[j])

    def has_descendant(i, name):
        return any(spans[j][0] == name for j in descendants(i))

    rref = notes("linalg.SparseRREF.insert_all")
    rows_in = sum(n["rows_in"] for n in rref)
    rank = sum(n["rank"] for n in rref)
    decompose = [i for i, s in enumerate(spans)
                 if s[0] == "relations.decompose_in_hoffman_basis"]
    misses = sum(has_descendant(i, "relations.build_relation_matrix") for i in decompose)
    detects = notes("detect.detect")
    m = {
        "linalg.rref_s": dur.get("linalg.SparseRREF.insert_all", 0.0),
        "linalg.rows_in": rows_in,
        "linalg.rank": rank,
        "linalg.useful_row_ratio": _ratio(rank, rows_in),
        "linalg.max_entry_bits": max((n["bits"] for n in rref), default=0),
        "linalg.first_result_share": _ratio(
            sum(spans[j][3] - spans[j][2] for j in descendants(0)
                if spans[j][0] == "linalg.SparseRREF.insert_all"),
            spans[0][3] - spans[0][2]) if spans else 0.0,
        "relations.row_build_self_s": self_t.get("relations.build_relation_matrix", 0.0)
        + self_t.get("relations.RelationMatrix.rows", 0.0),
        "relations.rows": sum(n["rows"] for n in notes("relations.build_relation_matrix")),
        "relations.nnz": sum(n["nnz"] for n in notes("relations.RelationMatrix.rows")),
        "relations.table_hit_ratio": _ratio(len(decompose) - misses, len(decompose)),
        "algebra.product_s": dur.get("algebra.shuffle", 0.0) + dur.get("algebra.stuffle", 0.0),
        "algebra.products": count.get("algebra.shuffle", 0) + count.get("algebra.stuffle", 0),
        "algebra.cache_hit_ratio": _ratio(*_hits(caches, "shuffle", "stuffle")),
        "numerics.eval_s": dur.get("numerics.mzv_eval", 0.0)
        + dur.get("numerics.zeta_euler_maclaurin", 0.0),
        "numerics.evals": count.get("numerics.mzv_eval", 0)
        + count.get("numerics.zeta_euler_maclaurin", 0),
        "numerics.half_cache_hit_ratio": _ratio(*_hits(caches, "polylog_half")),
        "numerics.mc_samples_per_s": _ratio(
            sum(n["samples"] for n in notes("numerics.hypercube_zeta2")),
            dur.get("numerics.hypercube_zeta2", 0.0)),
        "detect.lll_s": dur.get("detect.lll_reduce", 0.0),
        "detect.self_s": self_t.get("detect.detect", 0.0),
        "detect.lattice_dim": max((n["dim"] for n in detects), default=0),
        "detect.found_ratio": _ratio(sum(n["found"] for n in detects), len(detects)),
        "feynman.primitive_s": dur.get("feynman.is_primitive_log_divergent", 0.0),
        "feynman.psi_s": dur.get("feynman.kirchhoff_polynomial", 0.0),
        "feynman.match_s": dur.get("feynman.match_period", 0.0),
        "cli.self_s": self_t.get("cli.main", 0.0),
    }
    labels = {_canonical(g): label for label, (g, *_rest) in GRAPHS.items()}
    trees = {labels.get(n["graph"]): n["trees"]
             for n in notes("feynman.kirchhoff_polynomial")}
    mc = {}
    for s, st in zip(spans, own):
        if s[0] == "feynman.period_monte_carlo" and s[4] is not None:
            got = mc.setdefault(labels.get(s[4]["graph"]), [0, 0.0])
            got[0] += s[4]["samples"]
            got[1] += st
    for label in GRAPHS:
        m["feynman.trees." + label] = trees.get(label, 0)
        m["feynman.samples_per_s." + label] = _ratio(*mc.get(label, (0, 0.0)))
    roots = sum(s[3] - s[2] for s in spans if s[1] < 0)
    m["trace.uncovered_share"] = _ratio(wall - roots, wall)
    return m


def _hits(caches, *names):
    hits = sum(caches[n][0] for n in names)
    return hits, hits + sum(caches[n][1] for n in names)


def _canonical(graph_text):
    from mzvtools.feynman import Graph
    return str(Graph.parse(graph_text))


def cache_counts():
    """(hits, misses) of the caches whose hit ratios are reported."""
    from mzvtools import algebra, numerics
    out = {}
    for name, fn in (("shuffle", algebra._shuffle_letters),
                     ("stuffle", algebra._stuffle_parts),
                     ("polylog_half", numerics._polylog_half)):
        info = fn.cache_info()
        out[name] = (info.hits, info.misses)
    return out
