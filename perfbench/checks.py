"""Answer checks, run after the timed region of a session.

``check_session`` returns one verdict per request: None when the answer is
right, else a one-line reason.  Requests that raised or exited non-zero
fail before their answer is looked at.  Numeric answers are compared with
the frozen values in ``reference.json`` (see make_reference.py for how
those were validated), never with a fresh evaluation by the code under
test:

* decompositions must use Hoffman words only and cancel below 1e-30 with
  the frozen 40-digit values; dimension bounds must equal the recurrence
  d_n;
* every sweep value and every 300-digit value must equal its frozen value,
  and the depth-1 value must also equal the Euler-Maclaurin sum;
* a found relation must equal the target's exact Hoffman decomposition up
  to scale, and the GKZ search must return the known relation;
* spanning-tree counts must equal the matrix-tree determinant, the graphs
  must be primitive log-divergent, and every estimate finite with a
  positive standard error.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

from mpmath import mp, mpf

import make_reference
import workloads

CANCEL_TOLERANCE = mpf(10) ** -30


@functools.lru_cache(maxsize=None)
def reference():
    """The frozen values: {"low": {parts: text}, "high": {parts: text}}."""
    return make_reference.load()


def _decomposition(req, answer):
    target = req["expect"]["word"]
    if answer["word"] != workloads.literal(target):
        return None, "answered for %s" % answer["word"]
    terms = {}
    for t in answer["decomposition"]["terms"]:
        parts = workloads.parse(t["word"])
        if not workloads.is_hoffman(parts) or sum(parts) != sum(target):
            return None, "non-Hoffman or wrong-weight term %s" % t["word"]
        terms[parts] = Fraction(t["numerator"], t["denominator"])
    return terms, None


def _check_exact(reqs, answers, out):
    from mzvtools.dims import dimension
    low = reference()["low"]
    for i, (req, ans) in enumerate(zip(reqs, answers)):
        if out[i] is not None:
            continue
        if req["kind"] == "dims":
            rows = {r["weight"]: r for r in ans["bounds"]}
            want = range(2, req["expect"]["max"] + 1)
            bad = [n for n in want if n not in rows or rows[n]["bound"] != dimension(n)]
            if bad or len(rows) != len(want):
                out[i] = "dimension bounds differ from d_n at weights %s" % bad
            continue
        terms, why = _decomposition(req, ans)
        if why:
            out[i] = why
            continue
        with mp.workdps(make_reference.LOW_DIGITS + 10):
            residual = mpf(low[req["expect"]["word"]]) - sum(
                mpf(c.numerator) / c.denominator * mpf(low[w]) for w, c in terms.items())
        if abs(residual) >= CANCEL_TOLERANCE:
            out[i] = "decomposition misses by %s" % mp.nstr(residual, 3)


def _check_numeric(reqs, answers, out):
    from mzvtools.numerics import zeta_euler_maclaurin
    from mzvtools.relations import decompose_in_hoffman_basis
    from mzvtools.words import Composition
    frozen = reference()
    for i, (req, ans) in enumerate(zip(reqs, answers)):
        if out[i] is not None or req["kind"] not in ("sweep", "hiprec"):
            continue
        exp = req["expect"]
        parts, digits = exp["word"], exp["digits"]
        if ans["word"] != workloads.literal(parts) or ans["digits"] != digits:
            out[i] = "answered %s at %s digits" % (ans["word"], ans["digits"])
            continue
        with mp.workdps(digits + 10):
            got = mpf(ans["value"])
            tol = mpf(10) ** -(digits - 5)
            refs = [mpf(frozen["low" if req["kind"] == "sweep" else "high"][parts])]
            if len(parts) == 1:
                refs.append(zeta_euler_maclaurin(parts[0], digits).value)
            if any(abs(got - ref) > tol for ref in refs):
                out[i] = "value of %s differs from its reference" % (parts,)
    for i, (req, ans) in enumerate(zip(reqs, answers)):
        if out[i] is not None or req["kind"] != "identify":
            continue
        coeffs = ans["coefficients"]
        exp = req["expect"]
        if coeffs is None:
            out[i] = "no relation found"
        elif "relation" in exp:
            if tuple(coeffs) != exp["relation"]:
                out[i] = "GKZ relation %s" % (coeffs,)
        else:
            target, basis = exp["words"][0], exp["words"][1:]
            exact = decompose_in_hoffman_basis(Composition(target))
            scale = coeffs[0]
            if scale == 0 or any(coeffs[k + 1] != -scale * exact.coeff(Composition(w))
                                 for k, w in enumerate(basis)):
                out[i] = "relation %s is not the exact decomposition" % (coeffs,)


def _finite_positive(est, err):
    return math.isfinite(est) and math.isfinite(err) and err > 0


def _check_periods(reqs, answers, out):
    from mzvtools.feynman import Graph, spanning_tree_count
    for i, (req, ans) in enumerate(zip(reqs, answers)):
        if out[i] is not None:
            continue
        exp = req["expect"]
        kind = req["kind"]
        if kind == "hypercube":
            if not _finite_positive(ans["value"], ans["stderr"]) \
                    or ans["samples"] != exp["samples"]:
                out[i] = "hypercube estimate %r" % (ans,)
            continue
        graph = workloads.GRAPHS[exp["graph"]][0]
        if kind == "psi":
            if ans["count"] != spanning_tree_count(Graph.parse(graph)):
                out[i] = "%d trees" % ans["count"]
        elif kind == "check":
            if ans["primitive_log_divergent"] is not True:
                out[i] = "reported not primitive log-divergent"
        elif not (_finite_positive(ans["estimate"], ans["stderr"])
                  and ans["samples"] == exp["samples"] and ans["seed"] == exp["seed"]):
            out[i] = "period answer %r" % ({k: ans.get(k) for k in
                                            ("estimate", "stderr", "samples", "seed")},)


def parse_answer(req, text):
    """The ``result`` object of a CLI ``--json`` answer (or the raw estimate
    dict of a direct call)."""
    if req["argv"] is None:
        return text
    return json.loads(text)["result"]


def check_session(workload, reqs, results):
    """One verdict per request: None if correct, else the reason.

    ``results`` holds (exit code, stdout text) pairs; exit code None means
    the request raised.
    """
    out = []
    answers = []
    for req, (code, text) in zip(reqs, results):
        answer = None
        if code != 0:
            out.append("exit code %r" % (code,))
        else:
            try:
                answer = parse_answer(req, text)
                out.append(None)
            except (ValueError, KeyError, TypeError) as exc:
                out.append("unreadable answer: %s" % exc)
        answers.append(answer)
    checker = {"exact-w10": _check_exact, "numeric-w10": _check_numeric,
               "periods": _check_periods}[workload]
    try:
        checker(reqs, answers, out)
    except (ValueError, KeyError, TypeError) as exc:
        # an answer too malformed to judge: the check did not finish, so no
        # request without a failure yet can be called correct
        out = [o if o is not None else "check raised %r" % (exc,) for o in out]
    return out


def period_z(label, answer):
    """|estimate - known period| / stderr: how many standard errors the
    estimate sits from the known value (6 zeta(3), 20 zeta(5), 70 zeta(7))."""
    from mzvtools.numerics import zeta_euler_maclaurin
    coeff, s = workloads.GRAPHS[label][3]
    known = coeff * float(zeta_euler_maclaurin(s, 20).value)
    return abs(answer["estimate"] - known) / answer["stderr"]
