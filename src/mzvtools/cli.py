"""Command line entry point.

One executable, ``mzv``, with subcommands for the word products, relation
tables, dimension counts, high-precision evaluation, integer-relation
detection and graph periods.  Every run in ``--json`` mode wraps its result
with a manifest recording the command, parameters, precision, seed, tool
version and wall time; identical invocations give byte-identical output up
to the wall-time field.

Exit codes: 0 on success, 1 on domain errors (divergent word where a
convergent one is required, precision too low, insufficient relations,
malformed word or graph literals), 2 on usage errors (unknown flags,
missing arguments).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain

from mpmath import mp, mpf

from . import __version__
from .algebra import shuffle, stuffle, stuffle_combo
from .detect import check_search, detect
from .dims import dimension, weight_counts
from .errors import MAX_DIGITS, integer_in
from .feynman import (Graph, check_match_weight, is_primitive_log_divergent,
                      kirchhoff_polynomial, match_period, period_monte_carlo)
from .lincomb import LinComb
from .numerics import DEFAULT_SEED, GUARD, BigReal, mzv_eval, zeta_euler_maclaurin
from .relations import (DEFAULT_MAX_WEIGHT, build_relation_matrix, check_weight,
                        decompose_in_hoffman_basis, dimension_upper_bound,
                        matrix_rank, relation_table)
from .words import (Composition, format_expression, parse_binary_word, parse_composition,
                    parse_expression, parse_generic_word)

# `dims --table N` runs the three counting recurrences once up to N, about
# N^2 steps; the cap bounds the table's size, not its time.
MAX_TABLE = 500


def _parse_word_literal(text):
    s = text.strip()
    if s.startswith("("):
        return parse_composition(s)
    if all(ch in "01" for ch in s) and s:
        return parse_binary_word(s)
    return parse_generic_word(s)


# The two readings of parse_expression's terms live here, not in a library
# module: perfbench wraps mzv_eval, decompose_in_hoffman_basis and detect
# under this module's names, so its numerics and relations figures count
# only the calls made through them.
def _hoffman_vector(terms, max_weight):
    """The exact reading of an expression: each product expanded by stuffle,
    each word decomposed over the Hoffman words, and the terms summed.  A
    combination of mixed weights, or with a divergent factor, is refused."""
    weights = sorted({sum(w.weight for w in words) for _, words in terms})
    if len(weights) > 1:
        raise ValueError("a decomposition needs one weight, got weights %s" % weights)
    divergent = [w for _, words in terms for w in words if not w.is_convergent]
    if divergent:
        raise ValueError("%s diverges; only convergent words decompose" % (divergent[0],))
    products = [(c, reduce(stuffle_combo, map(LinComb.term, words or (Composition(),))))
                for c, words in terms]
    return LinComb([(h, c * cp * ch) for c, product in products for p, cp in product
                    for h, ch in decompose_in_hoffman_basis(p, max_weight)])


def _value(terms, digits):
    """The numeric reading of an expression.  A word with coefficient 1 is
    ``mzv_eval(word, digits)``.  Any other expression evaluates each
    distinct word once at digits + GUARD, and a sum, whose terms may
    cancel, at the digits of the sum of |c| 2^k over its terms more (a
    product of k words is below 2^k, each below zeta(2) < 2).  A product
    keeps relative digits; a sum has absolute ones, its error below
    10^-digits max(1, |value|), and is rounded once to them.  Working digits
    above MAX_DIGITS are refused before any word is evaluated.
    """
    digits = integer_in(digits, "digits", 1, MAX_DIGITS)
    if len(terms) == 1 and terms[0][0] == 1 and len(terms[0][1]) == 1:
        return mzv_eval(terms[0][1][0], digits)
    size = sum(abs(c) * 2 ** len(words) for c, words in terms).numerator
    # 2^b < 10^(0.302 b) for a b-bit size
    dps = digits + GUARD + (size.bit_length() * 302 // 1000 + 1 if len(terms) > 1 else 0)
    if dps > MAX_DIGITS:
        raise ValueError("%d digits of this expression need %d working digits, more "
                         "than the cap MAX_DIGITS = %d" % (digits, dps, MAX_DIGITS))
    values = {w: mzv_eval(w, dps).value for _, words in terms for w in words}
    with mp.workdps(dps):
        total = mp.fsum(mpf(c.numerator) / c.denominator
                        * mp.fprod(values[w] for w in words) for c, words in terms)
        if len(terms) > 1:  # rounded once at 10^-digits max(1, |total|), kept exact
            # less the digits of the integer part, none below 1
            places = digits - len(str(abs(int(total))).lstrip("0"))
            total = Fraction(int(mp.nint(total * mpf(10) ** places))) / Fraction(10) ** places
    return BigReal(total, digits)


@lru_cache(maxsize=1)
def _build_parser():
    """The ``mzv`` parser, built on the first ``main`` call and then reused:
    building it costs far more than parsing one command line."""
    parser = argparse.ArgumentParser(
        prog="mzv",
        description="exact and numeric toolkit for multiple zeta values")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, parent=sub):
        p = parent.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON with a run manifest")
        return p

    p = add("shuffle", "shuffle product of two words")
    p.add_argument("words", nargs=2, help='two binary words like "10", or dotted letter words like "f3.f5"')

    p = add("stuffle", "stuffle product of two compositions")
    p.add_argument("words", nargs=2, help='two composition literals like "(2)" "(3)"')

    p = add("relations", "emit the double-shuffle relation rows at a weight")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--no-hoffman", action="store_true",
                   help="omit the rows that mix in the divergent word (1)")
    p.add_argument("--max-weight", type=int, default=DEFAULT_MAX_WEIGHT)

    p = add("dims", "dimension table: counting (--table) or exact rank bounds (--max)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", type=int, metavar="N",
                       help="print n, d_n, 2^(n-2), Hoffman count, f-monomial count "
                       "for n = 0..N (N <= %d)" % MAX_TABLE)
    group.add_argument("--max", type=int, metavar="N",
                       help="compute exact rank bounds for weights 2..N")
    p.add_argument("--max-weight", type=int, default=DEFAULT_MAX_WEIGHT,
                   help="the largest N that --max accepts")

    p = add("hoffman-decompose", "rewrite a convergent word over the Hoffman words")
    p.add_argument("word", help='an expression such as "(1,3)" or "2*(1,2) - 2*(3)"')
    p.add_argument("--max-weight", type=int, default=DEFAULT_MAX_WEIGHT)

    p = add("eval", "evaluate a convergent multiple zeta value")
    p.add_argument("word", help='an expression such as "(2,3)" or "(2)*(3) - (5)"')
    p.add_argument("--digits", type=int, default=40)

    p = add("eval-zeta", "evaluate zeta(s) by the Euler-Maclaurin partial sum")
    p.add_argument("s", type=int)
    p.add_argument("--digits", type=int, default=40)

    p = add("detect", "search for an integer relation among MZV expressions")
    p.add_argument("exprs", nargs="+",
                   help='expressions like "28*(3,9)"; put -- before one starting with -')
    p.add_argument("--digits", type=int, default=60)
    p.add_argument("--height-bound", type=int, default=10 ** 6)

    # one parser per action, so only period takes the sampling options; --json
    # sits on each action, where no subparser default can overwrite it
    actions = sub.add_parser("feynman", help="graph polynomial, divergence check, or period "
                             "estimate").add_subparsers(dest="action", required=True)
    for name, help_text in (("psi", "Kirchhoff polynomial"), ("check", "primitive log-divergence"),
                            ("period", "Monte Carlo period estimate")):
        p = add(name, help_text, actions)
        p.add_argument("graph", help="path to a graph file, or a literal graph string")
    p.add_argument("--samples", default="1e6",
                   help="sample count, e.g. 1e7")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--match-weight", type=int, default=None,
                   help="also rank known constants of this weight against the estimate")
    return parser


def _load_graph(arg):
    try:
        with open(arg) as handle:
            return Graph.parse(handle.read())
    except OSError:  # treat the argument as a literal graph string
        return Graph.parse(arg)


def _dispatch(args):
    """Returns (result_obj, text_lines, precision, seed); text_lines is an
    iterable, read only in text mode."""
    cmd = args.command

    if cmd == "shuffle":
        u, v = (_parse_word_literal(w) for w in args.words)
        # "" parses as the empty letter word; the unit takes the other's kind
        combo = shuffle(u or type(v)(), v or type(u)())
        return combo.to_json_obj(), [str(combo)], None, None

    if cmd == "stuffle":
        a, b = (parse_composition(w) for w in args.words)
        combo = stuffle(a, b)
        return combo.to_json_obj(), [str(combo)], None, None

    if cmd == "relations":
        matrix = build_relation_matrix(args.weight, not args.no_hoffman,
                                       args.max_weight)
        combos = [LinComb({matrix.basis[c]: v for c, v in row.items()})
                  for row in matrix.rows()]
        obj = {"weight": matrix.weight,
               "basis": [str(w) for w in matrix.basis],
               "relations": [{"weight": matrix.weight, "provenance": prov,
                              "combo": combo.to_json_obj()}
                             for combo, prov in zip(combos, matrix.provenance)]}
        lines = ["%s = 0   [%s]" % (combo, prov)
                 for combo, prov in zip(combos, matrix.provenance)]
        lines.append("%d relations over %d convergent words"
                     % (matrix.n_rows, len(matrix.basis)))
        return obj, lines, None, None

    if cmd == "dims":
        if args.table is not None:
            counts = weight_counts(integer_in(args.table, "--table", 0, MAX_TABLE))
            rows = [(n, d, 2 ** (n - 2) if n >= 2 else (1 if n == 0 else 0), hoffman, f)
                    for n, (d, hoffman, f) in enumerate(counts)]
            keys = ("weight", "d", "words", "hoffman", "f_monomials")
            lines = ["weight  d_n  2^(n-2)  hoffman  f-monomials"]
            lines += ["%6d %4d %8d %8d %12d" % r for r in rows]
            return {"table": [dict(zip(keys, r)) for r in rows]}, lines, None, None
        # fail on a bad N before any table is built, not hours into the run
        check_weight(args.max, args.max_weight)
        rows = []
        lines = ["weight  2^(n-2)  rank  bound  d_n"]
        for n in range(2, args.max + 1):
            rank = matrix_rank(relation_table(n, args.max_weight))
            bound = dimension_upper_bound(n, args.max_weight)
            rows.append({"weight": n, "words": 2 ** (n - 2), "rank": rank,
                         "bound": bound, "d": dimension(n)})
            lines.append("%6d %8d %5d %6d %4d"
                         % (n, 2 ** (n - 2), rank, bound, dimension(n)))
        return {"bounds": rows}, lines, None, None

    if cmd == "hoffman-decompose":
        terms = parse_expression(args.word)
        combo = _hoffman_vector(terms, args.max_weight)
        return ({"word": format_expression(terms), "decomposition": combo.to_json_obj()},
                ["%s = %s" % (format_expression(terms), combo)], None, None)

    if cmd == "eval":
        terms = parse_expression(args.word)
        value = _value(terms, args.digits)
        obj = {"word": format_expression(terms), "algorithm": "path-split-polylog",
               **value.to_json_obj()}
        line = "%s = %s" % (format_expression(terms, "zeta%s"), value)
        if len(terms) > 1:  # a sum, whose terms may cancel
            obj["absolute"], line = True, line + "  (absolute digits)"
        return obj, [line], args.digits, None

    if cmd == "eval-zeta":
        value = zeta_euler_maclaurin(args.s, args.digits)
        obj = {"s": args.s, "algorithm": "euler-maclaurin", **value.to_json_obj()}
        return obj, ["zeta(%d) = %s" % (args.s, value)], args.digits, None

    if cmd == "detect":
        # refuse the search before any value is computed
        check_search(len(args.exprs), args.digits, args.height_bound)
        values = [_value(parse_expression(e), args.digits) for e in args.exprs]
        result = detect(values, args.digits, args.height_bound)
        lines = [str(result)]
        if result.found:
            relation = [(c, (e,)) for c, e in zip(result.coefficients, args.exprs) if c]
            lines.append("  i.e.  %s = 0" % format_expression(relation, "[%s]"))
        return result.to_json_obj(), lines, args.digits, None

    if cmd == "feynman":
        graph = _load_graph(args.graph)
        if args.action == "psi":
            psi = kirchhoff_polynomial(graph)
            obj = {"graph": str(graph), "monomials": list(psi.monomials),
                   "count": len(psi), "degree": psi.degree}
            return obj, ["psi = %s" % psi,
                         "%d monomials of degree %d" % (len(psi), psi.degree)], None, None
        if args.action == "check":
            flag = is_primitive_log_divergent(graph)
            return ({"graph": str(graph), "primitive_log_divergent": flag},
                    ["%s: %s" % (graph, "primitive log-divergent" if flag
                                 else "not primitive log-divergent")], None, None)
        if args.match_weight is not None:
            check_match_weight(args.match_weight)
        # through float, so that 1e7 parses; period_monte_carlo checks it
        est = period_monte_carlo(graph, float(args.samples), args.seed)
        obj = {"graph": str(graph), "estimate": est.value, "stderr": est.stderr,
               "samples": est.samples, "seed": est.seed}
        lines = ["period estimate %.8f +- %.8f  (%d samples, seed %d)"
                 % (est.value, est.stderr, est.samples, est.seed)]
        if args.match_weight is not None:
            matches = match_period(est.value, est.stderr, args.match_weight)
            obj["matches"] = [m.to_json_obj() for m in matches]
            # formatted only when the text is printed
            lines = chain(lines, ("  candidate: %s" % (m,) for m in matches))
        return obj, lines, None, args.seed

    raise AssertionError("unhandled command %r" % (cmd,))


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        result, lines, precision, seed = _dispatch(args)
    except (ValueError, TypeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    wall = time.perf_counter() - start
    if getattr(args, "json", False):
        parameters = {k: v for k, v in sorted(vars(args).items())
                      if k not in ("command", "json") and v is not None}
        manifest = {"command": args.command, "parameters": parameters,
                    "precision": precision, "seed": seed,
                    "version": __version__, "wall_time_s": round(wall, 6)}
        print(json.dumps({"manifest": manifest, "result": result},
                         sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
