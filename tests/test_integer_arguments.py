"""Every bounded integer argument goes through ``errors.integer_in``: a
non-integral value, an infinity, NaN or a value below the range raises
ValueError naming the argument, and an integral float or Fraction gives the
int's result."""

import math
from fractions import Fraction

import pytest

from mzvtools import (BigReal, Composition, Graph, bernoulli, build_relation_matrix,
                      count_f_monomials, count_hoffman_words, detect, dimension,
                      enumerate_compositions, hypercube_zeta2, lll_reduce, match_period,
                      multiple_polylog, mzv_eval, period_monte_carlo,
                      zeta_euler_maclaurin, zeta_even_closed_form)
from mzvtools.errors import integer_in
from mzvtools.relations import relation_table

K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
BANANA = Graph(2, [(1, 2), (1, 2)])


def detect_values():
    return [mzv_eval((1, 2), 40), mzv_eval((3,), 40)]


# (argument name, call with the argument set to x, a value below its
# range or None when it has none, an accepted int)
ARGUMENTS = [
    ("composition part", lambda x: Composition((2, x)), 0, 4),
    ("weight", enumerate_compositions, -1, 4),
    ("weight", dimension, -1, 4),
    ("weight", count_hoffman_words, -1, 4),
    ("weight", count_f_monomials, -1, 4),
    ("weight", lambda x: relation_table(x).rows(), 1, 4),
    ("weight", lambda x: build_relation_matrix(x).rows(), 1, 4),
    ("max_weight", lambda x: relation_table(4, max_weight=x).rows(), 3, 4),
    ("vertex count", lambda x: Graph(x, K4_EDGES), 0, 4),
    ("edge end", lambda x: Graph(4, [(1, 2), (2, 3), (3, x)]), 0, 4),
    ("weight", lambda x: match_period(1.0, 0.1, x), 1, 4),
    ("samples", lambda x: period_monte_carlo(BANANA, x, 0), 1, 4),
    ("seed", lambda x: period_monte_carlo(BANANA, 4, x), -1, 4),
    ("samples", lambda x: hypercube_zeta2(x, 0), 1, 4),
    ("seed", lambda x: hypercube_zeta2(4, x), -1, 4),
    ("digits", lambda x: mzv_eval((2,), x), 0, 4),
    ("digits", lambda x: multiple_polylog((2,), 0.5, x), 0, 4),
    ("digits", lambda x: zeta_euler_maclaurin(3, x), 0, 4),
    ("digits", lambda x: zeta_even_closed_form(4, x), 0, 4),
    ("digits", lambda x: BigReal(Fraction(1, 3), x), 0, 4),
    ("s", lambda x: zeta_euler_maclaurin(x, 10), 1, 4),
    ("s", lambda x: zeta_even_closed_form(x, 10), 0, 4),
    ("index", bernoulli, -1, 4),
    ("cutoff", lambda x: zeta_euler_maclaurin(2, 10, cutoff=x, correction_terms=2), 0, 4),
    ("correction_terms", lambda x: zeta_euler_maclaurin(2, 10, cutoff=12, correction_terms=x),
     -1, 4),
    # 4 digits are too few for any relation search
    ("digits", lambda x: detect(detect_values(), x), 0, 40),
    ("height_bound", lambda x: detect(detect_values(), 40, x), 0, 4),
    ("lll_reduce entry", lambda x: lll_reduce([[x, 0], [1, 1]]), None, 4),
]


@pytest.mark.parametrize("name,call,below,good", ARGUMENTS,
                         ids=["%s-%d" % (a[0], i) for i, a in enumerate(ARGUMENTS)])
def test_integer_argument_is_refused_or_read_as_an_int(name, call, below, good):
    for bad in [good + 0.5, math.inf, math.nan] + ([below] if below is not None else []):
        with pytest.raises(ValueError) as info:
            call(bad)
        message = str(info.value)
        # a weight above max_weight keeps the cap's own message
        assert (message.startswith(name + " must be an integer")
                or "raise %s explicitly" % name in message), message
    expected = repr(call(good))
    assert repr(call(float(good))) == expected
    assert repr(call(Fraction(good))) == expected


def test_samples_and_seed_are_checked_before_the_primitivity_scan():
    # a wheel on 21 vertices is refused by the scan's vertex cap
    wheel = Graph(21, [(1, v) for v in range(2, 22)]
                  + [(v, (v - 1) % 20 + 2) for v in range(2, 22)])
    with pytest.raises(ValueError, match="21 vertices"):
        period_monte_carlo(wheel, 4, 0)
    with pytest.raises(ValueError, match="^samples must be"):
        period_monte_carlo(wheel, 2.5, 0)
    with pytest.raises(ValueError, match="^seed must be"):
        period_monte_carlo(wheel, 4, 2.5)


@pytest.mark.parametrize("lo,hi,message", [
    (None, None, "n must be an integer, got x"),
    (1, None, "n must be an integer >= 1, got x"),
    (1, 3, "n must be an integer between 1 and 3, got x"),
])
def test_integer_in_states_its_range(lo, hi, message):
    assert integer_in(2, "n", lo, hi) == 2
    for bad in ["x", None]:
        with pytest.raises(ValueError) as info:
            integer_in(bad, "n", lo, hi)
        assert str(info.value) == message.replace("x", str(bad))
