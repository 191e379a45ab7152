"""Exact and numeric toolkit for multiple zeta values.

Words and their two products (shuffle on binary words, stuffle on
compositions), regularization of divergent words, the double-shuffle
relation tables with exact rank bounds, high-precision evaluation,
integer-relation detection, and graph polynomials with Monte-Carlo
period estimates.
"""

__version__ = "0.1.0"

from .algebra import (shuffle, shuffle_combo, shuffle_regularize, stuffle,
                      stuffle_combo, stuffle_regularize)
from .detect import DetectionResult, detect, lll_reduce
from .dims import count_f_monomials, count_hoffman_words, dimension, growth_root
from .feynman import (Graph, GraphPolynomial, is_primitive_log_divergent,
                      kirchhoff_polynomial, match_period, period_monte_carlo,
                      spanning_tree_count)
from .lincomb import LinComb
from .numerics import (BigReal, MonteCarloEstimate, bernoulli, hypercube_zeta2,
                       multiple_polylog, mzv_eval, zeta_euler_maclaurin,
                       zeta_even_closed_form)
from .relations import (InsufficientRelationsError, RelationMatrix,
                        build_relation_matrix, decompose_in_hoffman_basis,
                        dimension_upper_bound, hoffman_words, matrix_rank)
from .words import (BinaryWord, Composition, GenericWord, enumerate_compositions,
                    from_binary, parse_binary_word, parse_composition,
                    parse_generic_word)

__all__ = [
    "__version__",
    "BinaryWord", "Composition", "GenericWord", "enumerate_compositions",
    "from_binary", "parse_binary_word", "parse_composition", "parse_generic_word",
    "LinComb",
    "shuffle", "stuffle", "shuffle_combo", "stuffle_combo",
    "shuffle_regularize", "stuffle_regularize",
    "dimension", "count_hoffman_words", "count_f_monomials", "growth_root",
    "BigReal", "MonteCarloEstimate", "bernoulli", "hypercube_zeta2",
    "multiple_polylog", "mzv_eval", "zeta_euler_maclaurin", "zeta_even_closed_form",
    "InsufficientRelationsError", "RelationMatrix",
    "build_relation_matrix", "decompose_in_hoffman_basis",
    "dimension_upper_bound", "hoffman_words", "matrix_rank",
    "DetectionResult", "detect", "lll_reduce",
    "Graph", "GraphPolynomial", "is_primitive_log_divergent",
    "kirchhoff_polynomial", "match_period", "period_monte_carlo",
    "spanning_tree_count",
]
