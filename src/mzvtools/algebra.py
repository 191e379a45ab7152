"""Shuffle and stuffle products on words, and their regularizations.

Both products are quasi-shuffles (Hoffman, "Quasi-shuffle products", 2000),
computed by one recursion on last letters,

    (u a) * (v b) = ((u a) * v) b + (u * (v b)) a  [+ (u * v) [a + b]],

with the empty word as unit and memoization on the (prefix, prefix) pairs,
never by enumerating permutations.  The shuffle product interleaves two
letter words (binary integration words or generic letter words alike) and
has no bracketed term; the stuffle product on compositions also merges the
two last parts by addition, the bracketed term.

Both products make the respective word spans commutative algebras, and both
extend to divergent words through regularization: there is exactly one
algebra morphism onto the span of convergent words that fixes every
convergent word and kills the divergent generator(s) -- the single letters
0 and 1 for the shuffle algebra, the part (1) for the stuffle algebra
(taking the regularization parameter to be zero).  Divergence sits at the
word ends: a leading 0 or a trailing 1 for integration words, a trailing
part 1 for compositions.  One step serves both maps: it peels a leading run
of the killed letter 0 (shuffle only), or else a trailing run of the killed
letter 1, and fixes any other word.  For example with trailing-1 run m in
u 1^m, the product 1 * (u 1^(m-1)) contains u 1^m exactly m times and
otherwise only words with a shorter trailing run, so reg(u 1^m) is
-(1/m) reg(rest) and the recursion terminates on convergent words; a pure
power 1^m has no rest, so its image is 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import check
from .lincomb import LinComb
from .words import BinaryWord, Composition, GenericWord

# The smallest power of two that holds every product of a cold weight-14
# relation build, build_relation_matrix(14, True, 14): 36,303 shuffle and
# 22,672 stuffle entries, none evicted.  The weight 2-12 tables take 7,963
# and 5,792, and regularizing every word up to weight 12 takes 8,190 and 4,095.
_CACHE_SIZE = 2 ** 16


def _quasi_shuffle(product, merge, u, v):
    """One step of the last-letter recursion; ``product`` is the cached
    function that calls it, and ``merge`` adds the term that merges the two
    last letters by addition."""
    if not u or not v:
        return ((u + v, 1),)
    steps = [(product(u[:-1], v), u[-1]), (product(u, v[:-1]), v[-1])]
    if merge:
        steps.append((product(u[:-1], v[:-1]), u[-1] + v[-1]))
    out = {}
    for terms, last in steps:
        for w, c in terms:
            key = w + (last,)
            out[key] = out.get(key, 0) + c
    return tuple(sorted(out.items()))


@lru_cache(maxsize=_CACHE_SIZE)
def _shuffle_letters(u, v):
    """Shuffle two letter tuples; returns ((word, multiplicity), ...)."""
    return _quasi_shuffle(_shuffle_letters, False, u, v)


@lru_cache(maxsize=_CACHE_SIZE)
def _stuffle_parts(a, b):
    """Stuffle two part tuples; returns ((parts, multiplicity), ...)."""
    return _quasi_shuffle(_stuffle_parts, True, a, b)


def shuffle(u, v):
    """Shuffle product of two words of the same kind (binary or generic)."""
    if type(u) is not type(v) or not isinstance(u, (BinaryWord, GenericWord)):
        raise TypeError("shuffle needs two BinaryWord or two GenericWord arguments")
    return LinComb([(type(u)(w), c) for w, c in _shuffle_letters(u.letters, v.letters)])


def stuffle(a, b):
    """Stuffle product of two compositions."""
    if not (isinstance(a, Composition) and isinstance(b, Composition)):
        raise TypeError("stuffle needs two Composition arguments")
    return LinComb([(Composition(w), c) for w, c in _stuffle_parts(a.parts, b.parts)])


def _bilinear(product, x, y):
    return LinComb([(w, cu * cv * c) for u, cu in x.terms() for v, cv in y.terms()
                    for w, c in product(u, v).terms()])


def shuffle_combo(x, y):
    """Bilinear extension of the shuffle product to linear combinations."""
    return _bilinear(shuffle, x, y)


def stuffle_combo(x, y):
    """Bilinear extension of the stuffle product to linear combinations."""
    return _bilinear(stuffle, x, y)


def _peel(letters, run, terms, regularize):
    """One run-peeling step: ``terms`` is the product of the killed generator
    with ``letters`` minus one letter of its divergent run, which holds
    ``letters`` exactly ``run`` times, so reg(letters) is -1/run times the
    regularized remaining terms."""
    acc = {}
    seen_self = 0
    for w, c in terms:
        if w == letters:
            seen_self = c
            continue
        for rw, rc in regularize(w):
            acc[rw] = acc.get(rw, Fraction(0)) + c * rc
    check(seen_self == run, "run-peeling multiplicity mismatch")
    return tuple(sorted((w, -c / run) for w, c in acc.items() if c))


def _run(letters, x):
    """Length of the leading run of the letter x in ``letters``."""
    return next((i for i, y in enumerate(letters) if y != x), len(letters))


def _reg_step(regularize, product, lead, letters):
    """One regularization step: peel a leading run of the killed letter
    ``lead`` (None when no letter is killed there), or else a trailing run of
    the killed letter 1; fix any other word."""
    if letters[:1] == (lead,):
        return _peel(letters, _run(letters, lead), product((lead,), letters[1:]),
                     regularize)
    if letters[-1:] == (1,):
        return _peel(letters, _run(letters[::-1], 1), product((1,), letters[:-1]),
                     regularize)
    return ((letters, Fraction(1)),)


@lru_cache(maxsize=_CACHE_SIZE)
def _reg_shuffle(letters):
    """Shuffle regularization on a letter tuple; ((letters, Fraction), ...)."""
    return _reg_step(_reg_shuffle, _shuffle_letters, 0, letters)


@lru_cache(maxsize=_CACHE_SIZE)
def _reg_stuffle(parts):
    """Stuffle regularization on a part tuple; ((parts, Fraction), ...)."""
    return _reg_step(_reg_stuffle, _stuffle_parts, None, parts)


def shuffle_regularize(word):
    """Image of a binary word under shuffle regularization.

    The unique shuffle-algebra morphism onto the span of convergent words
    that fixes convergent words and sends both single letters to 0 (the
    regularization parameter set to zero).
    """
    if not isinstance(word, BinaryWord):
        raise TypeError("shuffle_regularize needs a BinaryWord")
    return LinComb([(BinaryWord(w), c) for w, c in _reg_shuffle(word.letters)])


def stuffle_regularize(comp):
    """Image of a composition under stuffle regularization.

    The unique stuffle-algebra morphism onto the span of convergent
    compositions that fixes convergent compositions and sends (1) to 0.
    """
    if not isinstance(comp, Composition):
        raise TypeError("stuffle_regularize needs a Composition")
    return LinComb([(Composition(w), c) for w, c in _reg_stuffle(comp.parts)])
