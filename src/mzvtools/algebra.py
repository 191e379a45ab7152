"""Shuffle and stuffle products on words, and their regularizations.

The shuffle product interleaves two letter words in all order-preserving
ways; it is computed by the recursion

    (u a) sh (v b) = ((u a) sh v) b + (u sh (v b)) a

on last letters, with memoization on the (prefix, prefix) pairs, never by
enumerating permutations.  It applies to binary integration words and to
generic letter words alike.

The stuffle (quasi-shuffle) product on compositions interleaves parts and
additionally allows the two current parts to merge by addition:

    (a y_m) st (b y_n) = ((a y_m) st b) y_n + (a st (b y_n)) y_m
                         + (a st b) y_{m+n}

with the empty word as unit.

Both products make the respective word spans commutative algebras, and both
extend to divergent words through regularization: there is exactly one
algebra morphism onto the span of convergent words that fixes every
convergent word and kills the divergent generator(s) -- the single letters
0 and 1 for the shuffle algebra, the part (1) for the stuffle algebra
(taking the regularization parameter to be zero).  Divergence sits at the
word ends: a leading 0 or a trailing 1 for integration words, a trailing
part 1 for compositions.  The maps are computed by peeling those runs; for
example with trailing-1 run m in u 1^m, the product 1 sh (u 1^(m-1))
contains u 1^m exactly m times and otherwise only words with a shorter
trailing run, so reg(u 1^m) = -(1/m) reg(rest) and the recursion
terminates on convergent words.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import check
from .lincomb import LinComb
from .words import BinaryWord, Composition, GenericWord

# At least four times the largest working set seen: 7,963 shuffle and 5,792
# stuffle entries for the weight 2-12 relation tables, 8,190 and 4,095 for
# regularizing every word up to weight 12.
_CACHE_SIZE = 2 ** 15


@lru_cache(maxsize=_CACHE_SIZE)
def _shuffle_letters(u, v):
    """Shuffle two letter tuples; returns ((word, multiplicity), ...)."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out = {}
    for w, c in _shuffle_letters(u[:-1], v):
        key = w + (u[-1],)
        out[key] = out.get(key, 0) + c
    for w, c in _shuffle_letters(u, v[:-1]):
        key = w + (v[-1],)
        out[key] = out.get(key, 0) + c
    return tuple(sorted(out.items()))


@lru_cache(maxsize=_CACHE_SIZE)
def _stuffle_parts(a, b):
    """Stuffle two part tuples; returns ((parts, multiplicity), ...)."""
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    out = {}
    for w, c in _stuffle_parts(a[:-1], b):
        key = w + (a[-1],)
        out[key] = out.get(key, 0) + c
    for w, c in _stuffle_parts(a, b[:-1]):
        key = w + (b[-1],)
        out[key] = out.get(key, 0) + c
    for w, c in _stuffle_parts(a[:-1], b[:-1]):
        key = w + (a[-1] + b[-1],)
        out[key] = out.get(key, 0) + c
    return tuple(sorted(out.items()))


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


@lru_cache(maxsize=_CACHE_SIZE)
def _reg_shuffle(letters):
    """Shuffle regularization on a letter tuple; ((letters, Fraction), ...)."""
    if not letters:
        return (((), Fraction(1)),)
    if letters[0] == 1 and letters[-1] == 0:
        return ((letters, Fraction(1)),)
    if letters[0] == 0:
        # peel the leading 0-run: 0 sh (0^(k-1) v) = k * letters + shorter runs
        k = 1
        while k < len(letters) and letters[k] == 0:
            k += 1
        if k == len(letters):
            return ()  # a pure power of the killed letter
        return _peel(letters, k, _shuffle_letters((0,), letters[1:]), _reg_shuffle)
    # starts with 1, ends with 1: peel the trailing 1-run
    m = 1
    while m < len(letters) and letters[-1 - m] == 1:
        m += 1
    if m == len(letters):
        return ()
    return _peel(letters, m, _shuffle_letters((1,), letters[:-1]), _reg_shuffle)


@lru_cache(maxsize=_CACHE_SIZE)
def _reg_stuffle(parts):
    """Stuffle regularization on a part tuple; ((parts, Fraction), ...)."""
    if not parts or parts[-1] >= 2:
        return ((parts, Fraction(1)),)
    m = 1
    while m < len(parts) and parts[-1 - m] == 1:
        m += 1
    return _peel(parts, m, _stuffle_parts((1,), parts[:-1]), _reg_stuffle)


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
