"""Formal rational linear combinations of words.

A ``LinComb`` is a finite map from words (all of one kind) to nonzero
``fractions.Fraction`` coefficients.  Zero coefficients are dropped
eagerly, so equality is plain map equality and the zero combination is the
empty map.  Iteration is always in the canonical graded-lexicographic word
order, which makes printing and serialization deterministic.

``to_json_obj`` writes ``{"kind": <word kind>, "terms": [{"word": str,
"numerator": int, "denominator": int}, ...]}`` with terms in canonical
order and denominators > 0; the kind is the words' ``kind``
(``"composition"``, ``"binary"`` or ``"letters"``), and each word is
written as the parser of its kind reads it back.  The package writes this
format and does not read it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .errors import _Immutable
from .words import format_expression


class LinComb(_Immutable):
    """A rational linear combination of words of a single kind."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        d = {}
        if hasattr(coeffs, "items"):
            coeffs = coeffs.items()
        for word, c in coeffs:
            if type(c) is not Fraction:  # a Fraction is immutable and kept as it is
                c = Fraction(c)
            if c:
                # a repeated word merges into its earlier coefficient
                if word in d:
                    c += d[word]
                    if not c:
                        del d[word]
                        continue
                d[word] = c
        kinds = {type(w) for w in d}
        if len(kinds) > 1:
            raise TypeError("cannot mix word kinds in one combination: %s"
                            % sorted(t.__name__ for t in kinds))
        object.__setattr__(self, "_coeffs", d)

    @classmethod
    def term(cls, word, coeff=1):
        return cls([(word, Fraction(coeff))])

    def coeff(self, word):
        return self._coeffs.get(word, Fraction(0))

    def terms(self):
        """(word, coefficient) pairs in canonical order."""
        return sorted(self._coeffs.items(), key=lambda t: t[0].sort_key())

    def __add__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb(chain(self._coeffs.items(), other._coeffs.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LinComb({w: -c for w, c in self._coeffs.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, LinComb):
            return NotImplemented
        scalar = Fraction(scalar)
        if not scalar:
            return LinComb()
        return LinComb({w: c * scalar for w, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / Fraction(scalar))

    def __eq__(self, other):
        return isinstance(other, LinComb) and self._coeffs == other._coeffs

    def __bool__(self):
        return bool(self._coeffs)

    def __len__(self):
        return len(self._coeffs)

    def __iter__(self):
        return iter(self.terms())

    def __str__(self):
        return format_expression([(c, (w,)) for w, c in self.terms()])

    def __repr__(self):
        return "LinComb(%s)" % (self,)

    def to_json_obj(self):
        if not self._coeffs:
            return {"kind": None, "terms": []}
        word = next(iter(self._coeffs))
        kind = getattr(word, "kind", None)
        if kind is None:
            raise TypeError("not a word type: %r" % (word,))
        terms = [{"word": str(w), "numerator": c.numerator, "denominator": c.denominator}
                 for w, c in self.terms()]
        return {"kind": kind, "terms": terms}

