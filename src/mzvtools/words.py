"""Index words for multiple zeta values.

Two word types share the weight grading:

* ``Composition`` -- a tuple of integer parts >= 1, written ``(n1,...,nr)``.
  It indexes the nested sum over 1 <= k1 < ... < kr with factor
  1/(k1^n1 ... kr^nr).  The *last* index runs fastest to infinity, so the
  series converges exactly when the last part is >= 2 (or the word is empty,
  which denotes the empty product 1).
* ``BinaryWord`` -- a word in the two letters 0 and 1, written like ``"110"``.
  It indexes an iterated integral over the simplex 0 <= t1 <= ... <= tn <= 1
  with dt/(1-t) for letter 1 and dt/t for letter 0, reading letters left to
  right along increasing t.  The integral converges exactly when the word is
  empty or starts with 1 and ends with 0.

The encoding between the two sends a part n to one letter 1 followed by n-1
letters 0, concatenated over the parts.  Under it, convergent compositions
correspond exactly to convergent binary words.

``GenericWord`` is a plain word over an arbitrary alphabet of hashable,
orderable letters; it carries the shuffle product for alphabets such as
f3, f5, f7, ... where no integral encoding is involved.

All three are immutable tuples of letters on one private base: a
composition is the word y_n1...y_nr in the letters y_n (Hoffman,
"Quasi-shuffle products", 2000), so its letters are its parts.  Each type
names its kind in the class attribute ``kind`` (``"composition"``,
``"binary"``, ``"letters"``), the name JSON output gives it.  Canonical
order everywhere is graded lexicographic: first by weight (word length for
letter words, the sum of the parts for compositions), then
lexicographically.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import MAX_DIGITS, _Immutable, integer_in

# A binary letter as its int, looked up by a value equal to it (equal values
# hash alike) or by its character in a str.
_BITS = {0: 0, 1: 1}
_CHAR_BITS = {"0": 0, "1": 1}


class _Word(_Immutable):
    """A word as an immutable tuple ``letters``.

    Equality needs the same type and the same tuple, so words of different
    kinds never compare equal; ordering is by ``sort_key``.
    """

    __slots__ = ("letters",)

    def __init__(self, letters):
        object.__setattr__(self, "letters", letters)

    @property
    def weight(self):
        return len(self.letters)

    def sort_key(self):
        return (self.weight, self.letters)

    def __eq__(self, other):
        return type(other) is type(self) and self.letters == other.letters

    def __hash__(self):
        return hash((type(self).__name__, self.letters))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.letters)


class Composition(_Word):
    """An index word (n1,...,nr) with integer parts >= 1.

    It is the word y_n1...y_nr, so its letters are its parts; the weight is
    their sum.
    """

    __slots__ = ()
    kind = "composition"
    parts = _Word.letters  # the same slot, read-only under its own name

    def __init__(self, parts=()):
        super().__init__(tuple([integer_in(p, "composition part", 1) for p in parts]))

    @property
    def weight(self):
        return sum(self.parts)

    @property
    def depth(self):
        return len(self.parts)

    @property
    def is_convergent(self):
        """True when the indexed series converges: empty, or last part >= 2."""
        return not self.parts or self.parts[-1] >= 2

    def to_binary(self):
        """Encode as a binary word: each part n becomes 1 followed by n-1 zeros."""
        letters = []
        for p in self.parts:
            letters.append(1)
            letters.extend([0] * (p - 1))
        return BinaryWord(letters)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


class BinaryWord(_Word):
    """A word in the letters 0 and 1, indexing an iterated integral.

    The letters are the characters of a str such as ``"110"``, or values
    equal to 0 or 1, as ``errors.integer_in`` reads an integer (so ``1.0``
    and ``True`` are the int 1).  Any other letter, ``0.5``, NaN or the str
    ``"1"`` among them, raises ValueError naming the first such letter, and
    an unhashable one TypeError.
    """

    __slots__ = ()
    kind = "binary"

    def __init__(self, letters=()):
        # one lookup per letter, in C: it checks the letter and gives its int
        bits = _CHAR_BITS if isinstance(letters, str) else _BITS
        try:
            letters = tuple(map(bits.__getitem__, letters))
        except KeyError as exc:
            raise ValueError("binary word letters must be 0 or 1, got %r" % exc.args) from None
        super().__init__(letters)

    @property
    def is_convergent(self):
        """True when empty, or the word starts with 1 and ends with 0."""
        w = self.letters
        return not w or (w[0] == 1 and w[-1] == 0)

    def dual(self):
        """Reverse the word and exchange the letters (the t -> 1-t symmetry)."""
        return BinaryWord(tuple(1 - a for a in reversed(self.letters)))

    def __str__(self):
        return "".join(str(a) for a in self.letters)

    def __repr__(self):
        return "BinaryWord(%r)" % (str(self),)


class GenericWord(_Word):
    """A word over an arbitrary alphabet of hashable, orderable letters."""

    __slots__ = ()
    kind = "letters"

    def __init__(self, letters=()):
        super().__init__(tuple(letters))

    def __str__(self):
        return ".".join(str(a) for a in self.letters)


def from_binary(word):
    """Decode a binary word into the composition it encodes.

    The word must be empty or start with the letter 1 (a leading 0 belongs to
    no composition); it may end with 1, giving a divergent composition.
    """
    w = word.letters if isinstance(word, BinaryWord) else BinaryWord(word).letters
    if w and w[0] != 1:
        raise ValueError("binary word %s starts with 0 and encodes no composition"
                         % ("".join(map(str, w)),))
    return Composition(letters_to_parts(w))


def letters_to_parts(letters):
    """The part tuple encoded by a tuple of letters that is empty or starts
    with 1: each 1 opens a part and each 0 adds one to the open part."""
    parts = []
    for a in letters:
        if a == 1:
            parts.append(1)
        else:
            parts[-1] += 1
    return tuple(parts)


def enumerate_compositions(weight, convergent_only=False):
    """All compositions of the given weight, in graded-lexicographic order.

    There are 2^(weight-1) in total and 2^(weight-2) convergent ones for
    weight >= 2.  The weight is fixed, so the order is lexicographic on the
    part tuples, which the depth-first recursion, smaller parts first,
    yields as it goes.
    """
    weight = integer_in(weight, "weight", 0)
    out = []

    def rec(prefix, remaining):
        if remaining == 0:
            out.append(Composition(prefix))
            return
        for p in range(1, remaining + 1):
            rec(prefix + [p], remaining - p)

    rec([], weight)
    if convergent_only:
        out = [c for c in out if c.is_convergent]
    return out


def parse_composition(text):
    """Parse ``"(1,2)"`` (or ``"()"``) into a Composition."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError("composition literal must look like (1,2), got %r" % (text,))
    inner = s[1:-1].strip()
    if not inner:
        return Composition()
    try:
        parts = [int(tok) for tok in inner.split(",")]
    except ValueError:
        raise ValueError("composition literal must contain integers, got %r" % (text,))
    return Composition(parts)


def _rational(text):
    """A coefficient literal as a Fraction.  Its numerator and denominator
    as written (a/b, or a decimal's digits shifted by its exponent) may have
    at most MAX_DIGITS digits, which is decided from the text before any
    Fraction is built: ``Fraction("1e9999999")`` alone takes seconds."""
    # a/b, or a decimal with an optional exponent
    match = re.fullmatch(r"(\d+)/(\d+)|(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d{1,9}))?", text)
    if match is None:
        raise ValueError("invalid literal for a coefficient: %r" % (text,))
    num, den, whole, frac, exp = match.groups(default="")
    shift = int(exp or 0) - len(frac)  # a decimal is whole.frac * 10^exp
    # the digits of the numerator and of the denominator, as written
    if max(len(num + whole + frac) + max(shift, 0), len(den) or 1 - min(shift, 0)) > MAX_DIGITS:
        raise ValueError("coefficient %r has more than %d digits" % (text, MAX_DIGITS))
    if not int(den or 1):
        raise ValueError("zero denominator in %r" % (text,))
    return Fraction(text)


def parse_expression(text):
    """Parse a rational combination of products of composition literals,
    such as ``"28*(3,9) + 150*(5,7) - 5197/691*(12)"``, into a list of
    ``(Fraction, (Composition, ...))`` terms, one per summand in order.

    A summand is factors joined by ``*``: composition literals, kept in
    order, and rational literals, multiplied with the summand's sign into
    its coefficient; a summand of rationals alone has no compositions, the
    empty product 1.  Summands split at a + or - that does not follow e or
    E, so ``1e-5*(3)`` is one summand.  A malformed literal, an empty factor
    or a coefficient literal with more than ``MAX_DIGITS`` digits in its
    numerator or denominator raises ValueError.
    """
    signed = text if text.lstrip().startswith(("+", "-")) else "+" + text
    # split at each + or - that does not follow the e or E of an exponent
    chunks = re.split(r"(?<![eE])([+-])", signed)
    terms = []
    for sign, chunk in zip(chunks[1::2], chunks[2::2]):
        factors = [tok.strip() for tok in chunk.split("*")]
        if not all(factors):
            raise ValueError("empty factor in %r" % (text,))
        terms.append((math.prod([_rational(f) for f in factors if f[0] != "("],
                                start=Fraction(-1 if sign == "-" else 1)),
                      tuple(parse_composition(f) for f in factors if f[0] == "(")))
    return terms


def format_expression(terms, word="%s"):
    """Write a rational combination of products of words, as ``(coefficient,
    (word, ...))`` terms, in the form ``parse_expression`` reads, each word
    through the format ``word``: the one printer of such combinations.

    Each term's sign is written from its coefficient, a minus before the
    first term and `` + `` or `` - `` between terms, and a coefficient of 1
    is left out before a word; a word's own text is never rewritten.  No
    terms print as ``0``.
    """
    out = []
    for c, words in terms:
        body = "*".join([str(abs(c))] * (abs(c) != 1 or not words)
                        + [word % (w,) for w in words])
        sign = ("-" if c < 0 else "") if not out else ("- " if c < 0 else "+ ")
        out.append(sign + body)
    return " ".join(out) if out else "0"


def parse_binary_word(text):
    """Parse a string over {0,1} (empty string allowed) into a BinaryWord;
    ``BinaryWord`` refuses any other character with ValueError."""
    return BinaryWord(text.strip())


def parse_generic_word(text):
    """Parse a dot-separated letter list such as ``"f3.f5"`` into a GenericWord.
    The empty text is the empty word; an empty letter raises ValueError."""
    s = text.strip()
    if not s:
        return GenericWord()
    letters = s.split(".")
    if not all(letters):
        raise ValueError("empty letter in the word %r" % (text,))
    return GenericWord(letters)

