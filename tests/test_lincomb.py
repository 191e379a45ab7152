from fractions import Fraction

import pytest

from mzvtools import (BinaryWord, Composition, GenericWord, LinComb, parse_binary_word,
                      parse_composition, parse_generic_word)


def combo(*pairs):
    return LinComb([(Composition(p), Fraction(c)) for p, c in pairs])


def test_construction_and_lookup():
    x = combo(((2,), 1), ((1, 2), Fraction(1, 3)))
    assert x.coeff(Composition((2,))) == 1
    assert x.coeff(Composition((1, 2))) == Fraction(1, 3)
    assert x.coeff(Composition((5,))) == 0
    assert len(x) == 2


def test_zero_coefficients_are_dropped():
    x = combo(((2,), 0))
    assert not x
    assert len(x) == 0
    assert x == LinComb.zero()


A, B, C = Composition((2,)), Composition((3,)), Composition((1, 2))


@pytest.mark.parametrize("pairs, expected", [
    ([(A, 1), (A, 2)], [(A, 3)]),
    # duplicates that cancel leave no term
    ([(A, 1), (B, 2), (A, -1)], [(B, 2)]),
    ([(A, Fraction(1, 3)), (A, Fraction(-1, 3))], []),
    # a word re-added after cancelling keeps its new coefficient
    ([(A, 1), (A, -1), (A, Fraction(5, 2))], [(A, Fraction(5, 2))]),
    # a zero coefficient for a word already present leaves it unchanged
    ([(A, 4), (A, 0), (A, Fraction(0))], [(A, 4)]),
    # terms() is in canonical order, whatever the input order and merges
    ([(C, 1), (B, 2), (A, 3), (C, 1), (B, -2)], [(A, 3), (C, 2)]),
], ids=["accumulate", "cancel", "cancel-fractions", "re-added", "zero-added",
        "order"])
def test_duplicate_words_accumulate(pairs, expected):
    x = LinComb(pairs)
    assert x.terms() == expected
    assert all(type(c) is Fraction for _, c in x.terms())
    assert x == LinComb(dict(expected))
    assert x.to_json_obj() == {
        "kind": "composition" if expected else None,
        "terms": [{"word": str(w), "numerator": Fraction(c).numerator,
                   "denominator": Fraction(c).denominator} for w, c in expected]}


def test_vector_space_axioms():
    x = combo(((2,), 1), ((3,), 2))
    y = combo(((3,), -2), ((1, 2), 5))
    assert x + y == combo(((2,), 1), ((1, 2), 5))
    assert x - x == LinComb.zero()
    assert -x == combo(((2,), -1), ((3,), -2))
    assert 2 * x == x * 2 == combo(((2,), 2), ((3,), 4))
    assert x * Fraction(1, 2) == combo(((2,), Fraction(1, 2)), ((3,), 1))
    assert x / 2 == x * Fraction(1, 2)
    assert (x + y) + x == x + (y + x)


def test_term_constructor():
    assert LinComb.term(Composition((2,))) == combo(((2,), 1))
    assert LinComb.term(Composition((2,)), -3) == combo(((2,), -3))


def test_mixing_word_kinds_rejected():
    with pytest.raises(TypeError):
        LinComb([(Composition((2,)), Fraction(1)), (BinaryWord("10"), Fraction(1))])
    with pytest.raises(TypeError):
        combo(((2,), 1)) + LinComb.term(BinaryWord("10"))


def test_terms_are_canonically_ordered():
    x = combo(((3,), 1), ((1, 2), 1), ((2,), 1))
    words = [w for w, _ in x.terms()]
    assert words == sorted(words)
    assert str(x) == "(2) + (1,2) + (3)"


def test_str_formats_signs_and_fractions():
    x = combo(((2,), Fraction(-1, 3)), ((3,), 1))
    assert str(x) == "-1/3*(2) + (3)"
    assert str(LinComb.zero()) == "0"


# The public parser of each word kind; the package writes combinations as
# JSON but does not read them, so the reader lives here.
PARSERS = {"composition": parse_composition, "binary": parse_binary_word,
           "letters": parse_generic_word}


def from_json_obj(obj):
    """The combination that ``LinComb.to_json_obj`` wrote as ``obj``."""
    return LinComb([(PARSERS[obj["kind"]](t["word"]), Fraction(t["numerator"], t["denominator"]))
                    for t in obj["terms"]])


def test_json_round_trip():
    x = combo(((1, 2), Fraction(2, 7)), ((3,), -4))
    obj = x.to_json_obj()
    assert obj["kind"] == "composition"
    assert from_json_obj(obj) == x
    assert from_json_obj(LinComb.zero().to_json_obj()) == LinComb.zero()


def test_json_round_trip_binary():
    x = LinComb([(BinaryWord("10"), Fraction(1, 2)), (BinaryWord(), -3)])
    obj = x.to_json_obj()
    assert obj["kind"] == "binary"
    assert from_json_obj(obj) == x


def test_json_round_trip_letters():
    x = LinComb([(GenericWord(("f3", "f5")), Fraction(1, 2)), (GenericWord(), -3)])
    obj = x.to_json_obj()
    assert obj["kind"] == "letters"
    assert from_json_obj(obj) == x


def test_json_of_a_key_that_is_not_a_word_is_a_type_error():
    with pytest.raises(TypeError, match=r"^not a word type: \(1, 2\)$"):
        LinComb({(1, 2): 1}).to_json_obj()


def test_equality_ignores_term_order():
    a = combo(((2,), 1), ((3,), 1))
    b = combo(((3,), 1), ((2,), 1))
    assert a == b
    assert hash(str(a)) == hash(str(b))
