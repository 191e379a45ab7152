import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from mzvtools import (BigReal, BinaryWord, Composition, GenericWord, Graph,
                      GraphPolynomial, LinComb, build_relation_matrix,
                      enumerate_compositions, from_binary, parse_binary_word,
                      parse_composition, parse_generic_word)
from mzvtools.errors import MAX_DIGITS
from mzvtools.words import format_expression, parse_expression


def test_composition_basics():
    c = Composition((1, 2))
    assert c.weight == 3
    assert c.depth == 2
    assert c.parts == (1, 2)
    assert str(c) == "(1,2)"
    assert len(c) == 2


def test_empty_composition_is_convergent():
    assert Composition().is_convergent
    assert Composition().weight == 0
    assert BinaryWord().is_convergent


def test_convergence_is_decided_by_last_part():
    assert Composition((5, 1, 2)).is_convergent
    assert not Composition((2, 1)).is_convergent
    assert not Composition((1,)).is_convergent
    assert Composition((2,)).is_convergent


def test_bad_parts_rejected():
    with pytest.raises(ValueError):
        Composition((0, 2))
    with pytest.raises(ValueError):
        Composition((-1,))
    # non-integral parts used to be truncated: (2.5, 3) was (2,3)
    for parts in [(2.5, 3), (2, float("inf")), (float("nan"),)]:
        with pytest.raises(ValueError, match="composition part must be an integer >= 1"):
            Composition(parts)
    assert Composition((2.0, 3)) == Composition((2, 3))


def test_to_binary_examples():
    # each part n contributes the block 1 0^(n-1), left to right
    assert Composition((2,)).to_binary() == BinaryWord("10")
    assert Composition((1, 2)).to_binary() == BinaryWord("110")
    assert Composition((3, 2)).to_binary() == BinaryWord("10010")
    assert Composition().to_binary() == BinaryWord()


def test_from_binary_examples():
    assert from_binary(BinaryWord("10")) == Composition((2,))
    assert from_binary(BinaryWord("110")) == Composition((1, 2))
    assert from_binary(BinaryWord()) == Composition()


def test_from_binary_rejects_leading_zero():
    with pytest.raises(ValueError):
        from_binary(BinaryWord("010"))


@pytest.mark.parametrize("weight", range(0, 9))
def test_binary_round_trip(weight):
    for c in enumerate_compositions(weight):
        w = c.to_binary()
        assert w.weight == weight
        assert from_binary(w) == c


@pytest.mark.parametrize("weight", range(2, 10))
def test_convergence_transports_through_encoding(weight):
    for c in enumerate_compositions(weight):
        assert c.to_binary().is_convergent == c.is_convergent


def test_binary_convergent_means_starts_one_ends_zero():
    assert BinaryWord("10").is_convergent
    assert BinaryWord("1100").is_convergent
    assert not BinaryWord("01").is_convergent
    assert not BinaryWord("11").is_convergent
    assert not BinaryWord("0").is_convergent


@pytest.mark.parametrize("letters, bad", [
    ([1.7, 0.2], "1.7"),
    ([1, 0.5], "0.5"),
    ([1, math.nan], "nan"),
    (["1", "0"], "'1'"),
    ([1, 0, 2], "2"),
    ("102", "'2'"),
])
def test_binary_letters_not_equal_to_0_or_1_are_refused(letters, bad):
    # a letter is never truncated to 0 or 1, and the first bad one is named
    with pytest.raises(ValueError) as info:
        BinaryWord(letters)
    assert str(info.value) == "binary word letters must be 0 or 1, got " + bad


@pytest.mark.parametrize("letters", [
    [True, False], [1.0, 0.0], [np.int64(1), np.int8(0)], "10", (1, 0), iter([1, 0]),
], ids=["bool", "float", "numpy", "str", "tuple", "iterator"])
def test_binary_letters_equal_to_0_or_1_are_stored_as_ints(letters):
    w = BinaryWord(letters)
    assert w == BinaryWord("10")
    assert [type(a) for a in w.letters] == [int, int]


@pytest.mark.parametrize("weight,total,convergent", [
    (2, 2, 1), (3, 4, 2), (4, 8, 4), (5, 16, 8), (6, 32, 16),
])
def test_enumeration_counts(weight, total, convergent):
    # 2^(n-1) compositions of n, of which 2^(n-2) are convergent
    assert len(list(enumerate_compositions(weight))) == total
    assert len(list(enumerate_compositions(weight, convergent_only=True))) == convergent


def test_enumeration_is_sorted_and_duplicate_free():
    cs = list(enumerate_compositions(7))
    assert len(set(cs)) == len(cs)
    assert cs == sorted(cs)


def test_dual_is_an_involution_and_swaps_letters():
    w = BinaryWord("1100")
    assert w.dual() == BinaryWord("1100")  # this one is self-dual
    v = BinaryWord("110")
    assert v.dual() == BinaryWord("100")
    for letters in ("10", "110", "10010", "111000"):
        u = BinaryWord(letters)
        assert u.dual().dual() == u
        assert u.dual().weight == u.weight


def test_dual_preserves_convergence():
    for letters in ("10", "1100", "1010", "10010"):
        assert BinaryWord(letters).dual().is_convergent


def test_generic_word():
    w = GenericWord(("f3", "f5"))
    assert str(w) == "f3.f5"
    assert len(w.letters) == 2
    assert GenericWord(()) == GenericWord(())


def test_parsers_round_trip():
    assert parse_composition("(1,2)") == Composition((1, 2))
    assert parse_composition("()") == Composition()
    assert parse_binary_word("110") == BinaryWord("110")
    assert parse_generic_word("f3.f5") == GenericWord(("f3", "f5"))
    assert parse_generic_word("") == GenericWord()
    assert parse_composition(str(Composition((4, 1, 2)))) == Composition((4, 1, 2))


def test_parser_errors():
    with pytest.raises(ValueError):
        parse_composition("(1,2")
    with pytest.raises(ValueError):
        parse_composition("1,2")
    with pytest.raises(ValueError, match="got '2'"):
        parse_binary_word("102")
    for text in ("f3..f5", "f3.", ".", ".f5"):
        with pytest.raises(ValueError, match="empty letter"):
            parse_generic_word(text)


def test_expression_terms():
    c = Composition
    assert parse_expression("28*(3,9) + 150*(5,7) + 168*(7,5) - 5197/691*(12)") == [
        (28, (c((3, 9)),)), (150, (c((5, 7)),)), (168, (c((7, 5)),)),
        (Fraction(-5197, 691), (c((12,)),))]
    assert parse_expression(" (2,3) ") == [(1, (c((2, 3)),))]
    # a product keeps its words in order, and its rationals multiply
    assert parse_expression("2*(3)*1/3*(2)") == [(Fraction(2, 3), (c((3,)), c((2,))))]
    # a leading sign belongs to the first term; a rational alone is the empty product
    assert parse_expression("-(3) + 1/2") == [(-1, (c((3,)),)), (Fraction(1, 2), ())]
    assert parse_expression("+(2)-(2)") == [(1, (c((2,)),)), (-1, (c((2,)),))]
    # the sign of an exponent splits no term
    assert parse_expression("1e-5*(3) - 2.5E+1*(2)") == [
        (Fraction(1, 100000), (c((3,)),)), (-25, (c((2,)),))]
    assert all(type(q) is Fraction for q, _ in parse_expression("2*(3) - 1.5"))


@pytest.mark.parametrize("text", [
    "28*(3,9) + 150*(5,7) + 168*(7,5) - 5197/691*(12)", "(3,9)", "-(3)", "-1/2", "1",
    "(2)*(3) - (2,3)", "-2*(3)*(2) + 1/100000*(4) - 11*(2)", "-11*(2) - 1/11*(3)"])
def test_expressions_print_as_they_read(text):
    assert format_expression(parse_expression(text)) == text


def test_expression_words_print_through_a_format():
    assert (format_expression(parse_expression("-(3)+(2)*(2) - 1e-5"), "zeta%s")
            == "-zeta(3) + zeta(2)*zeta(2) - 1/100000")


def test_the_printer_never_rewrites_a_word():
    # signs come from the coefficients alone; a word's text, "-1*" or
    # "+ -" in it included, is printed as it is
    assert format_expression([(1, ("a-1*b",)), (-1, ("+ -c",))]) == "a-1*b - + -c"
    assert format_expression([(-1, ("x",)), (-1, ()), (Fraction(-3, 2), ("y", "z"))],
                             "[%s]") == "-[x] - 1 - 3/2*[y]*[z]"
    assert format_expression([]) == "0"


@pytest.mark.parametrize("text,message", [
    ("", "empty factor"), ("(3) +", "empty factor"), ("(3) + -(2)", "empty factor"),
    ("2**(3)", "empty factor"), ("(1,2", "composition literal"),
    ("x*(3)", "invalid literal for a coefficient: 'x'"),
    ("(2)*inf", "invalid literal"), ("1/0*(3)", "zero denominator in '1/0'"),
    ("0.0/1", "invalid literal")])
def test_expression_errors(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_expression(text)


@pytest.mark.parametrize("text", [
    "1e2000", "1e-2000", "5.5e2000", "1" * 2001, "1/" + "1" * 2001, "1" * 2001 + "/3",
    "1e9999999", "1e999999999"])
def test_coefficients_past_max_digits_are_refused_from_the_text(text):
    # Fraction("1e9999999") alone takes seconds; the text decides first
    start = time.perf_counter()
    with pytest.raises(ValueError, match="has more than %d digits" % MAX_DIGITS):
        parse_expression(text + "*(3)")
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("text", ["1e1999", "1e-1999", "5.5e1999", "1" * 2000,
                                  "1/" + "1" * 2000])
def test_coefficients_at_max_digits_are_read(text):
    assert parse_expression(text) == [(Fraction(text), ())]


def test_ordering_is_by_weight_then_parts():
    a = Composition((3,))
    b = Composition((1, 2))
    assert b < a  # same weight, lexicographic on parts
    assert Composition((2,)) < b  # lower weight first


def test_compositions_hash_and_eq():
    assert Composition((1, 2)) == Composition((1, 2))
    assert hash(Composition((1, 2))) == hash(Composition((1, 2)))
    assert Composition((1, 2)) != Composition((2, 1))
    d = {Composition((2,)): "a", BinaryWord("10"): "b"}
    assert len(d) == 2


def test_word_types_with_the_same_tuple_are_unequal():
    assert BinaryWord("10") != GenericWord((1, 0))
    assert GenericWord((1, 0)) != BinaryWord("10")
    assert Composition((1, 2)) != GenericWord((1, 2))
    assert GenericWord((1, 2)) != Composition((1, 2))
    same = {Composition((1, 1)), BinaryWord((1, 1)), GenericWord((1, 1))}
    assert len(same) == 3
    # each type hashes to (its name, its tuple), so set and dict orders of
    # words stay what they were
    for w in same:
        tup = w.parts if isinstance(w, Composition) else w.letters
        assert hash(w) == hash((type(w).__name__, tup))


@pytest.mark.parametrize("word", [Composition((1, 2)), BinaryWord("10"),
                                  GenericWord(("f3", "f5"))])
@pytest.mark.parametrize("name", ["letters", "parts", "weight", "kind", "other"])
def test_setting_an_attribute_names_the_class(word, name):
    with pytest.raises(AttributeError, match="^%s is immutable$" % type(word).__name__):
        setattr(word, name, ())


@pytest.mark.parametrize("word", [Composition((1, 2)), BinaryWord("10"),
                                  GenericWord(("f3", "f5"))])
def test_deleting_the_letters_is_refused(word):
    # a word without its tuple could not even be hashed
    for name in ("letters", "parts"):
        with pytest.raises(AttributeError, match="^%s is immutable$" % type(word).__name__):
            delattr(word, name)
    assert word == type(word)(word.letters) and hash(word)


# the other value types share the words' immutable base
@pytest.mark.parametrize("make", [
    lambda: LinComb.term(Composition((2,)), 3),
    lambda: BigReal(1, 10),
    lambda: Graph.parse("V=3; 1-2,1-3,2-3"),
    lambda: GraphPolynomial([(0,), (1,)]),
    lambda: build_relation_matrix(4),
], ids=["LinComb", "BigReal", "Graph", "GraphPolynomial", "RelationMatrix"])
def test_value_types_refuse_setting_and_deleting(make):
    obj = make()
    text = str(obj)
    refused = "^%s is immutable$" % type(obj).__name__
    for name in obj.__slots__:
        with pytest.raises(AttributeError, match=refused):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=refused):
            delattr(obj, name)
        getattr(obj, name)
    assert str(obj) == text
