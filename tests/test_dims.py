import pytest
from mpmath import mp

from mzvtools import count_f_monomials, count_hoffman_words, dimension
from mzvtools.dims import weight_counts


KNOWN_D = [1, 0, 1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12, 16]

# the real root of X^3 - X - 1, the recurrence's dominant root
GROWTH_ROOT = float(mp.findroot(lambda x: x ** 3 - x - 1, 1.3))


def test_dimension_table():
    assert [dimension(n) for n in range(14)] == KNOWN_D


def test_dimension_recurrence():
    for n in range(3, 40):
        assert dimension(n) == dimension(n - 2) + dimension(n - 3)


def test_dimension_first_twenty_and_far_out():
    assert [dimension(n) for n in range(20)] == KNOWN_D + [21, 28, 37, 49, 65, 86]
    # far beyond any recursion limit; the Hoffman count obeys the same recurrence
    assert dimension(2500) == count_hoffman_words(2500)


def test_dimension_rejects_negative():
    with pytest.raises(ValueError):
        dimension(-1)


def test_hoffman_count_small():
    # words over parts {2,3}: weight 5 has (2,3) and (3,2)
    assert count_hoffman_words(5) == 2
    assert count_hoffman_words(0) == 1
    assert count_hoffman_words(1) == 0


def test_f_monomial_count_small():
    assert count_f_monomials(0) == 1
    assert count_f_monomials(1) == 0
    assert count_f_monomials(2) == 1  # the even generator alone
    assert count_f_monomials(3) == 1  # f3
    assert count_f_monomials(5) == 2  # f5, f3*(even)


@pytest.mark.parametrize("n", range(0, 65))
def test_three_counts_agree(n):
    d = dimension(n)
    assert count_hoffman_words(n) == d
    assert count_f_monomials(n) == d


def test_weight_counts_rows_are_the_per_weight_counts():
    rows = weight_counts(60)
    assert rows == [(dimension(n), count_hoffman_words(n), count_f_monomials(n))
                    for n in range(61)]
    assert weight_counts(0) == [(1, 1, 1)]
    with pytest.raises(ValueError):
        weight_counts(-1)


def test_growth_root_is_the_real_root():
    r = GROWTH_ROOT
    assert abs(r ** 3 - r - 1) < 1e-12
    assert 1.3247 < r < 1.3248


def test_dimension_growth_matches_root():
    ratio = dimension(200) / dimension(199)
    assert abs(ratio - GROWTH_ROOT) < 1e-3
