from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify.rationals import decimal_string, geometric_sum_finite


def test_geometric_sum_finite_known_values():
    assert geometric_sum_finite(Fraction(1, 3), 3) == Fraction(13, 9)
    assert geometric_sum_finite(Fraction(7, 2), 0) == 0
    assert geometric_sum_finite(Fraction(1), 5) == 5


def test_geometric_sum_finite_rejects_negative_length():
    with pytest.raises(ValueError):
        geometric_sum_finite(Fraction(1, 2), -1)


rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**6
)


@given(rationals, st.integers(min_value=0, max_value=50))
@settings(max_examples=100)
def test_geometric_sum_finite_telescopes(x, n):
    if x == 1:
        assert geometric_sum_finite(x, n) == n
        return
    assert geometric_sum_finite(x, n) * (1 - x) == 1 - x**n


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("k", range(1, 9))
def test_geometric_sum_infinite_matches_partial_sums(q, k):
    """The partial sums approach the infinite sum 1/(1-x) from below, within 10^-12."""
    x = Fraction(1, q**k)
    tail = 1 / (1 - x) - geometric_sum_finite(x, 200)
    assert 0 < tail < Fraction(1, 10**12)
    assert tail == x**200 / (1 - x)


def test_decimal_string_truncates():
    assert decimal_string(Fraction(1, 3), 5) == "0.33333"
    assert decimal_string(Fraction(2, 3), 4) == "0.6666"


def test_decimal_string_exact_termination():
    assert decimal_string(Fraction(1, 4)) == "0.25"
    assert decimal_string(Fraction(5)) == "5"
    assert decimal_string(Fraction(0)) == "0"


def test_decimal_string_negative():
    assert decimal_string(Fraction(-1, 8)) == "-0.125"


def test_decimal_string_whole_part_counts_as_significant():
    assert decimal_string(Fraction(7, 3)) == "2.33333333333333333333333333333"
    assert decimal_string(Fraction(-22, 7), 5) == "-3.1428"
    # The whole part is never cut, even past the requested digits.
    assert decimal_string(Fraction(123456789, 1000), 4) == "123456"


def test_decimal_string_needs_a_digit():
    with pytest.raises(ValueError, match="at least one significant digit"):
        decimal_string(Fraction(1, 3), 0)


def test_decimal_string_leading_zeros_not_significant():
    # 1/700 = 0.00142857...; the three leading zeros do not consume digits.
    assert decimal_string(Fraction(1, 700), 4) == "0.001428"
