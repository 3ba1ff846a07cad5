from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattens.arith import (
    bernoulli,
    bernoulli_table,
    faulhaber_sum,
    multinomial,
    power_sum_polynomial,
)


def test_bernoulli_base_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_indices_vanish():
    for m in range(3, 25, 2):
        assert bernoulli(m) == 0


def test_bernoulli_defining_recurrence():
    for m in range(1, 21):
        assert sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0


def test_bernoulli_table():
    table = bernoulli_table(4)
    assert table == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]


def test_euler_convolution_identity():
    for n in range(1, 21):
        lhs = sum(comb(n, i) * bernoulli(i) * bernoulli(n - i) for i in range(n + 1))
        assert lhs == -n * bernoulli(n - 1) - (n - 1) * bernoulli(n)


def test_faulhaber_examples():
    assert faulhaber_sum(3, 2) == 14
    assert faulhaber_sum(10, 3) == 3025
    for k in (0, 1, 5):
        assert faulhaber_sum(k, 0) == k


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=10))
def test_faulhaber_matches_brute_force(k, r):
    assert faulhaber_sum(k, r) == sum(Fraction(i) ** r for i in range(1, k + 1))


def test_power_sum_polynomial_examples():
    assert power_sum_polynomial(0) == [1]
    assert power_sum_polynomial(1) == [Fraction(1, 2), Fraction(1, 2)]
    assert power_sum_polynomial(2) == [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)]


def test_power_sum_polynomial_matches_faulhaber():
    for r in range(0, 11):
        coeffs = power_sum_polynomial(r)
        for k in range(0, 21):
            value = sum(c * Fraction(k) ** (j + 1) for j, c in enumerate(coeffs))
            assert value == faulhaber_sum(k, r)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        bernoulli(-1)
    with pytest.raises(ValueError):
        faulhaber_sum(-1, 2)
    with pytest.raises(ValueError):
        power_sum_polynomial(-3)


def test_multinomial():
    assert multinomial(3, (3, 0)) == 1
    assert multinomial(3, (2, 1)) == 3
    assert multinomial(4, (2, 1, 1)) == 12
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))
