"""Exact rational arithmetic: Bernoulli numbers, Faulhaber power sums, multinomials.

All values are `fractions.Fraction` (arbitrary precision, always in lowest
terms, denominator > 0), so every computation in this package is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m with the convention B_1 = -1/2."""
    if m < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if m == 0:
        return Fraction(1)
    # defining recurrence: sum_{j=0..m} C(m+1, j) B_j = 0 for m >= 1
    acc = Fraction(0)
    for j in range(m):
        acc += comb(m + 1, j) * bernoulli(j)
    return -acc / comb(m + 1, m)


def bernoulli_table(max_index: int) -> list[Fraction]:
    """B_0 .. B_max as a list."""
    return [bernoulli(m) for m in range(max_index + 1)]


def faulhaber_sum(k: int, r: int) -> Fraction:
    """sum_{i=1..k} i^r via the Bernoulli-number closed form."""
    if k < 0 or r < 0:
        raise ValueError("faulhaber_sum requires k, r >= 0")
    acc = Fraction(0)
    for l in range(r + 1):
        acc += (-1) ** l * comb(r + 1, l) * bernoulli(l) * Fraction(k) ** (r + 1 - l)
    return acc / (r + 1)


def power_sum_polynomial(r: int) -> list[Fraction]:
    """Coefficients c_1..c_{r+1} with sum_{i=1..k} i^r = sum_j c_j k^j.

    The constant term is always zero and is omitted; the returned list has
    length r + 1 with entry [j-1] = c_j.
    """
    if r < 0:
        raise ValueError("power_sum_polynomial requires r >= 0")
    coeffs = []
    for j in range(1, r + 2):
        l = r + 1 - j
        coeffs.append(Fraction((-1) ** l * comb(r + 1, j), 1) * bernoulli(l) / (r + 1))
    return coeffs


def multinomial(r: int, alpha: tuple[int, ...]) -> int:
    """Multinomial coefficient r! / (alpha_1! ... alpha_n!); requires sum(alpha) == r."""
    if sum(alpha) != r:
        raise ValueError("multinomial exponents must sum to r")
    out = factorial(r)
    for a in alpha:
        out //= factorial(a)
    return out
