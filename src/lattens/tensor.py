"""Symmetric tensor algebra over the rationals, in integers.

A rank-r symmetric tensor on R^n is stored sparsely as a map from
multi-indices to rational coordinates, where the multi-index
alpha = (a_1, ..., a_n) labels the coordinate T(e_1[a_1], ..., e_n[a_n])
(basis vector e_i repeated a_i times, |alpha| = r).  Rank-0 tensors are
scalars with the single multi-index (0, ..., 0).

The coordinates are integer numerators num[alpha] over one denominator
den, in a normal form: den > 0, no zero numerator is stored, and
gcd(den, *num.values()) == 1.  Equal tensors therefore have equal
(num, den), and the arithmetic below runs in integers, reducing by one
gcd per result.  coords, the coordinates as Fractions, is a read-only
view built on first read.

The bridge to polynomial arithmetic: identifying T with its diagonal
polynomial p_T(u) = T(u, ..., u), the coefficient of u^alpha in p_T equals
multinomial(r; alpha) * T_alpha, and the diagonal polynomial of a symmetric
product is the product of the diagonal polynomials.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import gcd, lcm, prod
from operator import add, mul
from types import MappingProxyType
from typing import Mapping, Sequence

from .arith import multinomial

MultiIndex = tuple[int, ...]
Vector = Sequence


def multi_indices(dim: int, rank: int) -> list[MultiIndex]:
    """All exponent vectors of length dim summing to rank, in lex order."""
    return list(_multi_indices(dim, rank))


@lru_cache(maxsize=None)
def _multi_indices(dim: int, rank: int) -> tuple[MultiIndex, ...]:
    if dim == 0:
        return ((),) if rank == 0 else ()
    if dim == 1:
        return ((rank,),)
    return tuple((v,) + rest for v in range(rank + 1) for rest in _multi_indices(dim - 1, rank - v))


class SymTensor:
    """Immutable symmetric tensor with coordinates num[alpha] / den; absent coordinates are zero."""

    def __init__(self, dim: int, rank: int, coords: Mapping[MultiIndex, Fraction] | None = None) -> None:
        clean = {}
        for alpha, value in (coords or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != dim or sum(alpha) != rank or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha} for dim {dim} rank {rank}")
            value = Fraction(value)
            if value != 0:
                clean[alpha] = value
        # Fractions are in lowest terms, so over the lcm of their denominators gcd(den, *num) == 1
        den = lcm(*(v.denominator for v in clean.values()))
        num = {a: v.numerator * (den // v.denominator) for a, v in clean.items()}
        self.__dict__.update(dim=dim, rank=rank, num=num, den=den)

    @staticmethod
    def _ints(dim: int, rank: int, num: dict[MultiIndex, int], den: int) -> SymTensor:
        """The tensor num[alpha] / den, unchecked: integers on multi-indices of dim and rank, den > 0."""
        num = {a: v for a, v in num.items() if v}
        g = gcd(den, *num.values())
        if g > 1:
            num, den = {a: v // g for a, v in num.items()}, den // g
        t = object.__new__(SymTensor)
        t.__dict__.update(dim=dim, rank=rank, num=num, den=den)
        return t

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @cached_property
    def coords(self) -> Mapping[MultiIndex, Fraction]:
        """The non-zero coordinates as Fractions: a read-only view, built on first read."""
        return MappingProxyType({a: Fraction(v, self.den) for a, v in self.num.items()})

    @staticmethod
    def zero(dim: int, rank: int) -> SymTensor:
        return SymTensor._ints(dim, rank, {}, 1)

    @staticmethod
    def scalar(dim: int, value) -> SymTensor:
        return SymTensor(dim, 0, {(0,) * dim: Fraction(value)})

    def coord(self, alpha: MultiIndex) -> Fraction:
        return Fraction(self.num.get(tuple(alpha), 0), self.den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def scalar_value(self) -> Fraction:
        if self.rank != 0:
            raise ValueError("not a rank-0 tensor")
        return self.coord((0,) * self.dim)

    def __add__(self, other: SymTensor) -> SymTensor:
        if self.dim != other.dim or self.rank != other.rank:
            raise ValueError("tensors live in different spaces")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {alpha: v * a for alpha, v in self.num.items()}
        for alpha, v in other.num.items():
            out[alpha] = out.get(alpha, 0) + v * b
        return SymTensor._ints(self.dim, self.rank, out, den)

    def __sub__(self, other: SymTensor) -> SymTensor:
        return self + (-other)

    def __neg__(self) -> SymTensor:
        return SymTensor._ints(self.dim, self.rank, {a: -v for a, v in self.num.items()}, self.den)

    def __mul__(self, scalar) -> SymTensor:
        s = Fraction(scalar)
        num = {a: v * s.numerator for a, v in self.num.items()}
        return SymTensor._ints(self.dim, self.rank, num, self.den * s.denominator)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> SymTensor:
        return self * (Fraction(1) / Fraction(scalar))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensor):
            return NotImplemented
        # both sides are in lowest terms with no zero numerator
        return (self.dim, self.rank, self.den, self.num) == (other.dim, other.rank, other.den, other.num)

    def __hash__(self) -> int:
        return hash((self.dim, self.rank, tuple(sorted(self.coords.items()))))

    def __repr__(self) -> str:
        return f"SymTensor(dim={self.dim!r}, rank={self.rank!r}, coords={dict(self.coords)!r})"

    def to_json_dict(self) -> dict:
        coords = {
            ",".join(map(str, alpha)): str(value)
            for alpha, value in sorted(self.coords.items())
        }
        return {"dim": self.dim, "rank": self.rank, "coords": coords}

    @staticmethod
    def from_json_dict(data: dict) -> SymTensor:
        coords = {
            tuple(int(part) for part in key.split(",")): Fraction(value)
            for key, value in data.get("coords", {}).items()
        }
        return SymTensor(int(data["dim"]), int(data["rank"]), coords)


def sym_power(v: Vector, r: int) -> SymTensor:
    """r-fold symmetric power of a vector: (v^r)_alpha = prod v_i^alpha_i."""
    if r < 0:
        raise ValueError("rank must be non-negative")
    v = [Fraction(x) for x in v]
    d = lcm(*(x.denominator for x in v))
    w = [x.numerator * (d // x.denominator) for x in v]  # v = w / d
    return SymTensor._ints(len(v), r, {a: prod(map(pow, w, a)) for a in multi_indices(len(v), r)}, d**r)


@lru_cache(maxsize=None)
def _multinomials(dim: int, rank: int) -> tuple[dict[MultiIndex, int], int]:
    """multinomial(rank, alpha) for each multi-index alpha of dim and rank, and their lcm."""
    m = {alpha: multinomial(rank, alpha) for alpha in _multi_indices(dim, rank)}
    return m, lcm(*m.values())


def _poly_mul_linear(poly: dict, v: Vector) -> dict:
    """Product of a polynomial in z with the linear form z -> v . z."""
    terms = [(i, vi) for i, vi in enumerate(v) if vi]
    out: dict[MultiIndex, Fraction] = {}
    for mono, c in poly.items():
        for i, vi in terms:
            key = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
            out[key] = out.get(key, 0) + c * vi
    return out


def sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Symmetric (permutation-averaged) tensor product of rank p+q.

    Multiplies the integer diagonal polynomials of a.num and b.num, then divides
    by the multinomials of rank p+q as integers over their lcm L: over a.den * b.den * L.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch in symmetric product")
    rank = a.rank + b.rank
    ma, mb = _multinomials(a.dim, a.rank)[0], _multinomials(a.dim, b.rank)[0]
    m, den = _multinomials(a.dim, rank)
    q = [(beta, w * mb[beta]) for beta, w in b.num.items()]
    out: dict[MultiIndex, int] = {}
    for alpha, u in a.num.items():
        u *= ma[alpha]
        for beta, w in q:
            key = tuple(map(add, alpha, beta))
            out[key] = out.get(key, 0) + u * w
    return SymTensor._ints(a.dim, rank, {g: c * (den // m[g]) for g, c in out.items()}, a.den * b.den * den)


def coordinate_row(vectors: Sequence[Vector], dim: int) -> dict[MultiIndex, Fraction]:
    """Linear functional L with T(v_1, ..., v_r) = sum_alpha L[alpha] * T_alpha.

    Expands the product of the linear forms z -> v_j . z; the coefficient of
    z^alpha is the weight of the coordinate T_alpha in the multilinear
    expansion of T at the given vectors.
    """
    row: dict[MultiIndex, Fraction] = {(0,) * dim: Fraction(1)}
    for v in vectors:
        if len(v) != dim:
            raise ValueError("vector dimension mismatch")
        row = _poly_mul_linear(row, v)
    return {k: v for k, v in row.items() if v != 0}


def evaluate(t: SymTensor, vectors: Sequence[Vector]) -> Fraction:
    """Multilinear evaluation T(v_1, ..., v_r)."""
    if len(vectors) != t.rank:
        raise ValueError(f"expected {t.rank} vectors, got {len(vectors)}")
    row = coordinate_row(vectors, t.dim)
    return sum((c * t.coord(alpha) for alpha, c in row.items()), Fraction(0))


def _pull_back_rows(matrix: Sequence[Vector], betas: list[MultiIndex]):
    """Each beta in order, with the non-zero coefficients of prod_j (M_j . z)^beta_j, M_j row j of M.

    M may have any number of rows, and z has one entry per column.  beta is
    spelled as a word of row indices, j repeated beta_j times.  The row of
    a word is the row of its prefix times (M_j . z) for its last letter j,
    reusing the prefixes it shares with the previous word: betas of one rank
    in lex order build each prefix once.  An integer matrix gives integer rows.
    """
    stack = [((), {(0,) * len(matrix[0]): 1})]  # (prefix, its row) for the prefixes of the previous word
    for beta in betas:
        word = sum(((j,) * b for j, b in enumerate(beta)), ())
        while word[: len(stack[-1][0])] != stack[-1][0]:
            stack.pop()
        for d in range(len(stack[-1][0]), len(word)):
            stack.append((word[: d + 1], _poly_mul_linear(stack[-1][1], matrix[word[d]])))
        yield beta, {k: c for k, c in stack[-1][1].items() if c}


def apply_linear(t: SymTensor, matrix: Sequence[Sequence[int]]) -> SymTensor:
    """Precompose with the transpose of an integer matrix: (T o M^t).

    Result coordinates are the multilinear expansion of
    T(M^t e_1 [a_1], ..., M^t e_n [a_n]); for powers this means
    apply_linear(sym_power(x, r), M) == sym_power(M x, r).  The integer
    pull-back rows act on t.num; a rational M = W / d pulls back with W, over t.den * d^rank.
    """
    n = t.dim
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix dimension mismatch")
    d = lcm(*(x.denominator for row in matrix for x in row))
    w = [[x.numerator * (d // x.denominator) for x in row] for row in matrix]
    # M^t e_j is row j of M
    num = {
        beta: sum(map(mul, row.values(), map(t.num.get, row, repeat(0))))
        for beta, row in _pull_back_rows(w, multi_indices(n, t.rank))
    }
    return SymTensor._ints(n, t.rank, num, t.den * d**t.rank)
