"""Symmetric tensor algebra over the rationals.

A rank-r symmetric tensor on R^n is stored sparsely as a map from
multi-indices to rational coordinates, where the multi-index
alpha = (a_1, ..., a_n) labels the coordinate T(e_1[a_1], ..., e_n[a_n])
(basis vector e_i repeated a_i times, |alpha| = r).  Rank-0 tensors are
scalars with the single multi-index (0, ..., 0).

The bridge to polynomial arithmetic: identifying T with its diagonal
polynomial p_T(u) = T(u, ..., u), the coefficient of u^alpha in p_T equals
multinomial(r; alpha) * T_alpha, and the diagonal polynomial of a symmetric
product is the product of the diagonal polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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


@dataclass(frozen=True)
class SymTensor:
    """Immutable symmetric tensor; absent coordinates are zero."""

    dim: int
    rank: int
    coords: Mapping[MultiIndex, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for alpha, value in self.coords.items():
            alpha = tuple(alpha)
            if len(alpha) != self.dim or sum(alpha) != self.rank or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha} for dim {self.dim} rank {self.rank}")
            value = Fraction(value)
            if value != 0:
                clean[alpha] = value
        object.__setattr__(self, "coords", clean)

    @staticmethod
    def _trusted(dim: int, rank: int, coords: dict[MultiIndex, Fraction]) -> SymTensor:
        """A tensor on coords as given, unchecked: non-zero Fractions on multi-indices of dim and rank."""
        t = object.__new__(SymTensor)
        t.__dict__.update(dim=dim, rank=rank, coords=coords)
        return t

    @staticmethod
    def zero(dim: int, rank: int) -> SymTensor:
        return SymTensor(dim, rank, {})

    @staticmethod
    def scalar(dim: int, value) -> SymTensor:
        return SymTensor(dim, 0, {(0,) * dim: Fraction(value)})

    def coord(self, alpha: MultiIndex) -> Fraction:
        return self.coords.get(tuple(alpha), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def scalar_value(self) -> Fraction:
        if self.rank != 0:
            raise ValueError("not a rank-0 tensor")
        return self.coord((0,) * self.dim)

    def __add__(self, other: SymTensor) -> SymTensor:
        self._check_same_space(other)
        out = dict(self.coords)
        for alpha, value in other.coords.items():
            out[alpha] = out.get(alpha, 0) + value
        return SymTensor._trusted(self.dim, self.rank, {a: v for a, v in out.items() if v})

    def __sub__(self, other: SymTensor) -> SymTensor:
        return self + (-other)

    def __neg__(self) -> SymTensor:
        return SymTensor._trusted(self.dim, self.rank, {a: -v for a, v in self.coords.items()})

    def __mul__(self, scalar) -> SymTensor:
        s = Fraction(scalar)
        return SymTensor._trusted(self.dim, self.rank, {a: v * s for a, v in self.coords.items() if s})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> SymTensor:
        return self * (Fraction(1) / Fraction(scalar))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensor):
            return NotImplemented
        return (self.dim, self.rank, dict(self.coords)) == (other.dim, other.rank, dict(other.coords))

    def __hash__(self) -> int:
        return hash((self.dim, self.rank, tuple(sorted(self.coords.items()))))

    def _check_same_space(self, other: SymTensor) -> None:
        if self.dim != other.dim or self.rank != other.rank:
            raise ValueError("tensors live in different spaces")

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
    n = len(v)
    if r == 0:
        return SymTensor.scalar(n, 1)
    coords = {}
    for alpha in multi_indices(n, r):
        prod = Fraction(1)
        for vi, ai in zip(v, alpha):
            if ai:
                prod *= Fraction(vi) ** ai
        coords[alpha] = prod
    return SymTensor(n, r, coords)


def _diagonal_poly(t: SymTensor) -> dict[MultiIndex, Fraction]:
    return {a: v * multinomial(t.rank, a) for a, v in t.coords.items()}


def _poly_mul_linear(poly: dict, v: Vector) -> dict:
    """Product of a polynomial in z with the linear form z -> v . z."""
    terms = [(i, vi) for i, vi in enumerate(v) if vi]
    out: dict[MultiIndex, Fraction] = {}
    for mono, c in poly.items():
        for i, vi in terms:
            key = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
            out[key] = out.get(key, 0) + c * vi
    return out


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict[MultiIndex, Fraction] = {}
    for a, u in p.items():
        for b, w in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Fraction(0)) + u * w
    return out


def sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Symmetric (permutation-averaged) tensor product of rank p+q."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch in symmetric product")
    rank = a.rank + b.rank
    prod = _poly_mul(_diagonal_poly(a), _diagonal_poly(b))
    coords = {alpha: c / multinomial(rank, alpha) for alpha, c in prod.items() if c}
    return SymTensor._trusted(a.dim, rank, coords)


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
    apply_linear(sym_power(x, r), M) == sym_power(M x, r).
    """
    n = t.dim
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix dimension mismatch")
    # M^t e_j is row j of M
    coords = {}
    for beta, row in _pull_back_rows(matrix, multi_indices(n, t.rank)):
        coords[beta] = sum((c * t.coord(alpha) for alpha, c in row.items()), Fraction(0))
    return SymTensor._trusted(n, t.rank, {beta: v for beta, v in coords.items() if v})
