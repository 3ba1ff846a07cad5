"""Discrete moment tensors, Ehrhart tensor expansions, and exact identity checkers.

The rank-r discrete moment tensor of a polytope is (1/r!) times the sum of
the r-fold symmetric powers of its lattice points.  Evaluating it on the
dilates kP for k = 0..n+r and solving the Vandermonde system per tensor
coordinate produces the homogeneous expansion; the degree-(n+r) coefficient
is independently checked against exact simplex integration of the moment
tensor.  The interpolation runs in integers: the inverse Vandermonde matrix
is cached per degree as W / D with W an integer matrix, the integer power
sums of the dilates are combined with W, and each coefficient coordinate
is one exact fraction with denominator D * r!.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

import numpy as np

from .arith import multinomial
from .linalg import det, invert_matrix
from .points import lattice_points, relint_lattice_points
from .polytope import LatticePolytope, UnimodularMap, dilate, faces, negate, transform, translate
from .tensor import MultiIndex, SymTensor, _poly_mul, _poly_mul_linear, apply_linear, multi_indices

_INT64_SAFE = 2**62


def _tensor_sum(points: list[tuple[int, ...]], dim: int, rank: int) -> dict[MultiIndex, int]:
    """Exact sum over points of the monomials x^alpha, |alpha| = rank."""
    alphas = multi_indices(dim, rank)
    if not points:
        return {a: 0 for a in alphas}
    max_abs = max((abs(c) for p in points for c in p), default=0)
    bound = (max(max_abs, 1) ** rank) * len(points)
    if bound < _INT64_SAFE and len(points) > 256:
        arr = np.asarray(points, dtype=np.int64)
        pows = [
            [np.ones(len(points), dtype=np.int64)] + [arr[:, i] ** e for e in range(1, rank + 1)]
            for i in range(dim)
        ]
        out = {}
        for alpha in alphas:
            prod = pows[0][alpha[0]].copy()
            for i in range(1, dim):
                if alpha[i]:
                    prod *= pows[i][alpha[i]]
            out[alpha] = int(prod.sum())
        return out
    out = {a: 0 for a in alphas}
    for p in points:
        for alpha in alphas:
            term = 1
            for c, a in zip(p, alpha):
                if a:
                    term *= c**a
            out[alpha] += term
    return out


def _moment_of_points(points, dim: int, rank: int) -> SymTensor:
    sums = _tensor_sum(points, dim, rank)
    rfact = factorial(rank)
    return SymTensor(dim, rank, {a: Fraction(s, rfact) for a, s in sums.items() if s})


def discrete_moment(p: LatticePolytope, r: int) -> SymTensor:
    """(1/r!) sum of x^r over the lattice points of p; rank 0 gives the point count."""
    if r < 0:
        raise ValueError("rank must be non-negative")
    if p.is_empty:
        return SymTensor.zero(p.ambient_dim, r)
    return _moment_of_points(lattice_points(p), p.ambient_dim, r)


def discrete_moment_relint(p: LatticePolytope, r: int) -> SymTensor:
    if r < 0:
        raise ValueError("rank must be non-negative")
    if p.is_empty:
        return SymTensor.zero(p.ambient_dim, r)
    return _moment_of_points(relint_lattice_points(p), p.ambient_dim, r)


@dataclass(frozen=True)
class EhrhartTensorExpansion:
    """Coefficients of k -> L^r(kP): one tensor per homogeneity degree 0..n+r."""

    rank: int
    coefficients: tuple[SymTensor, ...]

    def coefficient(self, i: int) -> SymTensor:
        return self.coefficients[i]

    def evaluate_at(self, k: int) -> SymTensor:
        acc = SymTensor.zero(self.coefficients[0].dim, self.rank)
        for i, coeff in enumerate(self.coefficients):
            acc = acc + coeff * Fraction(k) ** i
        return acc


@lru_cache(maxsize=None)
def _vandermonde_inverse(degree: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(W, D) with W an integer matrix and W / D the inverse of (k^j) on nodes k = 0..degree."""
    inv = invert_matrix([[k**j for j in range(degree + 1)] for k in range(degree + 1)])
    d = lcm(*(x.denominator for row in inv for x in row))
    return tuple(tuple(int(x * d) for x in row) for row in inv), d


def ehrhart_tensors(p: LatticePolytope, r: int) -> EhrhartTensorExpansion:
    """Exact interpolation of the dilation polynomial of the discrete moment tensor."""
    if p.is_empty:
        raise ValueError("expansion needs a non-empty polytope")
    n = p.ambient_dim
    degree = n + r
    weights, d = _vandermonde_inverse(degree)
    sums = [_tensor_sum(lattice_points(dilate(p, k)), n, r) for k in range(degree + 1)]
    denom = d * factorial(r)
    alphas = multi_indices(n, r)
    coeffs = []
    for row in weights:
        coords = {}
        for alpha in alphas:
            c = sum(w * s[alpha] for w, s in zip(row, sums))
            if c:
                coords[alpha] = Fraction(c, denom)
        coeffs.append(SymTensor(n, r, coords))
    return EhrhartTensorExpansion(rank=r, coefficients=tuple(coeffs))


# -- exact moment tensor by simplex integration ---------------------------------


def _simplicial_pieces(p: LatticePolytope) -> list[tuple[tuple[int, ...], ...]]:
    """Vertex tuples of simplices with disjoint interiors covering p."""
    if p.dim <= 0:
        return [p.vertices]
    if len(p.vertices) == p.dim + 1:
        return [p.vertices]
    apex = p.vertices[0]
    pieces = []
    for a, b in p.facet_inequalities:
        if sum(x * y for x, y in zip(a, apex)) == b:
            continue
        tight = [v for v in p.vertices if sum(x * y for x, y in zip(a, v)) == b]
        for simplex in _simplicial_pieces(LatticePolytope(tight)):
            pieces.append((apex,) + simplex)
    return pieces


def _complete_homogeneous(vectors, dim: int, rank: int) -> dict[MultiIndex, Fraction]:
    """Sum over |beta| = rank of prod_i (v_i . z)^beta_i, as a polynomial in z."""
    layers = [{(0,) * dim: Fraction(1)}] + [dict() for _ in range(rank)]
    for v in vectors:
        powers = [{(0,) * dim: Fraction(1)}]
        for _ in range(rank):
            powers.append(_poly_mul_linear(powers[-1], v))
        new_layers = []
        for t in range(rank + 1):
            layer: dict[MultiIndex, Fraction] = {}
            for s in range(t + 1):
                for key, c in _poly_mul(layers[t - s], powers[s]).items():
                    layer[key] = layer.get(key, Fraction(0)) + c
            new_layers.append(layer)
        layers = new_layers
    return layers[rank]


def moment_tensor(p: LatticePolytope, r: int) -> SymTensor:
    """(1/r!) integral of x^r over p, via exact simplex integration.

    Defined for polytopes that are full-dimensional in the ambient space;
    lower-dimensional input is refused so the leading-coefficient check
    stays unambiguous.
    """
    n = p.ambient_dim
    if p.dim != n:
        raise ValueError("moment_tensor needs a full-dimensional polytope")
    total: dict[MultiIndex, Fraction] = {}
    denom = factorial(n + r)
    for simplex in _simplicial_pieces(p):
        base = simplex[0]
        edges = [[v[j] - base[j] for j in range(n)] for v in simplex[1:]]
        vol_factor = abs(det(edges))  # n! times the simplex volume
        if vol_factor == 0:
            continue
        h = _complete_homogeneous(list(simplex), n, r)
        for mono, c in h.items():
            total[mono] = total.get(mono, Fraction(0)) + vol_factor * c
    coords = {
        alpha: value / (multinomial(r, alpha) * denom) for alpha, value in total.items()
    }
    return SymTensor(n, r, coords)


# -- identity checkers -----------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of an exact identity check; failures carry the first bad coordinate."""

    name: str
    ok: bool
    failures: list[str]

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        return {"check": self.name, "pass": self.ok, "failures": self.failures}


def _compare(label: str, lhs: SymTensor, rhs: SymTensor, failures: list[str]) -> None:
    if lhs == rhs:
        return
    diff = lhs - rhs
    alpha = sorted(diff.coords)[0]
    failures.append(
        f"{label}: coordinate {alpha} differs, {lhs.coord(alpha)} != {rhs.coord(alpha)}"
    )


def check_reciprocity(p: LatticePolytope, r: int) -> CheckReport:
    """Interior moment vs alternating Ehrhart sum, plus the face-sum route."""
    failures: list[str] = []
    m = p.dim
    n = p.ambient_dim
    interior = discrete_moment_relint(p, r)
    expansion = ehrhart_tensors(p, r)
    sign = Fraction((-1) ** (m + r))
    alternating = SymTensor.zero(n, r)
    for i, coeff in enumerate(expansion.coefficients):
        alternating = alternating + coeff * Fraction((-1) ** i)
    _compare("alternating-sum reciprocity", interior, alternating * sign, failures)

    face_sum = SymTensor.zero(n, r)
    for f in faces(p):
        face_sum = face_sum + discrete_moment(f, r) * Fraction((-1) ** f.dim)
    _compare("face-sum interior formula", interior, face_sum * Fraction((-1) ** m), failures)

    mirrored = ehrhart_tensors(negate(p), r)
    mirror_sum = SymTensor.zero(n, r)
    for i, coeff in enumerate(mirrored.coefficients):
        mirror_sum = mirror_sum + coeff * Fraction((-1) ** i)
    _compare("face-sum vs mirrored expansion", face_sum, mirror_sum, failures)

    return CheckReport("reciprocity", not failures, failures)


def check_translation_covariance(p: LatticePolytope, r: int, y) -> CheckReport:
    """Expansion of the translate vs the binomial-type mix of lower-rank expansions."""
    from .tensor import sym_power, sym_product

    failures: list[str] = []
    n = p.ambient_dim
    expansions = [ehrhart_tensors(p, s) for s in range(r + 1)]
    shifted = ehrhart_tensors(translate(p, y), r)
    y_pow = [sym_power(tuple(y), j) for j in range(r + 1)]
    for l in range(n + r + 1):
        rhs = SymTensor.zero(n, r)
        for j in range(0, min(l, r) + 1):
            base = expansions[r - j].coefficient(l - j)
            if base.is_zero:
                continue
            rhs = rhs + sym_product(base, y_pow[j]) * Fraction(1, factorial(j))
        _compare(f"translation covariance at degree {l}", shifted.coefficient(l), rhs, failures)
    return CheckReport("covariance", not failures, failures)


def check_equivariance(p: LatticePolytope, r: int, phi) -> CheckReport:
    """Moment and expansion coefficients intertwine a determinant-one lattice map."""
    failures: list[str] = []
    if not isinstance(phi, UnimodularMap):
        phi = UnimodularMap.linear(phi)
    elif any(phi.translation):
        raise ValueError("equivariance check takes a linear map; translation must be zero")
    matrix = phi.matrix
    q = transform(p, phi)
    _compare(
        "moment equivariance",
        discrete_moment(q, r),
        apply_linear(discrete_moment(p, r), matrix),
        failures,
    )
    left = ehrhart_tensors(q, r)
    right = ehrhart_tensors(p, r)
    for i in range(len(left.coefficients)):
        _compare(
            f"expansion coefficient {i}",
            left.coefficient(i),
            apply_linear(right.coefficient(i), matrix),
            failures,
        )
    return CheckReport("equivariance", not failures, failures)
