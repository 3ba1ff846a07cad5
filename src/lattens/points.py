"""Exact lattice-point enumeration for polytopes and their relative interiors.

Enumeration scans the integer bounding box and keeps points satisfying the
affine-hull equalities plus the facet inequalities (strictly, for relative
interiors).  The scan is vectorized with int64 when the coordinate sizes
make that provably overflow-free, and falls back to Python integers
otherwise, so results are always exact and in deterministic lex order.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .polytope import LatticePolytope, _dot

_INT64_SAFE = 2**62
_MAX_SCAN_CELLS = 50_000_000


class ScanTooLarge(ValueError):
    """The bounding box holds more cells than the scan cap allows."""


def _scan(p: LatticePolytope, strict: bool) -> list[tuple[int, ...]]:
    if p.is_empty:
        return []
    n = p.ambient_dim
    lo, hi = p.bounding_box()
    if p.dim == 0:
        return [p.vertices[0]]

    rows = [(a, b, True) for a, b in p.hull_equalities] + [
        (a, b, False) for a, b in p.facet_inequalities
    ]
    cells = 1
    for l, h in zip(lo, hi):
        cells *= h - l + 1
    if cells > _MAX_SCAN_CELLS:
        raise ScanTooLarge("bounding box too large to scan; reduce the dilation or dimension")

    bound = max(
        sum(abs(a_i) * max(abs(l), abs(h)) for a_i, l, h in zip(a, lo, hi)) + abs(b)
        for a, b, _ in rows
    ) if rows else 0
    if bound < _INT64_SAFE and cells > 512:
        return _scan_numpy(n, lo, hi, rows, strict)
    return _scan_python(n, lo, hi, rows, strict)


def _scan_numpy(n, lo, hi, rows, strict):
    axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    mask = np.ones(len(pts), dtype=bool)
    for a, b, is_eq in rows:
        vals = pts @ np.asarray(a, dtype=np.int64)
        if is_eq:
            mask &= vals == b
        elif strict:
            mask &= vals < b
        else:
            mask &= vals <= b
    kept = pts[mask]
    return [tuple(int(c) for c in row) for row in kept]


def _scan_python(n, lo, hi, rows, strict):
    out = []
    for pt in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        ok = True
        for a, b, is_eq in rows:
            v = _dot(a, pt)
            if is_eq:
                if v != b:
                    ok = False
                    break
            elif strict:
                if v >= b:
                    ok = False
                    break
            elif v > b:
                ok = False
                break
        if ok:
            out.append(pt)
    return out


def lattice_points(p: LatticePolytope) -> list[tuple[int, ...]]:
    """All integer points of p, in lex order."""
    return _scan(p, strict=False)


def relint_lattice_points(p: LatticePolytope) -> list[tuple[int, ...]]:
    """Integer points of the relative interior of p (facets strict, hull equalities kept)."""
    if p.is_empty:
        return []
    if p.dim == 0:
        return [p.vertices[0]]
    return _scan(p, strict=True)


def count(p: LatticePolytope) -> int:
    """Number of lattice points in p; zero for the empty polytope."""
    if p.is_empty:
        return 0
    return len(lattice_points(p))


def count_relint(p: LatticePolytope) -> int:
    if p.is_empty:
        return 0
    return len(relint_lattice_points(p))
