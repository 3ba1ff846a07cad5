"""Unimodular triangulations of lattice polygons, flips, and the rank-9 valuation.

A triangulation here always uses every lattice point of the polygon as a
vertex; by Pick's theorem each triangle then has lattice area 1/2, so the
triangulation is automatically unimodular.  Construction is by incremental
lex-order insertion, attaching fans to the visible part of the hull
boundary while keeping collinear boundary points on the chain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ehrhart import ehrhart_tensors
from .points import lattice_points
from .polytope import LatticePolytope, standard_simplex
from .tensor import SymTensor, apply_linear, sym_product

Point = tuple[int, int]
Triangle = tuple[int, int, int]


class FlipError(ValueError):
    """Raised when a requested diagonal flip is not admissible."""


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class Triangulation2D:
    """Immutable triangulation of a lattice polygon on all of its lattice points."""

    points: tuple[Point, ...]
    triangles: tuple[Triangle, ...]

    def __post_init__(self) -> None:
        tris = tuple(sorted(tuple(sorted(t)) for t in self.triangles))
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))
        object.__setattr__(self, "_edge_index", self.edge_triangles())  # read, never mutated

    def triangle_points(self, t: Triangle) -> tuple[Point, Point, Point]:
        return tuple(self.points[i] for i in t)

    def doubled_area(self, t: Triangle) -> int:
        a, b, c = self.triangle_points(t)
        return abs(_cross(a, b, c))

    def edge_triangles(self) -> dict[tuple[int, int], list[Triangle]]:
        """Map from sorted vertex-index edge to the triangles containing it."""
        out: dict[tuple[int, int], list[Triangle]] = {}
        for t in self.triangles:
            i, j, k = t
            for e in ((i, j), (i, k), (j, k)):
                out.setdefault(e, []).append(t)
        return out

    def interior_edges(self) -> list[tuple[int, int]]:
        return sorted(e for e, ts in self._edge_index.items() if len(ts) == 2)


def validate_triangulation(tri: Triangulation2D) -> None:
    """Raise if the triangulation is not a unimodular triangulation of its point hull."""
    for t in tri.triangles:
        if tri.doubled_area(t) != 1:
            raise ValueError(f"triangle {t} is not unimodular")
    used = {i for t in tri.triangles for i in t}
    if used != set(range(len(tri.points))):
        raise ValueError("every lattice point must be a triangulation vertex")
    if len(tri.triangles) != _hull_doubled_area(tri.points):
        raise ValueError("triangle areas do not add up to the polygon area")
    for e, ts in tri._edge_index.items():
        if len(ts) > 2:
            raise ValueError(f"edge {e} lies in more than two triangles")


def _hull_doubled_area(pts) -> int:
    """Twice the area of the convex hull of planar points: monotone chain, then shoelace."""
    pts = sorted(pts)
    hull: list[Point] = []
    for chain in (pts, pts[::-1]):  # lower hull, then upper hull
        start = len(hull)
        for q in chain:
            while len(hull) >= start + 2 and _cross(hull[-2], hull[-1], q) <= 0:
                hull.pop()
            hull.append(q)
    # each chain's last point repeats as the other's first, adding 0 to the sum
    return abs(sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(hull, hull[1:] + hull[:1])))


def unimodular_triangulation(p: LatticePolytope) -> Triangulation2D:
    """Deterministic unimodular triangulation on all lattice points of a polygon."""
    if p.ambient_dim != 2:
        raise ValueError("triangulations are built in ambient dimension 2")
    if p.dim != 2:
        raise ValueError("triangulation needs a two-dimensional polygon")
    pts = lattice_points(p)
    index = {q: i for i, q in enumerate(pts)}
    triangles: list[Triangle] = []

    path: list[Point] = []
    boundary: list[Point] = []
    for q in pts:
        if boundary:
            _insert_into_cycle(boundary, q, triangles, index)
        else:
            if len(path) < 2 or _cross(path[0], path[1], q) == 0:
                path.append(q)
                continue
            for a, b in zip(path, path[1:]):
                triangles.append((index[a], index[b], index[q]))
            if _cross(path[0], path[-1], q) > 0:
                boundary = path + [q]
            else:
                boundary = list(reversed(path)) + [q]
            path = []

    tri = Triangulation2D(tuple(pts), tuple(triangles))
    validate_triangulation(tri)
    return tri


def _insert_into_cycle(boundary: list[Point], q: Point, triangles: list[Triangle], index) -> None:
    size = len(boundary)
    visible = [
        i for i in range(size) if _cross(boundary[i], boundary[(i + 1) % size], q) < 0
    ]
    if not visible:
        raise ValueError("insertion point is not outside the current hull")
    for i in visible:
        triangles.append((index[boundary[i]], index[boundary[(i + 1) % size]], index[q]))
    # visible edges form one contiguous cyclic run; splice q in its place
    visible_set = set(visible)
    start = next(i for i in visible if (i - 1) % size not in visible_set)
    run = len(visible)
    if sorted((start + k) % size for k in range(run)) != sorted(visible):
        raise AssertionError("visible edges are not contiguous")
    kept = [boundary[(start + run + k) % size] for k in range(size - run + 1)]
    boundary[:] = kept + [q]


def _flip_targets(tri: Triangulation2D, edge: tuple[int, int]):
    """Opposite vertices (k, l) and owner triangles of an admissibly flippable edge."""
    i, j = sorted(edge)
    owners = tri._edge_index.get((i, j), [])
    if len(owners) < 2:
        raise FlipError(f"edge {(i, j)} is not an interior edge")
    k = next(v for v in owners[0] if v not in (i, j))
    l = next(v for v in owners[1] if v not in (i, j))
    pi, pj, pk, pl = (tri.points[v] for v in (i, j, k, l))
    if _cross(pi, pj, pk) * _cross(pi, pj, pl) >= 0 or _cross(pk, pl, pi) * _cross(pk, pl, pj) >= 0:
        raise FlipError("adjacent triangles do not form a strictly convex quadrilateral")
    return k, l, owners


def flip(tri: Triangulation2D, edge: tuple[int, int]) -> Triangulation2D:
    """Replace the diagonal of the strictly convex quadrilateral around an interior edge."""
    i, j = sorted(edge)
    k, l, owners = _flip_targets(tri, (i, j))
    new = [t for t in tri.triangles if t not in owners]
    new.append(tuple(sorted((k, l, i))))
    new.append(tuple(sorted((k, l, j))))
    out = Triangulation2D(tri.points, tuple(new))
    if out.doubled_area(tuple(sorted((k, l, i)))) != 1 or out.doubled_area(tuple(sorted((k, l, j)))) != 1:
        raise FlipError("flip would break unimodularity")
    return out


def admissible_flips(tri: Triangulation2D) -> list[tuple[int, int]]:
    """Interior edges whose flip is admissible, in canonical order."""
    out = []
    for e in tri.interior_edges():
        try:
            _flip_targets(tri, e)
        except FlipError:
            continue
        out.append(e)
    return out


def flip_walk(tri: Triangulation2D, seed: int, steps: int) -> Triangulation2D:
    """Apply a deterministic pseudo-random sequence of admissible flips."""
    rng = random.Random(seed)
    current = tri
    for _ in range(steps):
        options = admissible_flips(current)
        if not options:
            break
        current = flip(current, rng.choice(options))
    return current


@lru_cache(maxsize=None)
def _standard_cube() -> SymTensor:
    """Cube of the degree-1 coefficient of the rank-3 expansion of T_2, the one triangle enumerated."""
    linear = ehrhart_tensors(standard_simplex(2, 2), 3).coefficient(1)
    return sym_product(sym_product(linear, linear), linear)


@lru_cache(maxsize=None)
def _degree_one_cubic_tensor(anchored: tuple[Point, Point, Point]) -> SymTensor:
    """Cube of the degree-1 coefficient of the rank-3 expansion of a unimodular triangle (0, u, v).

    The lattice map e_1 -> u, e_2 -> v carries T_2 onto it, and the
    expansion commutes with lattice maps, so its cube is T_2's mapped; no
    triangle is enumerated.
    """
    _, u, v = anchored
    return apply_linear(_standard_cube(), ((u[0], v[0]), (u[1], v[1])))


def _triangle_cube(points: tuple[Point, Point, Point]) -> SymTensor:
    base = min(points)
    anchored = tuple(sorted((x - base[0], y - base[1]) for x, y in points))
    return _degree_one_cubic_tensor(anchored)


def valuation_n(p: LatticePolytope, triangulation: Triangulation2D | None = None) -> SymTensor:
    """Rank-9 valuation on lattice polygons: triangulate and sum the cubes of the
    degree-1 rank-3 expansion coefficients of the triangles.

    Vanishes on polygons of dimension at most one; the value is independent
    of the chosen triangulation, which must be a unimodular triangulation
    on the lattice points of p.
    """
    if p.ambient_dim != 2:
        raise ValueError("the rank-9 valuation lives on lattice polygons")
    if p.is_empty or p.dim <= 1:
        return SymTensor.zero(2, 9)
    if triangulation is not None:
        validate_triangulation(triangulation)
        if sorted(triangulation.points) != lattice_points(p):
            raise ValueError("the triangulation's points are not the polygon's lattice points")
    tri = triangulation if triangulation is not None else unimodular_triangulation(p)
    return sum((_triangle_cube(tri.triangle_points(t)) for t in tri.triangles), SymTensor.zero(2, 9))
