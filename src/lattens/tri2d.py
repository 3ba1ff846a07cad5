"""Unimodular triangulations of lattice polygons, flips, and the rank-9 valuation.

A Triangulation2D is validated on construction: unimodular triangles, which
hold no lattice points but their vertices (Pick), tile the hull of its points,
so these are the hull's lattice points.  Construction places the points in lex
order; the hull edges each one sees strictly end the lower and upper monotone
chains (Andrew), kept as stacks with collinear boundary points on them, and
are popped and fanned to it: amortised O(1) a point.  Flips work on the
oriented map opp[a, b] = c of the counter-clockwise triangles (a, b, c): a
flip walk flips a working copy in six writes, keeps the admissible edges
sorted and tests six edges a step, two reads each.  An interior edge's apexes
lie strictly on its two sides, so one test of the other diagonal decides a
flip, whose two lattice triangles share doubled area 2: each is unimodular.
So a flip keeps a valid map valid, and its result is not validated again.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, pairwise
from math import gcd

from .ehrhart import ehrhart_tensors
from .points import lattice_points
from .polytope import LatticePolytope, standard_simplex
from .tensor import SymTensor, _pull_back_rows, multi_indices, sym_product

Point = tuple[int, int]
Triangle = tuple[int, int, int]
RANK9 = multi_indices(2, 9)


class FlipError(ValueError):
    """Raised when a requested diagonal flip is not admissible."""


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class Triangulation2D:
    """Immutable triangulation of a lattice polygon on all of its lattice points, validated on construction."""

    points: tuple[Point, ...]
    triangles: tuple[Triangle, ...]

    def __post_init__(self) -> None:
        try:
            points = tuple(map(tuple, self.points))
            triangles = tuple(sorted(tuple(sorted(t)) for t in self.triangles))
        except TypeError as exc:
            raise ValueError("points and triangles must be sequences of integers") from exc
        if set(map(len, points)) - {2} or set(map(type, chain.from_iterable(points))) - {int}:
            raise ValueError("every point must be a pair of integers")
        flat = tuple(chain.from_iterable(triangles))
        if set(map(len, triangles)) - {3} or set(map(type, flat)) - {int} or not set(flat) <= set(range(len(points))):
            raise ValueError("every triangle must be three indices into the points")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "triangles", triangles)
        validate_triangulation(self)

    @staticmethod
    def _trusted(points: tuple[Point, ...], opp: dict[tuple[int, int], int]) -> Triangulation2D:
        """The triangulation of a valid oriented map on normalised points, unvalidated, keeping opp as its map."""
        tri = object.__new__(Triangulation2D)
        tri.__dict__.update(points=points, triangles=tuple(sorted(tuple(sorted(t)) for t in _triangles(opp))), opp=opp)
        return tri

    @cached_property
    def opp(self) -> dict[tuple[int, int], int]:
        """opp[a, b] = c for each triangle, turned counter-clockwise as (a, b, c); read, never mutated."""
        ccw = (t if _cross(*self.triangle_points(t)) > 0 else t[::-1] for t in self.triangles)
        return {(a, b): c for x, y, z in ccw for a, b, c in ((x, y, z), (y, z, x), (z, x, y))}

    @cached_property
    def admissible(self) -> tuple[tuple[int, int], ...]:
        """The interior edges whose flip is admissible, in canonical order; computed once."""
        return tuple(e for e in self.interior_edges() if _flip_targets(self.points, self.opp, e))

    def triangle_points(self, t: Triangle) -> tuple[Point, Point, Point]:
        return tuple(self.points[i] for i in t)

    def interior_edges(self) -> list[tuple[int, int]]:
        return sorted((a, b) for a, b in self.opp if a < b and (b, a) in self.opp)


def _triangles(opp: dict) -> tuple[Triangle, ...]:
    """Each triangle of an oriented map once, as its rotation that starts at its least vertex."""
    return tuple((a, b, c) for (a, b), c in opp.items() if a < b and a < c)


def validate_triangulation(tri: Triangulation2D) -> None:
    """Raise if the triangulation is not a unimodular triangulation of its point hull."""
    for t in tri.triangles:
        if abs(_cross(*tri.triangle_points(t))) != 1:
            raise ValueError(f"triangle {t} is not unimodular")
    if {i for t in tri.triangles for i in t} != set(range(len(tri.points))):
        raise ValueError("every lattice point must be a triangulation vertex")
    # side starts by primitive direction, unique on a convex polygon; unimodular edges are primitive
    doubled_area, sides = 0, {}
    for u, v in pairwise(_hull(tri.points)):
        doubled_area += u[0] * v[1] - u[1] * v[0]
        if g := gcd(v[0] - u[0], v[1] - u[1]):
            sides[(v[0] - u[0]) // g, (v[1] - u[1]) // g] = u
    if len(tri.triangles) != doubled_area:
        raise ValueError("triangle areas do not add up to the polygon area")
    if len(tri.opp) < 3 * len(tri.triangles):
        raise ValueError("a directed edge lies in two triangles")
    for a, b in [(a, b) for a, b in tri.opp if (b, a) not in tri.opp]:
        (ax, ay), (bx, by) = pa, pb = tri.points[a], tri.points[b]
        if (u := sides.get((bx - ax, by - ay))) is None or _cross(u, pa, pb):
            raise ValueError(f"edge {(a, b)} has one triangle but is not a side of the polygon")


def _hull(pts) -> list[Point]:
    """The convex hull's vertices counter-clockwise, by monotone chain, closed: the first comes last too."""
    pts = sorted(pts)
    hull: list[Point] = []
    for chain in (pts, pts[::-1]):  # lower hull, then upper hull
        start = len(hull)
        for q in chain:
            while len(hull) >= start + 2 and _cross(hull[-2], hull[-1], q) <= 0:
                hull.pop()
            hull.append(q)
    return hull  # each chain's last point repeats as the other's first


def _hull_doubled_area(pts) -> int:
    """Twice the area of the convex hull of planar points: monotone chain, then shoelace."""
    return abs(sum(a[0] * b[1] - a[1] * b[0] for a, b in pairwise(_hull(pts))))


def unimodular_triangulation(p: LatticePolytope) -> Triangulation2D:
    """Deterministic unimodular triangulation on all lattice points of a polygon."""
    if p.ambient_dim != 2:
        raise ValueError("triangulations are built in ambient dimension 2")
    if p.dim != 2:
        raise ValueError("triangulation needs a two-dimensional polygon")
    pts = lattice_points(p)
    triangles: list[Triangle] = []
    lower, upper = [], []  # vertex indices
    for q, pq in enumerate(pts):
        # q sees an edge of the lower chain from its right, one of the upper chain from its left
        for chain, side in ((lower, 1), (upper, -1)):
            while len(chain) >= 2 and side * _cross(pts[chain[-2]], pts[chain[-1]], pq) < 0:
                seen = chain.pop()
                triangles.append((chain[-1], seen, q))
            chain.append(q)
    return Triangulation2D(tuple(pts), tuple(triangles))


def _flip_targets(points, opp: dict, edge: tuple[int, int]):
    """Opposite vertices (k, l) of an admissibly flippable edge (i, j), k left of i -> j, else None."""
    i, j = edge
    k, l = opp.get(edge), opp.get((j, i))
    if k is not None and l is not None:
        pk, pl = points[k], points[l]
        if _cross(pk, pl, points[i]) * _cross(pk, pl, points[j]) < 0:
            return k, l
    return None


def _flip_in_place(points, opp: dict, edge: tuple[int, int]) -> tuple[int, int, int, int]:
    """Flip edge (i, j) into (k, l) in a working oriented map; returns (i, j, k, l)."""
    i, j = sorted(edge)
    targets = _flip_targets(points, opp, (i, j))
    if targets is None:
        raise FlipError(f"edge {(i, j)} is not the diagonal of a strictly convex quadrilateral")
    k, l = targets
    # (i, j, k) and (j, i, l) become (i, l, k) and (l, j, k)
    del opp[i, j], opp[j, i]
    opp.update({(j, k): l, (k, i): l, (i, l): k, (l, j): k, (l, k): i, (k, l): j})
    return i, j, k, l


def flip(tri: Triangulation2D, edge: tuple[int, int]) -> Triangulation2D:
    """Replace the diagonal of the strictly convex quadrilateral around an interior edge."""
    opp = dict(tri.opp)
    _flip_in_place(tri.points, opp, edge)
    return Triangulation2D._trusted(tri.points, opp)


def admissible_flips(tri: Triangulation2D) -> list[tuple[int, int]]:
    """Interior edges whose flip is admissible, in canonical order: a fresh list, the caller's to change."""
    return list(tri.admissible)


def flip_walk(tri: Triangulation2D, seed: int, steps: int) -> Triangulation2D:
    """Apply a deterministic pseudo-random sequence of admissible flips.

    Each step draws from the admissible edges in canonical order, as
    admissible_flips lists them, so a seed fixes the walk.
    """
    rng = random.Random(seed)
    options = admissible_flips(tri)
    points, opp = tri.points, dict(tri.opp)
    for _ in range(steps):
        if not options:
            break
        i, j, k, l = _flip_in_place(points, opp, rng.choice(options))
        del options[bisect_left(options, (i, j))]
        for a, b in ((k, l), (i, k), (i, l), (j, k), (j, l)):
            e = (a, b) if a < b else (b, a)
            at = bisect_left(options, e)
            listed = options[at : at + 1] == [e]
            if (_flip_targets(points, opp, e) is not None) != listed:
                options[at : at + listed] = [] if listed else [e]  # delete, or insert in order
    return Triangulation2D._trusted(points, opp)


@lru_cache(maxsize=None)
def _standard_cube() -> tuple[int, dict[tuple[int, int], int]]:
    """T_2's cube, the one triangle enumerated: the lcm D of its denominators, and D * T_alpha."""
    linear = ehrhart_tensors(standard_simplex(2, 2), 3).coefficient(1)
    cube = sym_product(sym_product(linear, linear), linear)
    return cube.den, {a: cube.num.get(a, 0) for a in RANK9}


@lru_cache(maxsize=None)
def _degree_one_cubic_tensor(anchored: tuple[Point, Point, Point]) -> tuple[int, ...]:
    """D times the cube of the degree-1 coefficient of the rank-3 expansion of a
    unimodular triangle (0, u, v), in the order of RANK9.

    The lattice map e_1 -> u, e_2 -> v carries T_2 onto it, and the
    expansion commutes with lattice maps, so its cube is apply_linear of
    T_2's by that integer matrix: integer combinations of T_2's D-scaled
    integer coordinates.  No triangle is enumerated.
    """
    _, u, v = anchored
    _, cube = _standard_cube()
    rows = _pull_back_rows(((u[0], v[0]), (u[1], v[1])), RANK9)
    return tuple(sum(c * cube[a] for a, c in row.items()) for _, row in rows)


def _triangle_cube(points: tuple[Point, Point, Point]) -> tuple[int, ...]:
    base = min(points)
    anchored = tuple(sorted((x - base[0], y - base[1]) for x, y in points))
    return _degree_one_cubic_tensor(anchored)


def valuation_n(p: LatticePolytope, triangulation: Triangulation2D | None = None) -> SymTensor:
    """Rank-9 valuation on lattice polygons: triangulate and sum the cubes of the
    degree-1 rank-3 expansion coefficients of the triangles.

    Vanishes on polygons of dimension at most one; the value is independent
    of the chosen triangulation, which must be one of p: as a Triangulation2D
    is on all lattice points of its hull, that hull must have p's vertices.
    Cubes are summed in integers over D.
    """
    if p.ambient_dim != 2:
        raise ValueError("the rank-9 valuation lives on lattice polygons")
    if p.is_empty or p.dim <= 1:
        return SymTensor.zero(2, 9)
    if triangulation is not None and tuple(sorted(set(_hull(triangulation.points)))) != p.vertices:
        raise ValueError("the triangulation's points are not the polygon's lattice points")
    tri = triangulation if triangulation is not None else unimodular_triangulation(p)
    d, _ = _standard_cube()
    sums = map(sum, zip(*(_triangle_cube(tri.triangle_points(t)) for t in tri.triangles)))
    return SymTensor._ints(2, 9, dict(zip(RANK9, sums)), d)
