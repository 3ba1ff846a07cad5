"""Exact lattice polytope geometry in low dimensions.

A polytope is its sorted integer vertices and its half-spaces, all in
ambient integer coordinates: integer equalities cutting out the affine
hull, and primitive integer facet inequalities that are valid relative to
the affine hull.  This keeps face and relative-interior computations exact
in any dimension.  Nothing else is stored; the lattice frame in which the
points of a lower-dimensional polytope are enumerated is derived from
these fields in points.

Only the constructor, on point sets, runs the convex hull: double
description in integers (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda
and Prodon 1996) from the first m-simplex among the sorted points, adding
the others in lex order.  Three eliminations give that simplex and its
facets for any number of points.  Normals lie in the direction space, so
each facet has one row.  Each row carries its set of tight points as a
bitmask, and a facet is a row whose set is maximal (_maximal), the rule
that also gives a face's facets and the fiber bounds in points.  A new row
is always a positive combination of two valid rows, so a point is tight on
it exactly when it is tight on both: its set is the AND of theirs, and no
row is evaluated at the points again.  Faces are read off the vertex-facet
incidences and keep their parent's normals.  Images under dilation,
translation, negation and unimodular maps map the vertices and half-spaces
through one code path: x -> k M x + t with M in GL_n(Z) sends a . x <= b
to (a M^-1) . x <= k b + (a M^-1) . t, and primitive normals stay
primitive because M^-1 is an integer matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb, gcd
from numbers import Integral
from operator import and_, mul

from .linalg import _echelon, _reduced, det, invert_matrix, rational_row_space_equations

Point = tuple[int, ...]

MAX_AMBIENT_DIM = 6
# bounds the input size only, as the hull tests no subsets; the slowest hull of an accepted input measured,
# 100,000 points in Z^1, took 1.2 s (2-vCPU Xeon, Python 3.11.7, best of 5 in fresh processes)
MAX_HULL_SUBSETS = 100_000


def _dot(a, x) -> int:
    return sum(map(mul, a, x))


class LatticePolytope:
    """Convex hull of finitely many integer points, canonicalized."""

    def __init__(self, points, ambient_dim: int | None = None):
        pts = [tuple(map(_entry, p)) for p in points]
        if pts:
            dims = {len(p) for p in pts}
            if len(dims) != 1:
                raise ValueError("points must share a common dimension")
            n = dims.pop()
            if ambient_dim is not None and ambient_dim != n:
                raise ValueError("ambient_dim does not match the points")
        else:
            if ambient_dim is None:
                raise ValueError("empty polytope needs an explicit ambient dimension")
            n = ambient_dim
        if n < 1 and pts:
            raise ValueError("ambient dimension must be at least 1")
        if n > MAX_AMBIENT_DIM:
            raise ValueError(f"ambient dimension capped at {MAX_AMBIENT_DIM}")
        self.ambient_dim = n

        pts = sorted(set(pts))
        if not pts:
            self.vertices: tuple[Point, ...] = ()
            self.dim = -1
            self.hull_equalities: tuple[tuple[Point, int], ...] = ()
            self.facet_inequalities: tuple[tuple[Point, int], ...] = ()
            return

        simplex, eq_rows, facets = _first_simplex(pts, n)
        self.dim = len(simplex) - 1
        self.hull_equalities = tuple((tuple(row), _dot(row, pts[0])) for row in eq_rows)
        facets, self.vertices = _facets_of_point_set(pts, simplex, facets) if facets else ([], tuple(pts))
        self.facet_inequalities = tuple(facets)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def empty(ambient_dim: int) -> LatticePolytope:
        return LatticePolytope([], ambient_dim=ambient_dim)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    # -- membership ----------------------------------------------------------

    def contains(self, point) -> bool:
        p = tuple(point)
        return all(_dot(a, p) == b for a, b in self.hull_equalities) and all(
            _dot(a, p) <= b for a, b in self.facet_inequalities
        )

    def bounding_box(self) -> tuple[Point, Point]:
        lo = tuple(min(v[i] for v in self.vertices) for i in range(self.ambient_dim))
        hi = tuple(max(v[i] for v in self.vertices) for i in range(self.ambient_dim))
        return lo, hi

    # -- faces ----------------------------------------------------------------

    @cached_property
    def _tight(self) -> tuple[int, ...]:
        """The vertices on a . x = b of each facet inequality a . x <= b, in order, as bits in vertex order."""
        verts = self.vertices
        return tuple(sum(1 << k for k, v in enumerate(verts) if _dot(a, v) == b) for a, b in self.facet_inequalities)

    @cached_property
    def _facets(self) -> tuple[LatticePolytope, ...]:
        """The facet on a . x = b of each facet inequality a . x <= b, in order, with no hull.

        Its inequalities are the other facets of self whose tight vertex sets
        on it are maximal among the non-empty proper subsets.
        """
        out = []
        for (a, b), face in zip(self.facet_inequalities, self._tight):
            verts = tuple(v for k, v in enumerate(self.vertices) if face >> k & 1)
            rows = [(c, d, s & face) for (c, d), s in zip(self.facet_inequalities, self._tight) if s & face != face]
            kept = tuple((c, d) for c, d, _ in _maximal(rows))
            out.append(_polytope(self.ambient_dim, self.dim - 1, verts, self.hull_equalities + ((a, b),), kept))
        return tuple(out)

    # -- dunder protocol -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticePolytope):
            return NotImplemented
        return (self.ambient_dim, self.vertices) == (other.ambient_dim, other.vertices)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self) -> str:
        if self.is_empty:
            return f"LatticePolytope.empty({self.ambient_dim})"
        return f"LatticePolytope({list(map(list, self.vertices))})"


def _maximal(rows) -> list:
    """The rows (..., t), in order, whose tight sets t, bitmasks, are non-empty and in no other row's set.

    Of rows with equal sets, the first is kept: the sort by size is stable.
    """
    kept = []  # the rows kept so far, by index, largest sets first
    for i in sorted(range(len(rows)), key=lambda i: rows[i][-1].bit_count(), reverse=True):
        s = rows[i][-1]
        if s and all(s & rows[k][-1] != s for k in kept):
            kept.append(i)
    return [rows[i] for i in sorted(kept)]


def _first_simplex(points: list[Point], n: int) -> tuple[list[Point], list[list[int]], list[tuple[Point, int, int]]]:
    """(simplex, hull equations, facet rows (a, b, t) as in _facets_of_point_set) of sorted distinct points.

    One streamed elimination keeps points[0] and each point whose difference from it is independent of those before.
    Row k lies opposite simplex[k]: with x_i column i of M^-1, M the m edges on the hull equations, so that
    edge j . x_i = [i = j], its normal is sum x_i for k = 0 and -x_(k-1) for k > 0; _reduced gives d M^-1, d < 0 too.
    """
    origin = points[0]
    simplex = [origin] + [points[i] for i in _echelon(([x - y for x, y in zip(p, origin)] for p in points), n)[2]]
    edges = [[x - y for x, y in zip(p, origin)] for p in simplex[1:]]
    m = len(edges)
    eq_rows = rational_row_space_equations(edges, n) if m < n else []
    if not m:
        return simplex, eq_rows, []
    red, _, d = _reduced([row + [int(i == j) for j in range(n)] for i, row in enumerate(edges + eq_rows)], 2 * n)
    cols = list(zip(*red))[n : n + m]
    facets = []
    for k, a in enumerate([[sum(xs) for xs in zip(*cols)]] + [[-x for x in col] for col in cols]):
        g = gcd(*a) if d > 0 else -gcd(*a)
        a = tuple(x // g for x in a)
        facets.append((a, _dot(a, simplex[1 if k == 0 else 0]), (1 << m + 1) - 1 - (1 << k)))
    return simplex, eq_rows, facets


def _facets_of_point_set(points: list[Point], simplex: list[Point], facets: list) -> tuple[list, tuple[Point, ...]]:
    """Sorted facet inequalities (a, b), a . x <= b, a primitive, and sorted vertices of conv(points), an m-polytope.

    Facets are rows (a, b, t), t the points on a . x = b as bits in the order added, the first simplex's first
    (_first_simplex); each further point joins each facet it violates to each it satisfies strictly and shares a
    ridge's m - 1 points with.
    """
    m = len(simplex) - 1
    added = simplex + [q for q in points if q not in simplex]
    for i, p in enumerate(added[m + 1 :], m + 1):
        slacks = [(f, f[1] - _dot(f[0], p)) for f in facets]
        outs = [(f, s) for f, s in slacks if s < 0]
        ins = [(f, s) for f, s in slacks if s > 0]
        through = [(a, b, t | 1 << i) for (a, b, t), s in slacks if s == 0]
        for (a, b, t), s in outs:
            for (c, d, w), u in ins:
                if (t & w).bit_count() >= m - 1:
                    normal = [u * x - s * y for x, y in zip(a, c)]
                    g = gcd(*normal)
                    through.append((tuple(x // g for x in normal), (u * b - s * d) // g, t & w | 1 << i))
        # the facets p satisfies strictly stay; of the rows through p, those with maximal tight sets are facets
        facets = [f for f, _ in ins] + _maximal(through)
    # each t is exact, so a point is a vertex iff it is the only point on every facet through it
    vertices = [x for k, x in enumerate(added) if reduce(and_, (t for _, _, t in facets if t >> k & 1), -1) == 1 << k]
    return sorted((a, b) for a, b, _ in facets), tuple(sorted(vertices))


# -- constructions -------------------------------------------------------------


def from_points(points, ambient_dim: int | None = None) -> LatticePolytope:
    """Convex hull of integer points, with hull-minimal canonical vertices."""
    return LatticePolytope(points, ambient_dim=ambient_dim)


def standard_simplex(k: int, n: int) -> LatticePolytope:
    """Simplex spanned by the origin and the first k basis vectors in R^n."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= ambient dimension")
    pts = [(0,) * n]
    for i in range(k):
        pts.append(tuple(int(j == i) for j in range(n)))
    return LatticePolytope(pts)


def _identity(n: int) -> tuple[Point, ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _polytope(n: int, dim: int, vertices, equalities, facets) -> LatticePolytope:
    """A polytope set from its fields, with no hull."""
    q = LatticePolytope.__new__(LatticePolytope)
    q.ambient_dim, q.dim, q.vertices, q.hull_equalities, q.facet_inequalities = n, dim, vertices, equalities, facets
    return q


def _image(p: LatticePolytope, m, m_inv, t, k: int) -> LatticePolytope:
    """Image of a non-empty p under x -> k m x + t, for k >= 1 and m, m_inv inverse integer matrices.

    Vertices, hull equalities and facet inequalities are mapped; no hull is
    computed.  With x' = k m x + t, a . x <= b becomes
    (a m_inv) . x' <= k b + (a m_inv) . t.
    """
    cols = tuple(zip(*m_inv))

    def point(x) -> Point:
        return tuple(k * _dot(row, x) + ti for row, ti in zip(m, t))

    def half_space(a, b) -> tuple[Point, int]:
        c = tuple(_dot(a, col) for col in cols)
        return c, k * b + _dot(c, t)

    verts = tuple(sorted(point(v) for v in p.vertices))
    facets = tuple(sorted(half_space(a, b) for a, b in p.facet_inequalities))
    return _polytope(p.ambient_dim, p.dim, verts, tuple(half_space(a, b) for a, b in p.hull_equalities), facets)


def dilate(p: LatticePolytope, k: int) -> LatticePolytope:
    k = _entry(k)
    if k < 0:
        raise ValueError("dilation factor must be non-negative")
    if p.is_empty:
        return p
    if k == 0:
        return LatticePolytope([(0,) * p.ambient_dim])
    identity = _identity(p.ambient_dim)
    return _image(p, identity, identity, (0,) * p.ambient_dim, k)


def translate(p: LatticePolytope, y) -> LatticePolytope:
    if p.is_empty:
        return p
    y = tuple(map(_entry, y))
    if len(y) != p.ambient_dim:
        raise ValueError("translation dimension mismatch")
    identity = _identity(p.ambient_dim)
    return _image(p, identity, identity, y, 1)


def negate(p: LatticePolytope) -> LatticePolytope:
    if p.is_empty:
        return p
    minus = tuple(tuple(-x for x in row) for row in _identity(p.ambient_dim))
    return _image(p, minus, minus, (0,) * p.ambient_dim, 1)


def minkowski_sum(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    if p.is_empty or q.is_empty:
        return LatticePolytope.empty(p.ambient_dim)
    return LatticePolytope([tuple(a + b for a, b in zip(u, v)) for u in p.vertices for v in q.vertices])


def _entry(x) -> int:
    # truncating 1.7 to 1 would silently build a different polytope or check a different map
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, Integral)):
        raise ValueError(f"coordinates, factors and map entries must be integers, not {x!r}")
    return int(x)


@dataclass(frozen=True)
class UnimodularMap:
    """Affine lattice map x -> M x + t with det(M) = +1 exactly."""

    matrix: tuple[tuple[int, ...], ...]
    translation: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.matrix)
        object.__setattr__(self, "matrix", tuple(tuple(_entry(x) for x in row) for row in self.matrix))
        object.__setattr__(self, "translation", tuple(_entry(x) for x in self.translation))
        if any(len(row) != n for row in self.matrix) or len(self.translation) != n:
            raise ValueError("matrix must be square and match the translation")
        if det(self.matrix) != 1:
            raise ValueError("unimodular map needs determinant exactly +1")

    @staticmethod
    def identity(n: int) -> UnimodularMap:
        return UnimodularMap(_identity(n), (0,) * n)

    @staticmethod
    def linear(matrix) -> UnimodularMap:
        return UnimodularMap(tuple(tuple(row) for row in matrix), (0,) * len(matrix))

    def inverse(self) -> UnimodularMap:
        inv = invert_matrix(self.matrix)
        m = tuple(tuple(int(x) for x in row) for row in inv)
        n = len(m)
        t = tuple(-sum(m[i][j] * self.translation[j] for j in range(n)) for i in range(n))
        return UnimodularMap(m, t)


def transform(p: LatticePolytope, phi: UnimodularMap) -> LatticePolytope:
    if len(phi.matrix) != p.ambient_dim:
        raise ValueError(f"map must be {p.ambient_dim} x {p.ambient_dim} to match the polytope")
    if p.is_empty:
        return p
    return _image(p, phi.matrix, phi.inverse().matrix, phi.translation, 1)


def prism(p: LatticePolytope) -> LatticePolytope:
    """Minkowski sum with the unit segment in the last coordinate direction."""
    n = p.ambient_dim
    if any(v[-1] != 0 for v in p.vertices):
        raise ValueError("prism base must lie in the hyperplane x_n = 0")
    e_n = tuple(int(i == n - 1) for i in range(n))
    segment = LatticePolytope([(0,) * n, e_n])
    return minkowski_sum(p, segment)


def dissect_prism(n: int) -> list[LatticePolytope]:
    """Dissection of the prism over the standard (n-1)-simplex into n unimodular simplices."""
    if n < 2:
        raise ValueError("prism dissection needs dimension at least 2")

    def e(i: int) -> Point:  # e(0) is the origin
        return tuple(int(j == i - 1) for j in range(n)) if i >= 1 else (0,) * n

    def plus(a: Point, b: Point) -> Point:
        return tuple(x + y for x, y in zip(a, b))

    pieces = [standard_simplex(n, n)]
    for i in range(2, n + 1):
        verts = [plus(e(j), e(n)) for j in range(i)]
        verts += [e(j) for j in range(i - 1, n)]
        pieces.append(LatticePolytope(verts))
    return pieces


def faces(p: LatticePolytope) -> list[LatticePolytope]:
    """All non-empty faces of p, including p itself, sorted by dimension: _facets walked depth-first."""
    found = {p.vertices: p} if p.vertices else {}
    stack = list(found.values())
    while stack:
        for face in stack.pop()._facets:
            if face.vertices not in found:
                found[face.vertices] = face
                stack.append(face)
    return sorted(found.values(), key=lambda f: (f.dim, f.vertices))


def random_unimodular(n: int, seed: int, steps: int) -> UnimodularMap:
    """Deterministic pseudo-random element of SL_n(Z) built by row operations: shears and 3-cycles of rows."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rng = random.Random(seed)
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n >= 2 and (n < 3 or rng.random() < 0.7):
            j = rng.randrange(n)
            k = rng.randrange(n - 1)
            if k >= j:
                k += 1
            s = rng.choice((1, -1))
            mat[j] = [a + s * b for a, b in zip(mat[j], mat[k])]
        elif n >= 3:
            i, j, k = rng.sample(range(n), 3)
            mat[i], mat[j], mat[k] = mat[j], mat[k], mat[i]
    return UnimodularMap(tuple(tuple(row) for row in mat), (0,) * n)


# -- JSON ----------------------------------------------------------------------


def polytope_from_json_dict(data: dict) -> LatticePolytope:
    verts = data.get("vertices") if isinstance(data, dict) else None
    if not isinstance(verts, list) or not verts:
        raise ValueError("polytope JSON needs a non-empty \"vertices\" list")
    if not all(isinstance(v, list) for v in verts):
        raise ValueError("vertices must be lists of integers")
    n = len(verts[0])
    if n > MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension capped at {MAX_AMBIENT_DIM}")
    # _entry refuses bools, floats, strings and nested lists before any of them is hashed
    distinct = len({tuple(map(_entry, v)) for v in verts})
    subsets = max(comb(distinct, m) for m in range(n + 1))
    if subsets > MAX_HULL_SUBSETS:
        raise ValueError(
            f"{distinct} points in dimension {n} need up to {subsets} hull candidate subsets, "
            f"capped at {MAX_HULL_SUBSETS}"
        )
    return LatticePolytope(verts)
