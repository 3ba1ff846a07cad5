"""Exact lattice-point enumeration for polytopes and their relative interiors.

Points are enumerated fiber by fiber in the polytope's own affine lattice.
Its frame is worked out here, from the vertices and hull equalities alone.
A full-dimensional P takes the origin o = 0 and the unit vectors.  A
lower-dimensional P takes its first vertex as o, and as E_1..E_m the row
Hermite normal form of the integer kernel of its hull equality normals
(linalg.integer_kernel): echelon, pivot columns increasing, pivots
positive.  Each lattice point of aff(P) is x = o + sum_j t_j E_j for one
integer vector t, and lex order in t is lex order in x.  A facet
a . x <= b becomes (a E) . t <= b - a . o; the relative interior uses
b - 1, which is exact because both sides are integers.

The bounds on t_j for a fixed prefix t_1..t_(j-1) come from Fourier-Motzkin
projections of those rows onto the first j coordinates, computed once per
polytope and pruned to the facets of each projection.  Every projected row
is a nonnegative combination of facet rows, and integer points satisfy it
with a primitive normal and a floored offset.  The last level uses the
facet rows themselves, so the runs are exact.
On kP the lattice coordinates are y = x for a full-dimensional P, else
y = (k, t) with x = sum_i y_i A_i and A = (o, E_1..E_m).

fibers yields a column (head, vs, los, his) for each value head of all but
the last two coordinates of y: integer sequences vs, los, his of one
length, holding the runs of points y = head + (v, s) with lo <= s <= hi
for v, lo, hi in zip(vs, los, his).  Every run holds at least
one point, and columns and their runs come in lex order of y.  When y has
one coordinate, vs is None and the column's single run holds y = (s,).
The walk scans every value of the second-to-last coordinate between the
projected bounds, so a thin polytope can cost a pass over many empty runs;
they are dropped in bulk, not one by one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from math import ceil, gcd
from operator import le, mul, neg

from .linalg import integer_kernel
from .polytope import LatticePolytope, _dot, _identity, _maximal_tight

_MAX_SCAN_CELLS = 50_000_000


class ScanTooLarge(ValueError):
    """The bounding box in lattice coordinates holds more cells than the cap allows."""


def _primitive(c, d, s):
    """(c, d, s) divided by the gcd g of c, or None when g does not divide d: then c . t = d at no lattice t."""
    g = 0
    for x in c:
        g = gcd(g, x)
    return None if d % g else (tuple(x // g for x in c), d // g, Fraction(s, g))


class _Frame:
    """Lattice frame and Fourier-Motzkin levels of a non-empty polytope.

    levels[j] holds rows (c, d, s) over t_1..t_(j+1) with c primitive and
    nonzero in its last entry.  Each row is a nonnegative combination of
    facet rows with weights summing to s, so c . t <= k d holds on kP and,
    as each facet row loses 1 on the relative interior, c . t <= k d - s
    holds there.  The levels are built on first use, after the scan cap check.
    """

    def __init__(self, p: LatticePolytope):
        n = p.ambient_dim
        m = p.dim
        self.full = m == n
        if self.full:
            self.origin = (0,) * n
            self.basis = list(_identity(n))
        else:
            self.origin = p.vertices[0]
            self.basis = [tuple(e) for e in integer_kernel([a for a, _ in p.hull_equalities], n)]
        self.rows = None if self.full else (self.origin, *self.basis)
        self.verts = [self._coordinates(v) for v in p.vertices]
        self.extents = [max(t[j] for t in self.verts) - min(t[j] for t in self.verts) for j in range(m)]
        self.facets = p.facet_inequalities

    @cached_property
    def levels(self):
        # facet rows in t; each is tight at a vertex, so _primitive keeps it
        levels = []
        if self.basis:
            levels.append([
                _primitive([_dot(a, e) for e in self.basis], b - _dot(a, self.origin), 1) for a, b in self.facets
            ])
        for j in range(len(self.basis) - 1, 0, -1):
            levels.append(_project(levels[-1], j, self.verts))
        levels.reverse()
        return [[row for row in level if row[0][-1]] for level in levels]

    def _coordinates(self, x) -> tuple[int, ...]:
        # forward substitution on the pivot columns of the echelon basis
        diff = [xi - oi for xi, oi in zip(x, self.origin)]
        t = []
        for e in self.basis:
            col = next(i for i, v in enumerate(e) if v)
            tj = diff[col] // e[col]
            diff = [a - tj * b for a, b in zip(diff, e)]
            t.append(tj)
        return tuple(t)


def _project(rows, j, verts):
    """Facet rows of the projection onto t_1..t_j of the polytope cut out by rows over t_1..t_(j+1)."""
    keep = [(c[:j], d, s) for c, d, s in rows if not c[j]]
    ups = [r for r in rows if r[0][j] > 0]
    downs = [r for r in rows if r[0][j] < 0]
    for cu, du, su in ups:
        for cd, dd, sd in downs:
            u, w = -cd[j], cu[j]
            c = [u * x + w * y for x, y in zip(cu[:j], cd[:j])]
            # a row tight at no lattice point is tight at no vertex, so it is no facet
            if any(c) and (row := _primitive(c, u * du + w * dd, u * su + w * sd)):
                keep.append(row)
    # a row is a facet of the projection iff its set of tight projected
    # vertices is maximal; of equal facets _maximal_tight keeps the first,
    # here the one with the largest s
    keep.sort(key=lambda row: row[2], reverse=True)
    return _maximal_tight(keep, verts)


@lru_cache(maxsize=8)
def _frame(p: LatticePolytope) -> _Frame:
    # equal polytopes have the same lattice points, so they may share a frame
    return _Frame(p)


def lattice_rows(p: LatticePolytope) -> tuple[tuple[int, ...], ...] | None:
    """Rows A with x = sum_i y_i A_i for the coordinates y of fibers' columns, or None when y = x."""
    return None if p.is_empty else _frame(p).rows


def fibers(p: LatticePolytope, relint: bool = False, scale: int = 1):
    """Columns (head, vs, los, his) covering the lattice points y of scale * p in lex order.

    y is in p's lattice coordinates (see lattice_rows); the module docstring
    gives the column contract.

    With relint, the columns cover the relative interior instead (a point's
    relative interior is the point, and 0 * p is a point).  Raises
    ScanTooLarge, before any enumeration, when the box of the vertices in
    lattice coordinates has more than the cap's cells.
    """
    if p.is_empty:
        return iter(())
    frame = _frame(p)
    cells = 1
    for e in frame.extents:
        cells *= scale * e + 1
    if cells > _MAX_SCAN_CELLS:
        raise ScanTooLarge("bounding box too large to scan; reduce the dilation or dimension")
    strict = relint and p.dim > 0 and scale > 0
    # per level: prefix coefficient columns, the divisors of the upper-bound
    # rows (last coefficient > 0, listed first) and of the lower-bound rows,
    # and the offsets
    levels = []
    for j, level in enumerate(frame.levels):
        rows = sorted(level, key=lambda row: row[0][-1] < 0)
        levels.append((
            [[c[i] for c, _, _ in rows] for i in range(j)],
            [c[-1] for c, _, _ in rows if c[-1] > 0],
            [-c[-1] for c, _, _ in rows if c[-1] < 0],
            [scale * d - ceil(s) if strict else scale * d for _, d, s in rows],
        ))
    return _walk(frame, levels, scale)


def _bounds(level, res) -> tuple[int, int]:
    """Interval of the level's last coordinate, from residual offsets of its rows."""
    _, ups, lows, _ = level
    hi = min([r // a for r, a in zip(res, ups)])
    lo = -min([r // a for r, a in zip(res[len(ups):], lows)])
    return lo, hi


def _walk(frame: _Frame, levels, k: int):
    """Odometer over t_1..t_(m-2); each t_(m-1) interval is expanded into one column."""
    m = len(levels)
    prefix = () if frame.full else (k,)
    if m == 0:
        # p is a point o, so y = (k,) and x = k o
        yield (), None, (k,), (k,)
        return
    if m == 1:
        lo, hi = _bounds(levels[0], levels[0][3])
        if lo <= hi:
            yield (), prefix or None, (lo,), (hi,)
        return
    last_cols, ups, lows, _ = levels[-1]
    nup = len(ups)
    # res[j][l]: residual offsets of level l's rows once t_1..t_j are fixed
    res = [[level[3] for level in levels]]
    t = [0] * (m - 1)
    top = [0] * (m - 1)

    def fix(j):
        # t_j (that is, t[j - 1]) changed: recompute the residuals after it
        v = t[j - 1]
        prev = res[j - 1]
        del res[j:]
        res.append([None] * j + [
            [r - c * v for r, c in zip(prev[l], levels[l][0][j - 1])] for l in range(j, m)
        ])

    j = 0
    while True:
        lo, hi = _bounds(levels[j], res[j][j])
        if lo <= hi:
            if j < m - 2:
                t[j], top[j] = lo, hi
                j += 1
                fix(j)
                continue
            # last level for every t_(m-1) in [lo, hi]: one list of floors per row
            base, col = res[j][m - 1], last_cols[m - 2]
            span = range(lo, hi + 1)
            floors = [
                [(b - c * v) // a for v in span] if c else [b // a] * len(span)
                for b, c, a in zip(base, col, ups + lows)
            ]
            his = floors[0] if nup == 1 else list(map(min, *floors[:nup]))
            los = list(map(neg, floors[nup] if len(lows) == 1 else map(min, *floors[nup:])))
            if not all(map(le, los, his)):
                # empty runs are dropped in bulk, one byte each: a thin P can have millions
                keep = bytes(map(le, los, his))
                span, los, his = list(compress(span, keep)), list(compress(los, keep)), list(compress(his, keep))
            if span:
                yield prefix + tuple(t[: m - 2]), span, los, his
        # advance the deepest prefix coordinate that has room
        j -= 1
        while j >= 0 and t[j] == top[j]:
            j -= 1
        if j < 0:
            return
        t[j] += 1
        j += 1
        fix(j)


def _expand(p: LatticePolytope, columns):
    """The points x of columns of p, one at a time."""
    # a column of one coordinate has vs None: los stands in for it, and y = (s,)
    ys = (
        head + (v, s) if vs else (s,)
        for head, vs, los, his in columns
        for v, lo, hi in zip(vs or los, los, his)
        for s in range(lo, hi + 1)
    )
    rows = lattice_rows(p)
    if rows is None:
        return ys
    cols = list(zip(*rows))
    return (tuple(sum(map(mul, y, col)) for col in cols) for y in ys)


def lattice_points(p: LatticePolytope) -> list[tuple[int, ...]]:
    """All integer points of p, in lex order."""
    return list(_expand(p, fibers(p)))


def relint_lattice_points(p: LatticePolytope) -> list[tuple[int, ...]]:
    """Integer points of the relative interior of p (facets strict, hull equalities kept)."""
    return list(_expand(p, fibers(p, relint=True)))


def _count(columns) -> int:
    return sum(len(his) + sum(his) - sum(los) for _, _, los, his in columns)


def count(p: LatticePolytope) -> int:
    """Number of lattice points in p; zero for the empty polytope."""
    return _count(fibers(p))


def count_relint(p: LatticePolytope) -> int:
    return _count(fibers(p, relint=True))
