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

fibers yields blocks (heads, vs, los, his) of integer sequences of one
length: run q holds y = (heads[0][q], .., heads[-1][q], vs[q], s) for
los[q] <= s <= his[q].  Every run holds a point, and blocks and runs come
in lex order of y.  When y has one coordinate, heads is empty, vs is None
and the block's single run holds y = (s,).  The walk fixes t_1..t_(m-3)
one value at a time, then takes the bounds of t_(m-1) for every t_(m-2)
and the runs of every (t_(m-2), t_(m-1)) pair between them, one pass per
row over a list.  A block holds at most _BLOCK pairs, or the pairs of one
t_(m-2).  The empty runs of a thin polytope are dropped in bulk.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, repeat
from math import ceil, gcd
from operator import le, mul, neg

from .linalg import integer_kernel
from .polytope import LatticePolytope, _dot, _identity, _maximal_tight

_MAX_SCAN_CELLS = 50_000_000
# (t_(m-2), t_(m-1)) pairs per block: bounds the lists a block holds at once
_BLOCK = 1 << 16


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

    Level j has rows (c, d, s) over t_1..t_(j+1) with c primitive and
    nonzero in its last entry.  Each row is a nonnegative combination of
    facet rows with weights summing to s, so c . t <= k d holds on kP and,
    as each facet row loses 1 on the relative interior, c . t <= k d - ceil(s)
    holds there.  levels[j] holds, upper-bound rows (c_(j+1) > 0) first, the
    columns of c over t_1..t_j, |c_(j+1)| of either kind, the d and ceil(s).
    The levels are built on first use, after the scan cap check.
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
            # a point spans no direction, so it needs no kernel
            self.basis = [tuple(e) for e in integer_kernel([a for a, _ in p.hull_equalities], n)] if m else []
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
        out = []
        for j, level in enumerate(reversed(levels)):
            rows = sorted((row for row in level if row[0][-1]), key=lambda row: row[0][-1] < 0)
            out.append((
                [[c[i] for c, _, _ in rows] for i in range(j)],
                [c[-1] for c, _, _ in rows if c[-1] > 0],
                [-c[-1] for c, _, _ in rows if c[-1] < 0],
                [d for _, d, _ in rows],
                [ceil(s) for _, _, s in rows],
            ))
        return out

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
    """Rows A with x = sum_i y_i A_i for the coordinates y of fibers' blocks, or None when y = x."""
    return None if p.is_empty else _frame(p).rows


def fibers(p: LatticePolytope, relint: bool = False, scale: int = 1):
    """Blocks (heads, vs, los, his) covering the lattice points y of scale * p in lex order.

    y is in p's lattice coordinates (see lattice_rows); the module docstring
    gives the block contract.

    With relint, the blocks cover the relative interior instead (a point's
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
    levels = [
        (cols, ups, lows, [scale * d - e for d, e in zip(ds, ceils)] if strict else [scale * d for d in ds])
        for cols, ups, lows, ds, ceils in frame.levels
    ]
    prefix = () if frame.full else (scale,)
    if not levels:
        # p is a point o, so y = (scale,) and x = scale * o
        return iter([([], None, [scale], [scale])])
    if len(levels) > 1:
        return _blocks(levels, prefix, [level[3] for level in levels])
    lo, hi = _bounds(levels[0], levels[0][3])
    return iter([([], [scale] if prefix else None, [lo], [hi])] if lo <= hi else [])


def _bounds(level, res) -> tuple[int, int]:
    """Interval of the level's last coordinate, from residual offsets of its rows."""
    _, ups, lows, _ = level
    hi = min([r // a for r, a in zip(res, ups)])
    lo = -min([r // a for r, a in zip(res[len(ups):], lows)])
    return lo, hi


def _ranges(level, res, vs, us=None):
    """Lists lo, hi of the level's last coordinate at each v of vs, or at each (u, v) of zip(us, vs).

    u and v are the two coordinates before it; res holds its rows' offsets net of the others.
    """
    cols, ups, lows, _ = level
    floors = []
    for r, c, d, a in zip(res, cols[-2] if us else repeat(0), cols[-1], ups + lows):
        if c and d:
            floors.append([(r - c * u - d * v) // a for u, v in zip(us, vs)])
        else:
            w, ws = (c, us) if c else (d, vs)
            floors.append([(r - w * x) // a for x in ws] if w else [r // a] * len(vs))
    nup = len(ups)
    his = floors[0] if nup == 1 else list(map(min, *floors[:nup]))
    los = list(map(neg, floors[nup] if len(lows) == 1 else map(min, *floors[nup:])))
    return los, his


def _block(fixed, lists):
    """The runs of lists = [*heads, vs, los, his] that hold a point, as a block led by fixed heads, if any."""
    los, his = lists[-2:]
    if not all(map(le, los, his)):
        # empty runs are dropped in bulk, one byte each: a thin P can have millions
        keep = bytes(map(le, los, his))
        lists = [list(compress(x, keep)) for x in lists]
    *heads, vs, los, his = lists
    if his:
        yield [[x] * len(his) for x in fixed] + heads, vs, los, his


def _blocks(levels, fixed, res):
    """Blocks under the fixed values of t_1..t_j; levels starts at level j, res holds its offsets net of them.

    Down to t_(m-3) one value at a time; then the bounds of t_(m-1) for
    every t_(m-2), and the runs of every (t_(m-2), t_(m-1)) pair.
    """
    lo, hi = _bounds(levels[0], res[0])
    if len(levels) == 2:
        # a polygon has no t_(m-2): one block over every t_1
        span = range(lo, hi + 1)
        yield from _block(fixed, [span, *_ranges(levels[1], res[1], span)])
        return
    if len(levels) > 3:
        j = len(levels[0][0])
        for v in range(lo, hi + 1):
            rest = [[r - c * v for r, c in zip(rs, level[0][j])] for rs, level in zip(res[1:], levels[1:])]
            yield from _blocks(levels[1:], fixed + (v,), rest)
        return
    for start in range(lo, hi + 1, _BLOCK):
        xs = range(start, min(start + _BLOCK, hi + 1))
        vlo, vhi = _ranges(levels[1], res[1], xs)
        stops = [h + 1 for h in vhi]
        widths = [max(b - a, 0) for a, b in zip(vlo, stops)]
        ends = list(accumulate(widths))
        a = 0
        while a < len(xs):
            # one value of t_(m-2), then as many more as keep the block within _BLOCK pairs
            b = bisect_right(ends, (ends[a - 1] if a else 0) + _BLOCK, a + 1)
            us = list(chain.from_iterable(map(repeat, xs[a:b], widths[a:b])))
            vs = list(chain.from_iterable(map(range, vlo[a:b], stops[a:b])))
            yield from _block(fixed, [us, vs, *_ranges(levels[2], res[2], vs, us)])
            a = b


def _expand(p: LatticePolytope, blocks):
    """The points x of blocks of p, one at a time."""
    # a block of one coordinate has vs None: los stands in for it, and y = (s,)
    ys = (
        (*h, v, s) if vs else (s,)
        for heads, vs, los, his in blocks
        for *h, v, lo, hi in zip(*heads, vs or los, los, his)
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


def _count(blocks) -> int:
    return sum(len(his) + sum(his) - sum(los) for _, _, los, his in blocks)


def count(p: LatticePolytope) -> int:
    """Number of lattice points in p; zero for the empty polytope."""
    return _count(fibers(p))


def count_relint(p: LatticePolytope) -> int:
    return _count(fibers(p, relint=True))
