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
polytope and pruned to the facets of each projection.  Every row carries
its set of tight vertices as a bitmask.  A projected row is a positive
combination of two rows, so a vertex is tight on it iff on both, and its
set is the AND of theirs.  A row tight at no vertex is dropped, and of the
rest those with maximal sets are the facets (polytope._maximal).  A kept
row is tight at a lattice vertex, so the gcd of its normal divides its
offset, and dividing by it keeps every lattice point.  The last level uses
the facet rows themselves, so the runs are exact.
On kP the lattice coordinates are y = x for a full-dimensional P, else
y = (k, t) with x = sum_i y_i A_i and A = (o, E_1..E_m).

fibers yields blocks (heads, los, his) of integer sequences of one
length: run q holds y = (heads[0][q], .., heads[-1][q], s) for
los[q] <= s <= his[q], so heads holds every coordinate of y but the last
and is empty when y has one.  Every run holds a point, a block holds at
most _BLOCK runs, and blocks and runs come in lex order of y.  Each level
holds its prefixes t_1..t_j as parallel lists, bounds t_(j+1) for all of
them in one pass per row, drops in bulk the prefixes with no child and cuts
the children into slices of at most _BLOCK, which may split one prefix's
range.  The last level's bounds are the runs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, repeat
from math import ceil, gcd
from operator import le, mul, neg, sub

from .linalg import integer_kernel
from .polytope import LatticePolytope, _dot, _identity, _maximal

_MAX_SCAN_CELLS = 50_000_000
# entries per slice of a level and runs per block: bounds the lists held at once
_BLOCK = 1 << 16


class ScanTooLarge(ValueError):
    """The bounding box in lattice coordinates holds more cells than the cap allows."""


class _Frame:
    """Lattice frame and Fourier-Motzkin levels of a non-empty polytope.

    Level j has rows (c, d, s, tight) over t_1..t_(j+1), c primitive and
    nonzero in its last entry, tight the vertices on c . t = d as bits.  Each
    row is a nonnegative combination of facet rows with weights summing to s,
    so c . t <= k d holds on kP and, as each facet row loses 1 on the
    relative interior, c . t <= k d - ceil(s) holds there.  levels[j] holds,
    upper-bound rows (c_(j+1) > 0) first, each row's nonzero pairs
    (i, c_(i+1)) over t_1..t_j, |c_(j+1)| of either kind, the d and ceil(s).
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
        # facet rows in t, each tight at a vertex, so its gcd g divides its offset
        levels = [[]] if self.basis else []
        for a, b in self.facets:
            c = [_dot(a, e) for e in self.basis]
            d = b - _dot(a, self.origin)
            g = gcd(*c)
            tight = sum(1 << k for k, v in enumerate(self.verts) if _dot(c, v) == d)
            levels[0].append((tuple(x // g for x in c), d // g, Fraction(1, g), tight))
        for j in range(len(self.basis) - 1, 0, -1):
            levels.append(_project(levels[-1], j))
        out = []
        for j, level in enumerate(reversed(levels)):
            rows = sorted((row for row in level if row[0][-1]), key=lambda row: row[0][-1] < 0)
            out.append((
                [[(i, c[i]) for i in range(j) if c[i]] for c, *_ in rows],
                [c[-1] for c, *_ in rows if c[-1] > 0],
                [-c[-1] for c, *_ in rows if c[-1] < 0],
                [d for _, d, *_ in rows],
                [ceil(s) for _, _, s, _ in rows],
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


def _project(rows, j):
    """Facet rows of the projection onto t_1..t_j of the polytope cut out by rows over t_1..t_(j+1)."""
    keep = [(c[:j], d, s, t) for c, d, s, t in rows if not c[j]]
    ups = [r for r in rows if r[0][j] > 0]
    downs = [r for r in rows if r[0][j] < 0]
    for cu, du, su, tu in ups:
        for cd, dd, sd, td in downs:
            # a vertex is tight on the combination iff on both rows; a row tight at no vertex is no facet
            if t := tu & td:
                u, w = -cd[j], cu[j]
                c = [u * x + w * y for x, y in zip(cu[:j], cd[:j])]
                g = gcd(*c)
                keep.append((tuple(x // g for x in c), (u * du + w * dd) // g, Fraction(u * su + w * sd, g), t))
    # of rows with equal sets _maximal keeps the first, here the one with the largest s
    keep.sort(key=lambda row: row[2], reverse=True)
    return _maximal(keep)


@lru_cache(maxsize=8)
def _frame(p: LatticePolytope) -> _Frame:
    # equal polytopes have the same lattice points, so they may share a frame
    return _Frame(p)


def lattice_rows(p: LatticePolytope) -> tuple[tuple[int, ...], ...] | None:
    """Rows A with x = sum_i y_i A_i for the coordinates y of fibers' blocks, or None when y = x."""
    return None if p.is_empty else _frame(p).rows


def fibers(p: LatticePolytope, relint: bool = False, scale: int = 1):
    """Blocks (heads, los, his) covering the lattice points y of scale * p in lex order.

    y is in p's lattice coordinates (see lattice_rows); the module docstring
    gives the block contract and the walk.

    With relint, the blocks cover the relative interior instead (a point's
    relative interior is the point, and 0 * p is a point).  Raises
    ValueError when scale < 0, and ScanTooLarge, before any level is built,
    when the box of the vertices in lattice coordinates has more than the
    cap's cells.
    """
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if p.is_empty:
        return iter(())
    frame = _frame(p)
    cells = 1
    for e in frame.extents:
        cells *= scale * e + 1
    if cells > _MAX_SCAN_CELLS:
        raise ScanTooLarge("bounding box too large to scan; reduce the dilation or dimension")
    if not frame.levels:
        # p is a point o, so y = (scale,) and x = scale * o
        return iter([([], [scale], [scale])])
    return _walk(frame.levels, scale, relint and scale > 0, frame.full)


def _walk(levels, scale, strict, full):
    """fibers' blocks, walked one slice of prefixes at a time; see the module docstring."""
    stack = [iter([[]])]  # the root: one prefix of no coordinates
    while stack:
        ts = next(stack[-1], None)
        if ts is None:
            stack.pop()
            continue
        los, his = _ranges(levels[len(stack) - 1], ts, scale, strict)
        if not all(map(le, los, his)):
            # prefixes with no child are dropped in bulk, one byte each: most of a thin P's have none
            keep = bytes(map(le, los, his))
            *ts, los, his = [list(compress(x, keep)) for x in (*ts, los, his)]
        if len(stack) < len(levels):
            stack.append(_slices(ts, los, his))
        elif his:
            yield (ts if full else [[scale] * len(his), *ts]), los, his


def _ranges(level, ts, scale, strict):
    """Lists lo, hi of the level's last coordinate for each prefix of the parallel lists ts."""
    rows, ups, lows, ds, ceils = level
    floors = []
    for terms, a, d, e in zip(rows, ups + lows, ds, ceils):
        r = scale * d - e if strict else scale * d
        if len(terms) == 1:
            (i, c), = terms
            floors.append([(r - c * x) // a for x in ts[i]])
        elif len(terms) == 2:
            (i, c), (k, b) = terms
            floors.append([(r - c * x - b * y) // a for x, y in zip(ts[i], ts[k])])
        else:
            res = [r] * (len(ts[0]) if ts else 1)  # the root is one prefix of no coordinates
            for i, c in terms:
                res = [s - c * x for s, x in zip(res, ts[i])]
            floors.append([s // a for s in res] if terms else [r // a] * len(res))
    his = floors[0] if len(ups) == 1 else list(map(min, *floors[: len(ups)]))
    los = list(map(neg, floors[-1] if len(lows) == 1 else map(min, *floors[len(ups) :])))
    return los, his


def _slices(ts, los, his):
    """Slices of at most _BLOCK children (*t, s), lo <= s <= hi, of the prefixes t of ts, each range non-empty."""
    stops = [h + 1 for h in his]
    ends = [0, *accumulate(map(sub, stops, los))]
    for g in range(0, ends[-1], _BLOCK):
        # children g.. of prefixes a..b-1; the first and the last prefix's range may be cut
        a = bisect_right(ends, g) - 1
        b = bisect_left(ends, g + _BLOCK, a + 1, len(los))
        starts, tops = los[a:b], stops[a:b]
        starts[0] += g - ends[a]
        tops[-1] -= max(ends[b] - g - _BLOCK, 0)
        yield [list(chain.from_iterable(map(repeat, t[a:b], map(sub, tops, starts)))) for t in ts] + [
            list(chain.from_iterable(map(range, starts, tops)))
        ]


def _expand(p: LatticePolytope, blocks):
    """The points x of blocks of p, one at a time."""
    ys = ((*h, s) for heads, los, his in blocks for *h, lo, hi in zip(*heads, los, his) for s in range(lo, hi + 1))
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
    return sum(len(his) + sum(his) - sum(los) for _, los, his in blocks)


def count(p: LatticePolytope) -> int:
    """Number of lattice points in p; zero for the empty polytope."""
    return _count(fibers(p))


def count_relint(p: LatticePolytope) -> int:
    return _count(fibers(p, relint=True))
