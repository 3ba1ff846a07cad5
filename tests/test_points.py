import random
import time
import tracemalloc
from unittest import mock
from fractions import Fraction
from math import factorial, gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_force_points, random_polytope
from test_polytope import reference_maximal_tight, tight_set
from lattens import points
from lattens.ehrhart import discrete_moment, discrete_moment_relint
from lattens.points import (
    ScanTooLarge,
    count,
    count_relint,
    fibers,
    lattice_points,
    lattice_rows,
    relint_lattice_points,
)
from lattens.polytope import (
    LatticePolytope,
    UnimodularMap,
    dilate,
    faces,
    from_points,
    prism,
    random_unimodular,
    standard_simplex,
    transform,
    translate,
)
from lattens.tensor import multi_indices


def test_lattice_points_examples():
    t2 = standard_simplex(2, 2)
    assert lattice_points(t2) == [(0, 0), (0, 1), (1, 0)]
    assert count(dilate(t2, 4)) == 15
    assert lattice_points(from_points([(5, -3)])) == [(5, -3)]


def test_lattice_points_match_brute_force():
    rng = random.Random(3)
    for _ in range(12):
        p = random_polytope(rng, ambient=3, coord_bound=4)
        assert lattice_points(p) == sorted(brute_force_points(p))


def test_relint_examples():
    t2 = standard_simplex(2, 2)
    assert relint_lattice_points(t2) == []
    assert relint_lattice_points(dilate(t2, 3)) == [(1, 1)]
    assert count_relint(dilate(t2, 3)) == 1
    point = from_points([(2, 7)])
    assert relint_lattice_points(point) == [(2, 7)]
    seg = from_points([(0, 0), (2, 0)])
    assert relint_lattice_points(seg) == [(1, 0)]


def test_counts_examples():
    square = from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert count(square) == 4
    cube = from_points([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert count(dilate(cube, 2)) == 27
    flat_t2 = from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert count(prism(flat_t2)) == 6
    assert count(LatticePolytope.empty(3)) == 0
    assert count_relint(LatticePolytope.empty(3)) == 0


def test_valuation_property_on_constructed_unions():
    cases = [
        # (P, Q) with P u Q convex
        (from_points([(0, 0), (1, 0), (0, 1), (1, 1)]), from_points([(1, 0), (2, 0), (1, 1), (2, 1)])),
        (standard_simplex(2, 2), from_points([(1, 0), (0, 1), (1, 1)])),
        (from_points([(0, 0), (2, 0)]), from_points([(1, 0), (3, 0)])),
    ]
    unions = [
        from_points([(0, 0), (2, 0), (0, 1), (2, 1)]),
        from_points([(0, 0), (1, 0), (0, 1), (1, 1)]),
        from_points([(0, 0), (3, 0)]),
    ]
    inters = [
        from_points([(1, 0), (1, 1)]),
        from_points([(1, 0), (0, 1)]),
        from_points([(1, 0), (2, 0)]),
    ]
    for p, q, u, i in zip([c[0] for c in cases], [c[1] for c in cases], unions, inters):
        assert count(p) + count(q) == count(u) + count(i)


def test_face_sum_identity_for_interior_counts():
    rng = random.Random(9)
    polys = [random_polytope(rng, ambient=3, coord_bound=3) for _ in range(8)]
    polys.append(from_points([(0, 0), (4, 0)]))
    polys.append(standard_simplex(3, 3))
    for p in polys:
        face_sum = sum((-1) ** f.dim * count(f) for f in faces(p))
        assert count_relint(p) == (-1) ** p.dim * face_sum


def test_counts_invariant_under_lattice_symmetries():
    rng = random.Random(14)
    for seed in range(6):
        p = random_polytope(rng, ambient=3, coord_bound=3)
        phi = random_unimodular(3, seed=seed, steps=6)
        q = translate(transform(p, phi), (1, -2, 3))
        assert count(p) == count(q)
        assert count_relint(p) == count_relint(q)


def test_scan_cap_refuses_before_the_fourier_motzkin_levels():
    # the moment curve t = 0..21 in Z^6: its box is far over the cap, and building its levels took 11 s
    p = from_points([tuple(t**k for k in range(1, 7)) for t in range(22)])
    start = time.perf_counter()
    with pytest.raises(ScanTooLarge):
        count(p)
    assert time.perf_counter() - start < 2


def test_negative_scale_is_refused():
    # scale=-1 once gave no blocks for T = conv((0,0),(2,0),(0,2)), though -T has six points
    t = from_points([(0, 0), (2, 0), (0, 2)])
    for p in (t, from_points([(0, 0, 0), (2, 0, 0)]), from_points([(1, 2)]), LatticePolytope.empty(2)):
        with pytest.raises(ValueError, match="nonnegative"):
            fibers(p, scale=-1)


def test_lex_order_is_deterministic():
    p = from_points([(0, 0), (2, 0), (0, 2), (2, 2)])
    pts = lattice_points(p)
    assert pts == sorted(pts)
    assert pts[0] == (0, 0) and pts[-1] == (2, 2)


def test_thin_simplex_enumerates_without_allocating_its_box():
    # 1,040,502 cells in the box and 37 lattice points
    p = from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (100, 100, 101)])
    tracemalloc.start()
    try:
        pts = lattice_points(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pts) == 37 and pts == sorted(pts)
    assert peak < 5 * 2**20


def test_thin_triangle_drops_its_empty_runs():
    # a million values of the first coordinate, and all but three of their runs are empty;
    # flooring every value in one list peaked at 40 MB
    p = from_points([(0, 0), (10**6, 1), (10**6 + 1, 1)])
    expected = [(0, 0), (10**6, 1), (10**6 + 1, 1)]
    tracemalloc.start()
    try:
        blocks = list(fibers(p))
        assert lattice_points(p) == expected and count(p) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert sum(len(his) for _, _, his in blocks) <= 3
    assert all(len(his) <= points._BLOCK for _, _, his in blocks)
    assert moment_coords(discrete_moment(p, 2), 2, 2) == point_sums(expected, 2, 2)


# -- fiber enumeration against the box scan -------------------------------------------

# boxes the reference scan can afford per example
MAX_REFERENCE_CELLS = 20_000


@st.composite
def polytopes(draw):
    """Lattice polytopes in Z^1..Z^6 with negative coordinates.

    One in three is the hull of points in a small box, most often
    full-dimensional.  The others are origin + sum c_j u_j over drawn
    directions u_j, so the dimension runs from 0 (no direction) up to the
    ambient one, and the affine hull is rarely axis-parallel.  Half of all
    draws are then moved by a unimodular map, whose image keeps the mapped
    lattice basis, which is not in echelon form.
    """
    n = draw(st.integers(1, 6))
    if draw(st.integers(0, 2)) == 0:
        bound = 3 if n <= 3 else 1
        grid = st.tuples(*[st.integers(-bound, bound)] * n)
        p = from_points(draw(st.lists(grid, min_size=n + 1, max_size=n + 5)))
    else:
        d = draw(st.integers(0, n))
        origin = draw(st.tuples(*[st.integers(-3, 3)] * n))
        directions = [draw(st.tuples(*[st.integers(-1, 1)] * n)) for _ in range(d)]
        corners = [tuple(int(i == j) for j in range(d)) for i in range(-1, d)]
        extra = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * d), max_size=3))
        p = from_points(
            [tuple(o + sum(c * u[j] for c, u in zip(cs, directions)) for j, o in enumerate(origin))
             for cs in corners + extra]
        )
    if draw(st.booleans()):
        matrix = random_unimodular(n, seed=draw(st.integers(0, 1000)), steps=draw(st.integers(1, 3))).matrix
        shift = draw(st.tuples(*[st.integers(-3, 3)] * n))
        p = transform(p, UnimodularMap(matrix, shift))
    lo, hi = p.bounding_box()
    assume(prod(h - l + 1 for l, h in zip(lo, hi)) <= MAX_REFERENCE_CELLS)
    return p


def point_sums(pts, n, r):
    """(1/r!) sum of x^alpha over the points, coordinate by coordinate."""
    return {
        a: Fraction(sum(prod(c**e for c, e in zip(x, a)) for x in pts), factorial(r))
        for a in multi_indices(n, r)
    }


def lifted_runs(p, rows, blocks):
    """The points of blocks, mapped to x = sum_i y_i A_i unless rows is None.

    Checks the block contract on the way: sequences of one length, no empty
    run, and one head list for every coordinate of y but the last.
    """
    dim = p.ambient_dim if rows is None else len(rows)
    ys = []
    for heads, los, his in blocks:
        assert len(heads) == dim - 1 and all(type(x) is list and len(x) == len(his) for x in (*heads, los, his))
        assert all(lo <= hi for lo, hi in zip(los, his))
        ys += [(*h, s) for *h, lo, hi in zip(*heads, los, his) for s in range(lo, hi + 1)]
    if rows is None:
        return ys
    return [tuple(sum(c * a[i] for c, a in zip(y, rows)) for i in range(p.ambient_dim)) for y in ys]


def moment_coords(t, n, r):
    return {a: t.coord(a) for a in multi_indices(n, r)}


@settings(max_examples=150, deadline=None)
@given(polytopes())
def test_enumeration_matches_box_scan(p):
    closed = brute_force_points(p)
    interior = brute_force_points(p, relint=True)
    assert lattice_points(p) == closed  # the box scan runs in lex order
    assert relint_lattice_points(p) == interior
    assert (count(p), count_relint(p)) == (len(closed), len(interior))
    # the runs, lifted from lattice coordinates by hand, give the same points
    rows = lattice_rows(p)
    assert (rows is None) == (p.dim == p.ambient_dim)
    assert lifted_runs(p, rows, fibers(p)) == closed
    assert lifted_runs(p, rows, fibers(p, relint=True)) == interior
    assert lifted_runs(p, rows, fibers(p, scale=2)) == lattice_points(dilate(p, 2))


@settings(max_examples=80, deadline=None)
@given(polytopes(), st.integers(0, 4))
def test_moments_match_point_sums(p, r):
    n = p.ambient_dim
    assert moment_coords(discrete_moment(p, r), n, r) == point_sums(brute_force_points(p), n, r)
    assert moment_coords(discrete_moment_relint(p, r), n, r) == point_sums(
        brute_force_points(p, relint=True), n, r
    )


def test_moments_of_long_runs_in_lower_dimensions():
    # long runs in lattice coordinates of lower-dimensional polytopes, pushed to x at high rank
    u, w, o = (1, 0, 2, -1), (0, 1, 1, 1), (-3, 2, -5, 1)
    triangle = from_points([o, tuple(a + 12 * b for a, b in zip(o, u)), tuple(a + 12 * b for a, b in zip(o, w))])
    cases = [
        (dilate(from_points([[-2] * 6, [5] * 6]), 6), (0, 1, 2, 5, 12)),
        (triangle, (0, 1, 2, 3)),
    ]
    for p, ranks in cases:
        n = p.ambient_dim
        closed, interior = lattice_points(p), relint_lattice_points(p)
        for r in ranks:
            assert moment_coords(discrete_moment(p, r), n, r) == point_sums(closed, n, r)
            assert moment_coords(discrete_moment_relint(p, r), n, r) == point_sums(interior, n, r)


# -- the blocks against the column-by-column walk they replaced ---------------------


def reference_fibers(p, relint=False, scale=1):
    """Columns (head, vs, los, his), one per value head of all but the last two coordinates of y.

    The odometer walk that fibers ran before it worked the last levels a
    list at a time: it steps through t_1..t_(m-2) and floors each facet row
    over one column's span of t_(m-1).
    """
    if p.is_empty:
        return
    frame = points._frame(p)
    strict = relint and p.dim > 0 and scale > 0
    # level j's columns over t_1..t_j, from the nonzero pairs of its rows
    levels = [
        (
            [[dict(row).get(i, 0) for row in rows] for i in range(j)],
            ups,
            lows,
            [scale * d - (e if strict else 0) for d, e in zip(ds, ceils)],
        )
        for j, (rows, ups, lows, ds, ceils) in enumerate(frame.levels)
    ]
    m = len(levels)
    prefix = () if frame.full else (scale,)

    def bounds(level, res):
        _, ups, lows, _ = level
        return -min(r // a for r, a in zip(res[len(ups):], lows)), min(r // a for r, a in zip(res, ups))

    if m == 0:
        yield (), None, (scale,), (scale,)
        return
    if m == 1:
        lo, hi = bounds(levels[0], levels[0][3])
        if lo <= hi:
            yield (), prefix or None, (lo,), (hi,)
        return
    last_cols, ups, lows, _ = levels[-1]
    nup = len(ups)
    res = [[level[3] for level in levels]]
    t = [0] * (m - 1)
    top = [0] * (m - 1)

    def fix(j):
        v = t[j - 1]
        prev = res[j - 1]
        del res[j:]
        res.append([None] * j + [[r - c * v for r, c in zip(prev[l], levels[l][0][j - 1])] for l in range(j, m)])

    j = 0
    while True:
        lo, hi = bounds(levels[j], res[j][j])
        if lo <= hi:
            if j < m - 2:
                t[j], top[j] = lo, hi
                j += 1
                fix(j)
                continue
            base, col = res[j][m - 1], last_cols[m - 2]
            span = range(lo, hi + 1)
            floors = [[(b - c * v) // a for v in span] for b, c, a in zip(base, col, ups + lows)]
            his = [min(f) for f in zip(*floors[:nup])]
            los = [-min(f) for f in zip(*floors[nup:])]
            kept = [(v, lo, hi) for v, lo, hi in zip(span, los, his) if lo <= hi]
            if kept:
                yield prefix + tuple(t[: m - 2]), *map(list, zip(*kept))
        j -= 1
        while j >= 0 and t[j] == top[j]:
            j -= 1
        if j < 0:
            return
        t[j] += 1
        j += 1
        fix(j)


def reference_runs(columns):
    """The runs (y without its last coordinate, lo, hi) of the reference's columns."""
    return [
        (head + ((v,) if vs is not None else ()), lo, hi)
        for head, vs, los, his in columns
        for v, lo, hi in zip(vs if vs is not None else los, los, his)
    ]


def block_runs(blocks):
    """The runs (y without its last coordinate, lo, hi) of blocks, in block order."""
    return [(tuple(h), lo, hi) for heads, los, his in blocks for *h, lo, hi in zip(*heads, los, his)]


@settings(max_examples=150, deadline=None)
@given(polytopes(), st.booleans(), st.integers(0, 3))
def test_blocks_hold_the_reference_walks_runs_in_order(p, relint, scale):
    runs = reference_runs(reference_fibers(p, relint, scale))
    blocks = list(fibers(p, relint=relint, scale=scale))
    assert block_runs(blocks) == runs
    assert all(his for _, _, his in blocks)
    # a bound of two entries cuts every level into slices of at most two
    with mock.patch.object(points, "_BLOCK", 2):
        blocks = list(fibers(p, relint=relint, scale=scale))
        assert block_runs(blocks) == runs
        assert all(len(his) <= 2 for _, _, his in blocks)


def test_a_block_holds_at_most_its_bound_of_pairs():
    # 700 x 700 values of (t_1, t_2), so 490,000 runs of two points: in one block, count peaked at 29 MB
    box = from_points([(x, y, z) for x in (0, 699) for y in (0, 699) for z in (0, 1)])
    tracemalloc.start()
    try:
        assert count(box) == 2 * 700**2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    blocks = list(fibers(box))
    assert len(blocks) > 1 and max(len(his) for _, _, his in blocks) <= points._BLOCK
    assert block_runs(blocks) == reference_runs(reference_fibers(box))


# -- Fourier-Motzkin levels against the re-tested projection ------------------------


def reference_primitive(c, d, s):
    """(c, d, s) divided by the gcd g of c, or None when g does not divide d: then c . t = d at no lattice t."""
    g = gcd(*c)
    return None if d % g else (tuple(x // g for x in c), d // g, Fraction(s, g))


def reference_project(rows, j, verts):
    """The projection _project replaced: each combined row kept when it meets a lattice point, then the rows
    whose sets of tight projected vertices, each row tested at every vertex, are maximal among the non-empty
    proper sets.  The rows returned carry those sets, so the levels are built from them as from _project's.
    """
    keep = [(c[:j], d, s) for c, d, s, _ in rows if not c[j]]
    ups = [r for r in rows if r[0][j] > 0]
    downs = [r for r in rows if r[0][j] < 0]
    for cu, du, su, _ in ups:
        for cd, dd, sd, _ in downs:
            u, w = -cd[j], cu[j]
            c = [u * x + w * y for x, y in zip(cu[:j], cd[:j])]
            if any(c) and (row := reference_primitive(c, u * du + w * dd, u * su + w * sd)):
                keep.append(row)
    keep.sort(key=lambda row: row[2], reverse=True)
    # _dot stops at the shorter argument, so a row over t_1..t_j is evaluated at each vertex's first j coordinates
    return [(c, d, s, tight_set(c, d, verts)) for c, d, s in reference_maximal_tight(keep, verts)]


@settings(max_examples=150, deadline=None)
@given(polytopes())
def test_levels_match_the_retested_projection(p):
    frame = points._Frame(p)
    project = points._project
    calls = []

    def checked(rows, j):
        # every carried set is the row's tight set at the frame's vertices
        out = project(rows, j)
        for c, d, _, t in rows + out:
            assert t == tight_set(c, d, frame.verts)
        calls.append(j)
        return out

    with mock.patch.object(points, "_project", checked):
        levels = points._Frame(p).levels
    assert len(calls) == max(p.dim - 1, 0)
    with mock.patch.object(points, "_project", lambda rows, j: reference_project(rows, j, frame.verts)):
        assert levels == points._Frame(p).levels
