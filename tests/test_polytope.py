import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contains_relint, polytopes, random_polytope, sample_polytopes
from lattens import linalg, points, polytope
from lattens.ehrhart import moment_tensor
from lattens.linalg import (
    det,
    integer_kernel,
    invert_matrix,
    rank_bareiss,
    rational_row_space_equations,
    rref,
)
from lattens.polytope import (
    LatticePolytope,
    UnimodularMap,
    _dot,
    _facets_of_point_set,
    _first_simplex,
    _maximal,
    dilate,
    dissect_prism,
    faces,
    from_points,
    minkowski_sum,
    negate,
    polytope_from_json_dict,
    prism,
    random_unimodular,
    standard_simplex,
    transform,
    translate,
)


def unit_square():
    return from_points([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_from_points_drops_non_extreme_points():
    p = from_points([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    assert p.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))
    assert p.dim == 2


def test_from_points_single_point_and_segment():
    assert from_points([(3, 4)]).dim == 0
    seg = from_points([(0, 0), (1, 1), (2, 2)])
    assert seg.dim == 1
    assert seg.vertices == ((0, 0), (2, 2))


def test_from_points_empty_and_errors():
    empty = LatticePolytope.empty(2)
    assert empty.is_empty and empty.dim == -1
    with pytest.raises(ValueError):
        from_points([])
    with pytest.raises(ValueError):
        from_points([(0, 0), (1, 1, 1)])


def test_standard_simplex():
    assert standard_simplex(0, 2).vertices == ((0, 0),)
    assert standard_simplex(2, 2).vertices == ((0, 0), (0, 1), (1, 0))
    with pytest.raises(ValueError):
        standard_simplex(3, 2)
    t3 = standard_simplex(3, 3)
    assert moment_tensor(t3, 0).scalar_value() == Fraction(1, 6)


def test_dilate_translate_negate():
    t2 = standard_simplex(2, 2)
    assert dilate(t2, 0).vertices == ((0, 0),)
    assert dilate(t2, 3).vertices == ((0, 0), (0, 3), (3, 0))
    assert translate(t2, (1, -1)).vertices == ((1, -1), (1, 0), (2, -1))
    assert negate(t2).vertices == ((-1, 0), (0, -1), (0, 0))
    with pytest.raises(ValueError):
        dilate(t2, -1)


def test_minkowski_sum_square():
    t1 = from_points([(0, 0), (1, 0)])
    seg = from_points([(0, 0), (0, 1)])
    assert minkowski_sum(t1, seg) == unit_square()


def test_transform_matches_translate():
    # the order-three map sending e1 -> -e2, e2 -> e1 - e2 carries T_2 onto T_2 - e2
    phi = UnimodularMap.linear(((0, 1), (-1, -1)))
    t2 = standard_simplex(2, 2)
    assert transform(t2, phi) == translate(t2, (0, -1))


def test_transform_inverse_round_trip():
    rng = random.Random(5)
    for seed in range(6):
        p = random_polytope(rng, ambient=3, coord_bound=3)
        phi = random_unimodular(3, seed=seed, steps=5)
        assert transform(transform(p, phi), phi.inverse()) == p


def test_unimodular_map_validation():
    with pytest.raises(ValueError):
        UnimodularMap.linear(((1, 0), (0, -1)))  # determinant -1
    with pytest.raises(ValueError):
        UnimodularMap(((2, 0), (0, 1)), (0, 0))


@pytest.mark.parametrize("entry", [1.7, 1.0, True, "1", Fraction(1)])
def test_unimodular_map_refuses_non_integer_entries(entry):
    # int() would truncate 1.7 to 1 and silently build the identity
    with pytest.raises(ValueError, match="integers"):
        UnimodularMap.linear(((entry, 0), (0, 1)))
    with pytest.raises(ValueError, match="integers"):
        UnimodularMap(((1, 0), (0, 1)), (entry, 0))


@pytest.mark.parametrize("coordinate", [0.7, Fraction(1, 2), "3", True])
def test_from_points_refuses_non_integer_coordinates(coordinate):
    # int() would truncate 0.7 to 0 and silently return the unit triangle
    with pytest.raises(ValueError, match="integers"):
        from_points([(coordinate, 0), (1, 0), (0, 1.9)])
    with pytest.raises(ValueError, match="integers"):
        from_points([(coordinate, 0), (1, 0), (0, 1)])


def test_translate_refuses_a_non_integer_vector():
    # int() would truncate (0.5, 1) to (0, 1)
    with pytest.raises(ValueError, match="integers"):
        translate(standard_simplex(2, 2), (0.5, 1))


def test_dilate_refuses_a_non_integer_factor():
    # 1.5 used to give float vertices, on which count raised TypeError
    with pytest.raises(ValueError, match="integers"):
        dilate(standard_simplex(2, 2), 1.5)


def test_integral_coordinates_other_than_bool_are_taken_exactly():
    class Two(int):
        pass

    t2 = standard_simplex(2, 2)
    assert from_points([(Two(2), 0), (0, 0), (0, 1)]) == from_points([(2, 0), (0, 0), (0, 1)])
    assert translate(t2, (Two(2), -1)) == from_points([(2, -1), (3, -1), (2, 0)])
    assert dilate(t2, Two(2)) == from_points([(0, 0), (2, 0), (0, 2)])
    assert all(type(c) is int for v in dilate(t2, Two(2)).vertices for c in v)


def test_random_unimodular_determinism_and_determinant():
    assert random_unimodular(3, seed=1, steps=0).matrix == UnimodularMap.identity(3).matrix
    for seed in range(8):
        m = random_unimodular(3, seed=seed, steps=12)
        assert det(m.matrix) == 1
    assert random_unimodular(2, seed=9, steps=7) == random_unimodular(2, seed=9, steps=7)


def reference_random_unimodular(n, seed, steps):
    """The matrix random_unimodular built by multiplying dense shear and permutation matrices."""
    rng = random.Random(seed)
    mat = [[int(i == j) for j in range(n)] for i in range(n)]

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    for _ in range(steps):
        if n >= 2 and (n < 3 or rng.random() < 0.7):
            j = rng.randrange(n)
            k = rng.randrange(n - 1)
            if k >= j:
                k += 1
            s = rng.choice((1, -1))
            shear = [[int(i == l) for l in range(n)] for i in range(n)]
            shear[j][k] = s
            mat = matmul(shear, mat)
        elif n >= 3:
            i, j, k = rng.sample(range(n), 3)
            perm = [[int(a == b) for b in range(n)] for a in range(n)]
            perm[i], perm[j], perm[k] = perm[j], perm[k], perm[i]
            mat = matmul(perm, mat)
    return tuple(tuple(row) for row in mat)


def test_random_unimodular_row_operations_match_the_matrix_products():
    for n in range(1, 7):
        for seed in range(60):
            for steps in (0, 1, 2, 5, 6, 20, 100):
                assert random_unimodular(n, seed, steps).matrix == reference_random_unimodular(n, seed, steps)


def test_prism():
    t1 = from_points([(0, 0), (1, 0)])
    assert prism(t1) == unit_square()
    t2_flat = from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    pr = prism(t2_flat)
    assert len(pr.vertices) == 6
    assert points.count(pr) == 6
    with pytest.raises(ValueError):
        prism(from_points([(0, 1), (1, 1)]))


def test_dissect_prism_planar_case():
    pieces = dissect_prism(2)
    assert pieces[0] == standard_simplex(2, 2)
    assert pieces[1] == from_points([(0, 1), (1, 1), (1, 0)])
    # inclusion-exclusion over the shared diagonal
    shared = from_points([(0, 1), (1, 0)])
    assert points.count(pieces[0]) + points.count(pieces[1]) - points.count(shared) == points.count(
        unit_square()
    )


def test_dissect_prism_pieces_are_unimodular():
    for n in (2, 3, 4):
        pieces = dissect_prism(n)
        assert len(pieces) == n
        for piece in pieces:
            assert piece.dim == n
            base = piece.vertices[0]
            edges = [[v[j] - base[j] for j in range(n)] for v in piece.vertices[1:]]
            assert abs(det(edges)) == 1
    with pytest.raises(ValueError):
        dissect_prism(1)


def test_dissect_prism_covers_prism_with_disjoint_interiors():
    n = 3
    pieces = dissect_prism(n)
    base = standard_simplex(n - 1, n)
    pr = dilate(prism(base), 2)
    doubled = [dilate(piece, 2) for piece in pieces]
    for x in points.lattice_points(pr):
        owners = [piece for piece in doubled if piece.contains(x)]
        assert owners, x
        interior_owners = [piece for piece in doubled if contains_relint(piece, x)]
        assert len(interior_owners) <= 1, x


def test_faces_counts():
    t2 = standard_simplex(2, 2)
    assert len(faces(t2)) == 7
    seg = from_points([(0, 0), (2, 0)])
    assert len(faces(seg)) == 3
    cube = from_points([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    fs = faces(cube)
    assert len(fs) == 27
    by_dim = {}
    for f in fs:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {0: 8, 1: 12, 2: 6, 3: 1}


def test_faces_euler_relation():
    rng = random.Random(11)
    for _ in range(8):
        p = random_polytope(rng, ambient=3, coord_bound=3)
        assert sum((-1) ** f.dim for f in faces(p)) == 1


def test_facet_inequalities_support_vertices():
    rng = random.Random(17)
    for _ in range(10):
        p = random_polytope(rng, ambient=3, coord_bound=4)
        for a, b in p.facet_inequalities:
            values = [_dot(a, v) for v in p.vertices]
            assert max(values) == b
        for v in p.vertices:
            tight = [a for a, b in p.facet_inequalities if _dot(a, v) == b]
            if p.dim > 0:
                assert len(tight) >= p.dim
                rows = [[Fraction(x) for x in a] for a in tight]
                eq_rows = [[Fraction(x) for x in a] for a, _ in p.hull_equalities]
                assert len(rref(rows + eq_rows)[1]) == p.ambient_dim


def test_vertices_in_own_hull():
    rng = random.Random(23)
    for _ in range(10):
        p = random_polytope(rng, ambient=2, coord_bound=5)
        for v in p.vertices:
            assert p.contains(v)


def polytope_to_json_dict(p):
    return {"vertices": [list(v) for v in p.vertices]}


def test_json_round_trip():
    p = from_points([(0, 0), (2, 1), (1, 3)])
    data = polytope_to_json_dict(p)
    assert polytope_from_json_dict(data) == p
    with pytest.raises(ValueError):
        polytope_from_json_dict({"vertices": []})
    with pytest.raises(ValueError):
        polytope_from_json_dict({"vertices": [[0, "x"]]})
    with pytest.raises(ValueError):
        polytope_from_json_dict({"vertices": [[True, False], [False, True]]})
    with pytest.raises(ValueError):
        polytope_from_json_dict([1, 2])


# -- ambient hull against the reduced-coordinate hull ------------------------------


def reference_hull(pts, n):
    """The hull the constructor used to run, in reduced coordinates.

    Points move to t = R (x - o) with R = (B B^T)^-1 B for the saturated
    direction basis B, facets g . t <= h are found among the m-subsets there,
    and each is pulled back to (g R) . x <= h + (g R) . o, scaled to a
    primitive integer row.  Returns (dim, vertices, hull equalities, facets).
    """
    pts = sorted(set(pts))
    origin = pts[0]
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    directions = [d for d in (tuple(x - o for x, o in zip(p, origin)) for p in pts[1:]) if any(d)]
    if not directions:
        return 0, (origin,), tuple((tuple(row), _dot(row, origin)) for row in identity), set()
    eq_rows = rational_row_space_equations(directions, n)
    basis = integer_kernel(eq_rows, n) if eq_rows else identity
    m = len(basis)
    inv = invert_matrix([[_dot(b, c) for c in basis] for b in basis])
    reduce = [[sum(inv[i][k] * basis[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    reduced = []
    for x in pts:
        t = [_dot(row, [xi - oi for xi, oi in zip(x, origin)]) for row in reduce]
        assert all(Fraction(c).denominator == 1 for c in t)
        reduced.append(tuple(int(c) for c in t))
    facets = set()
    for subset in combinations(reduced, m):
        base = subset[0]
        normals = rational_row_space_equations([[x - y for x, y in zip(t, base)] for t in subset[1:]], m)
        if len(normals) != 1:
            continue
        g = tuple(normals[0])
        values = [_dot(g, t) for t in reduced]
        if max(values) == _dot(g, base):
            facets.add((g, max(values)))
        elif min(values) == _dot(g, base):
            facets.add((tuple(-c for c in g), -min(values)))
    vertices = tuple(
        x for x, t in zip(pts, reduced) if rank_bareiss([g for g, h in facets if _dot(g, t) == h]) == m
    )
    pulled = set()
    for g, h in facets:
        row = [sum(g[i] * reduce[i][j] for i in range(m)) for j in range(n)]
        ray = row + [h + _dot(row, origin)]
        scale = lcm(*(Fraction(c).denominator for c in ray))
        ints = [int(c * scale) for c in ray]
        ints = [c // gcd(*ints) for c in ints]
        pulled.add((tuple(ints[:n]), ints[n]))
    return m, vertices, tuple((tuple(row), _dot(row, origin)) for row in eq_rows), pulled


@st.composite
def point_sets(draw):
    """Point sets in Z^1..Z^5 spanning drawn directions (often fewer than n,
    and possibly dependent), with repeated and non-extreme points."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, n))
    origin = draw(st.tuples(*[st.integers(-2, 2)] * n))
    directions = [draw(st.tuples(*[st.integers(-2, 2)] * n)) for _ in range(d)]
    steps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=1, max_size=8))
    return n, [tuple(o + sum(c * u[j] for c, u in zip(cs, directions)) for j, o in enumerate(origin)) for cs in steps]


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_ambient_hull_matches_reduced_coordinate_hull(case):
    n, pts = case
    p = LatticePolytope(pts, ambient_dim=n)
    dim, vertices, equalities, facets = reference_hull(pts, n)
    assert (p.dim, p.vertices, p.hull_equalities) == (dim, vertices, equalities)
    assert p.facet_inequalities == tuple(sorted(facets))


def reference_vertices(p, pts):
    """The former vertex rule: a point is a vertex iff its tight facet normals span the direction space."""
    tight = [[a for a, b in p.facet_inequalities if _dot(a, x) == b] for x in sorted(set(pts))]
    return tuple(x for x, rows in zip(sorted(set(pts)), tight) if p.dim == 0 or rank_bareiss(rows) == p.dim)


@st.composite
def cube_point_sets(draw):
    """Up to 12 points of [-3, 3]^3 on a drawn point, line, plane or space, many inside their hull."""
    d = draw(st.integers(0, 3))
    origin = draw(st.tuples(*[st.integers(-1, 1)] * 3))
    directions = [draw(st.tuples(*[st.integers(-1, 1)] * 3).filter(any)) for _ in range(d)]
    steps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=12))
    pts = [tuple(o + sum(c * u[j] for c, u in zip(cs, directions)) for j, o in enumerate(origin)) for cs in steps]
    return [x for x in pts if max(map(abs, x)) <= 3] or [origin]


@settings(max_examples=300, deadline=None)
@given(cube_point_sets())
def test_vertices_match_tight_normal_rank_reference(pts):
    p = LatticePolytope(pts)
    assert p.vertices == reference_vertices(p, pts)


# -- double description against the subset hull ------------------------------------


def reference_subset_facets(points, m, eq_rows):
    """The hull the constructor used to run: every affinely independent m-subset of the points.

    The normals c with c . (p - base) = 0 for the subset and eq_rows . c = 0
    form one line of the direction space, and its primitive integer
    generator is the candidate's normal.  Those valid for the whole point set
    are kept, deduplicated and sorted.
    """
    if m == 0:
        return []
    facets = set()
    for subset in combinations(points, m):
        base = subset[0]
        diffs = [[x - y for x, y in zip(p, base)] for p in subset[1:]]
        normals = rational_row_space_equations(diffs + eq_rows, len(base))
        if len(normals) != 1:
            continue
        g = tuple(normals[0])
        h = _dot(g, base)
        values = [_dot(g, p) for p in points]
        if all(v <= h for v in values):
            facets.add((g, h))
        elif all(v >= h for v in values):
            facets.add((tuple(-x for x in g), -h))
    return sorted(facets)


def assert_hull_matches_subset_reference(pts):
    p = LatticePolytope(pts)
    eq_rows = [list(a) for a, _ in p.hull_equalities]
    assert p.facet_inequalities == tuple(reference_subset_facets(sorted(set(pts)), p.dim, eq_rows))


@st.composite
def redundant_point_sets(draw):
    """Up to 20 points in Z^1..Z^6 on a grid of 1..n drawn directions (possibly
    dependent), many of them repeated or not extreme.  With 4 or more directions
    the points are fewer, so the subset reference tests at most 1,820 subsets."""
    n = draw(st.integers(1, 6))
    d = n - draw(st.integers(0, n - 1))
    origin = draw(st.tuples(*[st.integers(-3, 3)] * n))
    directions = [draw(st.tuples(*[st.integers(-2, 2)] * n)) for _ in range(d)]
    size = draw(st.integers(d + 1, {4: 16, 5: 13, 6: 12}.get(d, 20)))
    steps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=size, max_size=size))
    return [tuple(o + sum(c * u[j] for c, u in zip(cs, directions)) for j, o in enumerate(origin)) for cs in steps]


@settings(max_examples=200, deadline=None)
@given(redundant_point_sets())
def test_hull_matches_subset_reference(pts):
    assert_hull_matches_subset_reference(pts)


# -- the first simplex against the former simplex step ------------------------------


def reference_first_simplex(points, n):
    """The simplex step the constructor used to run, on sorted distinct points.

    The hull equations solve every difference from points[0]; a point joins
    the simplex when its differences to the simplex so far have full rank;
    the facet opposite each simplex point solves the differences of the
    others with the hull equations, oriented away from that point.
    """
    eq_rows = rational_row_space_equations([[x - y for x, y in zip(p, points[0])] for p in points[1:]], n)
    m = n - len(eq_rows)
    simplex = points[:1]
    for p in points:
        if len(simplex) <= m and rank_bareiss([[x - y for x, y in zip(q, p)] for q in simplex]) == len(simplex):
            simplex.append(p)
    facets = []
    for k, apex in enumerate(simplex if m else []):
        base, *rest = (q for q in simplex if q is not apex)
        (g,) = rational_row_space_equations([[x - y for x, y in zip(q, base)] for q in rest] + eq_rows, n)
        h, t = _dot(g, base), (1 << m + 1) - 1 - (1 << k)
        facets.append((tuple(g), h, t) if _dot(g, apex) < h else (tuple(-x for x in g), -h, t))
    return simplex, eq_rows, facets


@settings(max_examples=300, deadline=None)
@given(st.one_of(point_sets(), redundant_point_sets().map(lambda pts: (len(pts[0]), pts))))
def test_first_simplex_matches_former_simplex_step(case):
    n, pts = case
    pts = sorted(set(pts))
    assert _first_simplex(pts, n) == reference_first_simplex(pts, n)


@pytest.mark.parametrize(
    "pts, facets",
    [
        ([(0, 0), (2, 1), (1, 3)], (((-3, 1), 0), ((1, -2), 0), ((2, 1), 5))),
        ([(0, 0, 0), (-1, 0, 0), (1, -1, 0)], (((-1, -2, 0), 1), ((0, 1, 0), 0), ((1, 1, 0), 0))),
        ([(-2, 1, -1), (1, -2, 2), (-1, 1, 1)], (((-2, 5, 1), 8), ((0, -1, -1), 0), ((1, 2, 4), 5))),
        (
            [(0, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 1, -1)],
            (((-1, -1, -2), 1), ((0, 0, 1), 0), ((0, 1, 1), 0), ((1, 0, 0), 0)),
        ),
    ],
)
def test_simplex_facets_when_the_stacked_inverse_has_negative_scale(pts, facets):
    # the reduction of [M | I] returns d [I | M^-1] with d < 0 here; unflipped, every normal would point inwards
    n = len(pts[0])
    simplex, eq_rows, _ = _first_simplex(sorted(pts), n)
    stacked = [[x - y for x, y in zip(p, simplex[0])] for p in simplex[1:]] + eq_rows
    assert linalg._reduced([row + [int(i == j) for j in range(n)] for i, row in enumerate(stacked)], 2 * n)[2] < 0
    assert LatticePolytope(pts).facet_inequalities == facets


@pytest.mark.parametrize("n, ts", [(4, range(-4, 6)), (5, range(11)), (6, range(-5, 7))])
def test_hull_of_cyclic_polytope_matches_subset_reference(n, ts):
    # every point of the moment curve is a vertex, and the facets are many
    assert_hull_matches_subset_reference([tuple(t**k for k in range(1, n + 1)) for t in ts])


def test_hull_set_up_runs_at_most_three_eliminations(monkeypatch):
    calls = []
    echelon = linalg._echelon

    def counted(rows, ncols):
        calls.append(ncols)
        return echelon(rows, ncols)

    monkeypatch.setattr(linalg, "_echelon", counted)
    monkeypatch.setattr(polytope, "_echelon", counted)
    cube = list(product((0, 1), repeat=4))
    # one pass for the simplex, the hull equations, one inverse for every simplex facet; the subset hull made 1,821
    assert len(LatticePolytope(cube).facet_inequalities) == 8
    assert len(calls) <= 3
    # however many points, in any dimension: a point, 300 points on a segment, a 5-polytope in Z^6 with repeats
    flat = [(0, 0, 0, 0, 0, 0)] + [tuple(int(i == j) for j in range(6)) for i in range(5)] + [(1, 1, 1, 0, 0, 0)] * 3
    for pts in ([(1, 2, 3)], [(k, 2 * k, 0) for k in range(300)], flat + [(0, 1, 0, 1, 0, 0), (1, 0, 1, 0, 1, 0)]):
        calls.clear()
        LatticePolytope(pts)
        assert len(calls) <= 3, pts
    monkeypatch.undo()
    assert_hull_matches_subset_reference(cube)
    # the doubled cube with its centre and the centres of four facets inside the point set
    doubled = [tuple(2 * x for x in v) for v in cube]
    assert_hull_matches_subset_reference(doubled + [(1, 1, 1, 1), (0, 1, 1, 1), (1, 2, 1, 1), (1, 1, 0, 1), (1, 1, 1, 2)])


def test_library_counts_the_6_cube_in_seconds():
    # the subset hull tested C(64, 6) = 7.5e7 hyperplanes, an estimated 2 h; the CLI still refuses this input
    script = "import itertools, lattens; print(lattens.count(lattens.from_points(itertools.product((0, 1), repeat=6))))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "64\n"


# -- carried tight sets against the dot-product rule -----------------------------------


def tight_set(a, b, points):
    """The points on a . x = b, as bits in the order of points."""
    return sum(1 << k for k, x in enumerate(points) if _dot(a, x) == b)


def reference_maximal_tight(rows, points):
    """The rule _maximal replaced: rows (a, b, ...), in order, whose sets of tight points are maximal
    among the non-empty proper sets, each tested against every point.  Of rows with equal sets, the first is kept.
    """
    full = (1 << len(points)) - 1
    first = {}  # each set, a bitmask over the points, and its first row
    for i, (a, b, *_) in enumerate(rows):
        s = tight_set(a, b, points)
        if s and s != full:
            first.setdefault(s, i)
    kept = []
    for s in sorted(first, key=int.bit_count, reverse=True):
        if all(s & t != s for t in kept):
            kept.append(s)
    return [rows[i] for i in sorted(first[s] for s in kept)]


def test_maximal_tight_keeps_first_of_equal_sets_in_order():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    rows = [((1, 0), 1, "right"), ((1, 1), 2, "corner"), ((2, 0), 2, "right again"), ((1, 0), 0, "left"),
            ((1, 1), 9, "nowhere"), ((0, 1), 1, "top")]
    # _maximal reads each row's set from its last field; "nowhere" carries the empty set
    carried = [(a, b, name, tight_set(a, b, square)) for a, b, name in rows]
    assert [row[2] for row in _maximal(carried)] == ["right", "left", "top"]
    # rows come back in their order, not by the size of their sets
    assert [row[0] for row in _maximal([("a", 0b0011), ("b", 0b1110), ("c", 0b0110)])] == ["a", "b"]
    # the reference also drops a row tight everywhere, which _maximal's callers leave out
    everywhere = rows[:4] + [((0, 0), 0, "everywhere")] + rows[4:]
    assert [row[2] for row in reference_maximal_tight(everywhere, square)] == ["right", "left", "top"]


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_facets_of_faces_match_the_dot_product_rule(case):
    # each face drops its own hyperplane, tight on all of it, before _maximal
    n, pts = case
    p = LatticePolytope(pts, ambient_dim=n)
    for face in p._facets:
        assert face.facet_inequalities == tuple(reference_maximal_tight(p.facet_inequalities, face.vertices))


@settings(max_examples=200, deadline=None)
@given(st.one_of(point_sets(), redundant_point_sets().map(lambda pts: (len(pts[0]), pts))))
def test_hull_rows_carry_their_tight_sets(case):
    n, pts = case
    pts = sorted(set(pts))
    simplex, _, facets = _first_simplex(pts, n)
    added = simplex + [q for q in pts if q not in simplex]
    calls = []

    def checked(rows):
        # a row through the i-th added point carries the points 0..i on it
        for a, b, t in rows:
            assert t == tight_set(a, b, added[: t.bit_length()])
        calls.append(len(rows))
        return _maximal(rows)

    if facets:
        with mock.patch.object(polytope, "_maximal", checked):
            _facets_of_point_set(pts, simplex, facets)
        assert len(calls) == len(added) - len(simplex)


# -- mapped half-space data against the re-hull ------------------------------------


def reference_image(p, f):
    """The re-hull the constructions used to run: the hull of the mapped vertices."""
    return LatticePolytope([f(v) for v in p.vertices], ambient_dim=p.ambient_dim)


def apply_map(phi, x):
    """The image M x + t of the point x under phi = (M, t)."""
    return tuple(_dot(row, x) + t for row, t in zip(phi.matrix, phi.translation))


def assert_same_polytope(q, ref):
    assert (q.ambient_dim, q.dim, q.vertices) == (ref.ambient_dim, ref.dim, ref.vertices)
    # equal polytopes share a cached frame, so enumerate each from its own
    for enumerate_points in (points.lattice_points, points.relint_lattice_points):
        points._frame.cache_clear()
        mapped = enumerate_points(q)
        points._frame.cache_clear()
        assert mapped == enumerate_points(ref)
    assert faces(q) == faces(ref)
    assert len(q.hull_equalities) == len(ref.hull_equalities)
    assert all(_dot(a, v) == b for a, b in q.hull_equalities for v in ref.vertices)
    if q.dim == q.ambient_dim:
        assert set(q.facet_inequalities) == set(ref.facet_inequalities)
    # the lattice frame depends on the polytope alone, not on how it was built
    frame, ref_frame = points._Frame(q), points._Frame(ref)
    assert (frame.basis, frame.rows, frame.extents) == (ref_frame.basis, ref_frame.rows, ref_frame.extents)
    # the reference's lattice points have integer coordinates in that frame and lift back
    for x in points.lattice_points(ref):
        t = frame._coordinates(x)
        assert x == tuple(o + sum(tj * e[j] for tj, e in zip(t, frame.basis)) for j, o in enumerate(frame.origin))


@settings(max_examples=60, deadline=None)
@given(polytopes(), st.integers(0, 4))
def test_dilate_matches_rehull(p, k):
    assert_same_polytope(dilate(p, k), reference_image(p, lambda v: tuple(k * c for c in v)))


shifts = st.lists(st.integers(-3, 3), min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(polytopes(), shifts)
def test_translate_and_negate_match_rehull(p, y):
    y = tuple(y[: p.ambient_dim])
    shifted = reference_image(p, lambda v: tuple(a + b for a, b in zip(v, y)))
    assert_same_polytope(translate(p, y), shifted)
    assert_same_polytope(negate(p), reference_image(p, lambda v: tuple(-c for c in v)))


@settings(max_examples=60, deadline=None)
@given(polytopes(), st.integers(0, 1000), st.integers(0, 3), shifts)
def test_transform_matches_rehull(p, seed, steps, t):
    n = p.ambient_dim
    phi = UnimodularMap(random_unimodular(n, seed=seed, steps=steps).matrix, tuple(t[:n]))
    assert_same_polytope(transform(p, phi), reference_image(p, lambda x: apply_map(phi, x)))


def test_transform_refuses_map_of_wrong_size():
    with pytest.raises(ValueError, match="3 x 3"):
        transform(standard_simplex(3, 3), UnimodularMap.identity(2))


# -- faces read off the incidences against the re-hull ------------------------------


def reference_faces(p):
    """The face walk faces used to run: every facet's tight vertices re-hulled."""
    if p.is_empty:
        return []
    found = {p.vertices: p}
    stack = [p]
    while stack:
        poly = stack.pop()
        for a, b in poly.facet_inequalities:
            tight = tuple(v for v in poly.vertices if _dot(a, v) == b)
            if tight not in found:
                found[tight] = LatticePolytope(tight)
                stack.append(found[tight])
    return sorted(found.values(), key=lambda f: (f.dim, f.vertices))


def assert_faces_match_rehull(p):
    fs, refs = faces(p), reference_faces(p)
    assert [f.vertices for f in fs] == [f.vertices for f in refs]
    for face, ref in zip(fs, refs):
        assert_same_polytope(face, ref)


@settings(max_examples=100, deadline=None)
@given(polytopes())
def test_faces_match_rehull(p):
    assert_faces_match_rehull(p)


@pytest.mark.parametrize("name", sorted(sample_polytopes()))
def test_faces_of_sample_polytopes_match_rehull(name):
    p = sample_polytopes()[name]
    assert p.dim == 3 and len(p.vertices) == {"cube": 8, "cross-polytope": 6, "pentagon prism": 10}[name]
    assert_faces_match_rehull(p)


def test_faces_and_moment_tensor_run_no_hull(monkeypatch):
    cube, other = sample_polytopes()["cube"], sample_polytopes()["cube"]
    hulls = []
    init = LatticePolytope.__init__

    def counted(self, *args, **kwargs):
        hulls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LatticePolytope, "__init__", counted)
    assert len(faces(cube)) == 27
    # a fresh cube, so the pulling triangulation finds no facets cached by faces
    half = Fraction(1, 2)
    assert moment_tensor(other, 1).coords == {(1, 0, 0): half, (0, 1, 0): half, (0, 0, 1): half}
    assert hulls == []
