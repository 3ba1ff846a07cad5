import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_polytope
from lattens import tri2d
from lattens.ehrhart import ehrhart_tensors
from lattens.points import lattice_points
from lattens.polytope import dilate, from_points, random_unimodular, standard_simplex, transform, translate
from lattens.tensor import SymTensor, apply_linear, sym_product
from lattens.tri2d import (
    RANK9,
    FlipError,
    Triangulation2D,
    _cross,
    _triangle_cube,
    admissible_flips,
    flip,
    flip_walk,
    unimodular_triangulation,
    validate_triangulation,
    valuation_n,
)


def unit_square():
    return from_points([(0, 0), (1, 0), (0, 1), (1, 1)])


def edge_triangles(tri):
    """Map from sorted vertex-index edge to the triangles containing it."""
    out = {}
    for t in tri.triangles:
        for e in combinations(t, 2):
            out.setdefault(e, []).append(t)
    return out


def test_triangulation_examples():
    assert len(unimodular_triangulation(unit_square()).triangles) == 2
    assert len(unimodular_triangulation(standard_simplex(2, 2)).triangles) == 1
    assert len(unimodular_triangulation(dilate(standard_simplex(2, 2), 2)).triangles) == 4


def test_triangulation_rejects_low_dimension():
    with pytest.raises(ValueError):
        unimodular_triangulation(from_points([(0, 0), (2, 1)]))
    with pytest.raises(ValueError):
        unimodular_triangulation(from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0)]))


def test_triangulations_are_valid_on_random_polygons():
    rng = random.Random(31)
    for _ in range(12):
        p = random_polytope(rng, ambient=2, coord_bound=5, dim=2)
        tri = unimodular_triangulation(p)
        validate_triangulation(tri)
        assert unimodular_triangulation(p).triangles == tri.triangles  # deterministic


def test_validation_refuses_triangles_short_of_the_polygon():
    # the 2 x 1 rectangle with its middle triangle (1,0),(1,1),(0,1) left out
    pts = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))
    with pytest.raises(ValueError, match="do not add up"):
        validate_triangulation(Triangulation2D(pts, ((0, 1, 3), (1, 2, 4), (2, 5, 4))))


def test_validation_refuses_overlapping_triangles():
    # two unimodular triangles on the same side of (0,0)-(1,0): every point used, the areas add up
    with pytest.raises(ValueError, match="two triangles"):
        Triangulation2D(((0, 0), (0, 1), (1, 0), (1, 1)), ((0, 2, 1), (0, 2, 3)))
    assert valuation_n(unit_square()).is_zero


T2_POINTS = ((0, 0), (1, 0), (0, 1))


@pytest.mark.parametrize(
    "points, triangles",
    [
        pytest.param(T2_POINTS, ((0, 1, 7),), id="index-past-the-points"),
        pytest.param(T2_POINTS, ((0, 1),), id="two-indices"),
        pytest.param(T2_POINTS, ((0, 1, 2, 2),), id="four-indices"),
        pytest.param(T2_POINTS, (("a", 1, 2),), id="string-index"),
        pytest.param(T2_POINTS, ((-3, 1, 2),), id="negative-index"),
        pytest.param(T2_POINTS, ((0.0, 1, 2),), id="float-index"),
        pytest.param(((0, 0), (1, 0), (0, 1, 5)), ((0, 1, 2),), id="point-of-three-coordinates"),
        pytest.param(((0, 0), (1, 0), (0, "1")), ((0, 1, 2),), id="string-coordinate"),
        pytest.param(((0, 0), (1, 0), 7), ((0, 1, 2),), id="point-not-a-sequence"),
    ],
)
def test_constructor_refuses_malformed_input_with_value_error(points, triangles):
    with pytest.raises(ValueError, match="every (point|triangle)|sequences"):
        Triangulation2D(points, triangles)


def interiors_disjoint(s, t):
    """Separating axes: some side line of one triangle has the other on its far closed side."""
    for a, b in ((s, t), (t, s)):
        inward = 1 if _cross(*a) > 0 else -1
        if any(all(inward * _cross(u, v, q) <= 0 for q in b) for u, v in zip(a, a[1:] + a[:1])):
            return True
    return False


def test_validation_accepts_exactly_the_tilings_of_the_rectangle():
    pts = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))
    unimodular = [t for t in combinations(range(6), 3) if abs(_cross(*(pts[v] for v in t))) == 1]
    accepted, lone_edges = [], 0
    for chosen in combinations(unimodular, 4):
        try:
            validate_triangulation(Triangulation2D(pts, chosen))
            accepted.append(chosen)
        except ValueError as refusal:
            lone_edges += "not a side" in str(refusal)
    tilings = [
        chosen
        for chosen in combinations(unimodular, 4)
        if all(interiors_disjoint([pts[v] for v in s], [pts[v] for v in t]) for s, t in combinations(chosen, 2))
    ]
    assert accepted == tilings
    assert len(tilings) == 6
    assert lone_edges > 0  # some overlaps share no directed edge; the side check refuses them


def test_flip_square_diagonal_and_involution():
    tri = unimodular_triangulation(unit_square())
    (edge,) = tri.interior_edges()
    flipped = flip(tri, edge)
    validate_triangulation(flipped)
    assert flipped.triangles != tri.triangles
    (new_edge,) = flipped.interior_edges()
    assert flip(flipped, new_edge).triangles == tri.triangles


def test_flip_refusals():
    tri = unimodular_triangulation(unit_square())
    boundary_edge = next(e for e, ts in edge_triangles(tri).items() if len(ts) == 1)
    with pytest.raises(FlipError):
        flip(tri, boundary_edge)
    # collinear outer chain: the quadrilateral around the interior edge is degenerate
    wedge = from_points([(0, 0), (2, 0), (0, 1)])
    tri2 = unimodular_triangulation(wedge)
    for e in tri2.interior_edges():
        with pytest.raises(FlipError):
            flip(tri2, e)
    assert admissible_flips(tri2) == []


def test_flip_walk_properties():
    p = from_points([(0, 0), (3, 0), (3, 2), (0, 2)])
    base = unimodular_triangulation(p)
    assert flip_walk(base, seed=4, steps=0).triangles == base.triangles
    walked = flip_walk(base, seed=4, steps=10)
    validate_triangulation(walked)
    assert flip_walk(base, seed=4, steps=10).triangles == walked.triangles


def test_valuation_zero_cases():
    assert valuation_n(unit_square()).is_zero
    assert valuation_n(from_points([(0, 0), (3, 1)])).is_zero
    assert valuation_n(from_points([(2, 2)])).is_zero
    big_square = dilate(unit_square(), 3)
    assert valuation_n(big_square).is_zero


def test_valuation_on_standard_triangle_matches_cube():
    t2 = standard_simplex(2, 2)
    linear = ehrhart_tensors(t2, 3).coefficient(1)
    assert linear.coord((3, 0)) == Fraction(1, 180)
    cube = sym_product(sym_product(linear, linear), linear)
    value = valuation_n(t2)
    assert value == cube
    assert value.coord((9, 0)) == Fraction(1, 5832000)
    assert value.coord((5, 4)) == Fraction(-11, 653184000)


def test_valuation_not_proportional_to_degree_one_rank9():
    t2 = standard_simplex(2, 2)
    nine = ehrhart_tensors(t2, 9).coefficient(1)
    value = valuation_n(t2)
    ratios = {value.coord(a) / nine.coord(a) for a in nine.coords}
    assert len(ratios) > 1


def test_valuation_triangulation_independence_small():
    rng = random.Random(41)
    for _ in range(6):
        p = random_polytope(rng, ambient=2, coord_bound=4, dim=2)
        base = unimodular_triangulation(p)
        reference = valuation_n(p, base)
        for seed in range(4):
            walked = flip_walk(base, seed=seed, steps=8)
            assert valuation_n(p, walked) == reference


def test_valuation_symmetries():
    p = from_points([(0, 0), (3, 0), (3, 2), (1, 3), (0, 2)])
    value = valuation_n(p)
    assert valuation_n(translate(p, (5, -4))) == value
    for k in (2, 3):
        assert valuation_n(dilate(p, k)) == value * k
    for seed in (1, 2):
        phi = random_unimodular(2, seed=seed, steps=6)
        assert valuation_n(transform(p, phi)) == apply_linear(value, phi.matrix)


def test_valuation_is_additive_on_dissections():
    left = from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    right = from_points([(1, 0), (2, 0), (1, 1)])
    union = from_points([(0, 0), (2, 0), (1, 1), (0, 1)])
    assert valuation_n(union) == valuation_n(left) + valuation_n(right)


def test_valuation_property_with_full_dimensional_overlap():
    whole = from_points([(0, 0), (5, 0), (5, 1), (0, 6)])
    left = from_points([(0, 0), (3, 0), (3, 3), (0, 6)])
    right = from_points([(2, 0), (5, 0), (5, 1), (2, 4)])
    overlap = from_points([(2, 0), (3, 0), (3, 3), (2, 4)])
    assert valuation_n(left) + valuation_n(right) == valuation_n(whole) + valuation_n(overlap)
    assert not valuation_n(whole).is_zero


def test_triangulation_dataclass_canonicalization():
    tri = Triangulation2D(((0, 0), (1, 0), (0, 1)), ((2, 1, 0),))
    assert tri.triangles == ((0, 1, 2),)
    validate_triangulation(tri)


def reference_cube(points):
    """The per-shape value nval used to compute: the triangle's own expansion, cubed."""
    linear = ehrhart_tensors(from_points(points), 3).coefficient(1)
    return sym_product(sym_product(linear, linear), linear)


T2_CUBE = reference_cube(standard_simplex(2, 2).vertices)
T2_DENOMINATOR = lcm(*(c.denominator for c in T2_CUBE.coords.values()))


def cube_tensor(points):
    """The integer cube the library keeps for a triangle, read as a tensor over T_2's denominator."""
    return SymTensor(2, 9, {a: Fraction(n, T2_DENOMINATOR) for a, n in zip(RANK9, _triangle_cube(points))})


def mapped_cube(points, swap=False):
    """T_2's cube under the map e_1 -> b - a, e_2 -> c - a (or c - a, b - a), in Fractions,
    as valuation_n summed it before."""
    a, b, c = sorted(points)
    u, v = (c, b) if swap else (b, c)
    return apply_linear(T2_CUBE, ((u[0] - a[0], v[0] - a[0]), (u[1] - a[1], v[1] - a[1])))


def test_triangle_cubes_match_enumerated_triangles():
    rng = random.Random(53)
    polygons = [random_polytope(rng, ambient=2, coord_bound=8, dim=2) for _ in range(6)]
    polygons.append(from_points([(0, 0), (21, 1), (1, 1)]))  # a fan of thin triangles up to 21 wide
    triangles = set()
    for p in polygons:
        base = unimodular_triangulation(p)
        for seed in range(3):
            walked = flip_walk(base, seed=seed, steps=2 * len(base.triangles))
            triangles.update(tuple(sorted(walked.triangle_points(t))) for t in walked.triangles)
    # both orientations of the map e_1 -> u, e_2 -> v from T_2 occur
    assert {_cross(*t) for t in triangles} == {1, -1}
    for t in triangles:
        assert cube_tensor(t) == reference_cube(t), t


def test_valuation_refuses_non_unimodular_triangle():
    wedge = ((0, 0), (2, 0), (0, 1))
    with pytest.raises(ValueError, match="not unimodular"):
        valuation_n(from_points(wedge), Triangulation2D(wedge, ((0, 1, 2),)))


def test_valuation_refuses_triangulation_of_another_polygon():
    # T_2's one triangle is a unimodular triangulation, but not of the unit square, whose value is zero
    with pytest.raises(ValueError, match="lattice points"):
        valuation_n(unit_square(), unimodular_triangulation(standard_simplex(2, 2)))
    # the square's points, but one of its two triangles
    with pytest.raises(ValueError, match="vertex"):
        valuation_n(unit_square(), Triangulation2D(((0, 0), (0, 1), (1, 0), (1, 1)), ((0, 1, 2),)))
    # the square's points in another order, with the other diagonal, are accepted
    square = unimodular_triangulation(unit_square())
    assert valuation_n(unit_square(), Triangulation2D(square.points[::-1], square.triangles)).is_zero


def test_scaled_cubes_are_integral_on_the_thin_fan():
    fan = unimodular_triangulation(from_points([(0, 0), (21, 1), (1, 1)]))
    for t in map(fan.triangle_points, fan.triangles):
        for swap in (False, True):  # maps of determinant -1 and +1; T_2 is symmetric, so both give the cube
            scaled = mapped_cube(t, swap) * T2_DENOMINATOR
            assert all(c.denominator == 1 for c in scaled.coords.values()), t
            assert _triangle_cube(t) == tuple(scaled.coord(a).numerator for a in RANK9), t


def reference_valuation(tri):
    """The per-triangle Fraction sum valuation_n used to compute."""
    return sum((mapped_cube(tri.triangle_points(t)) for t in tri.triangles), SymTensor.zero(2, 9))


def test_valuation_matches_fraction_sum_on_seeded_polygons_and_walks():
    rng = random.Random(67)
    polygons = [random_polytope(rng, ambient=2, coord_bound=8, dim=2) for _ in range(8)]
    polygons.append(from_points([(0, 0), (21, 1), (1, 1)]))
    for p in polygons:
        base = unimodular_triangulation(p)
        reference = reference_valuation(base)
        assert valuation_n(p) == reference
        for seed in range(2):
            walked = flip_walk(base, seed=seed, steps=2 * len(base.triangles))
            assert reference_valuation(walked) == reference
            assert valuation_n(p, walked) == reference


def reference_triangulation(p):
    """Lex-order insertion into a boundary cycle, testing every boundary edge for each new point."""
    pts = lattice_points(p)
    index = {q: i for i, q in enumerate(pts)}
    triangles, path, boundary = [], [], []
    for q in pts:
        if boundary:
            size = len(boundary)
            visible = [i for i in range(size) if _cross(boundary[i], boundary[(i + 1) % size], q) < 0]
            triangles += [(index[boundary[i]], index[boundary[(i + 1) % size]], index[q]) for i in visible]
            start = next(i for i in visible if (i - 1) % size not in visible)
            boundary[:] = [boundary[(start + len(visible) + k) % size] for k in range(size - len(visible) + 1)] + [q]
        elif len(path) < 2 or _cross(path[0], path[1], q) == 0:
            path.append(q)
        else:
            triangles += [(index[a], index[b], index[q]) for a, b in zip(path, path[1:])]
            boundary = (path if _cross(path[0], path[-1], q) > 0 else path[::-1]) + [q]
    return Triangulation2D(tuple(pts), tuple(triangles))


def reference_flip_targets(tri, index, edge):
    """Opposite vertices of an admissibly flippable edge of a frozen triangulation, else None."""
    owners = index.get(edge, [])
    if len(owners) != 2:
        return None
    i, j = edge
    k, l = (next(v for v in t if v not in edge) for t in owners)
    pi, pj, pk, pl = (tri.points[v] for v in (i, j, k, l))
    if _cross(pi, pj, pk) * _cross(pi, pj, pl) < 0 and _cross(pk, pl, pi) * _cross(pk, pl, pj) < 0:
        return k, l
    return None


def reference_flip_walk(tri, seed, steps):
    """Every step re-tests every interior edge, and each flip rebuilds the frozen triangulation."""
    rng = random.Random(seed)
    for _ in range(steps):
        index = edge_triangles(tri)
        options = [e for e in tri.interior_edges() if reference_flip_targets(tri, index, e)]
        if not options:
            break
        edge = rng.choice(options)
        (i, j), (k, l) = edge, reference_flip_targets(tri, index, edge)
        kept = [t for t in tri.triangles if not {i, j} <= set(t)]
        tri = Triangulation2D(tri.points, tuple(kept) + ((k, l, i), (k, l, j)))
    return tri


small_polygons = st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=3, max_size=6).map(
    from_points
).filter(lambda p: p.dim == 2)


@settings(max_examples=60, deadline=None)
@given(small_polygons)
def test_triangulation_matches_cycle_insertion_reference(p):
    assert unimodular_triangulation(p).triangles == reference_triangulation(p).triangles


@settings(max_examples=40, deadline=None)
@given(small_polygons.filter(lambda p: tri2d._hull_doubled_area(p.vertices) <= 120), st.integers(0, 10**6))
def test_flip_walk_matches_full_retest_reference(p, seed):
    base = unimodular_triangulation(p)
    steps = 2 * len(base.triangles)
    walked = flip_walk(base, seed, steps)
    assert walked.triangles == reference_flip_walk(base, seed, steps).triangles
    validate_triangulation(walked)


@settings(max_examples=80, deadline=None)
@given(small_polygons, small_polygons, st.booleans())
def test_valuation_refuses_exactly_the_triangulations_of_other_point_sets(p, q, same_points):
    if same_points:  # another route to p's lattice points: hull all of them
        q = from_points(lattice_points(p))
    tri = unimodular_triangulation(q)
    if lattice_points(p) != lattice_points(q):
        with pytest.raises(ValueError, match="lattice points"):
            valuation_n(p, tri)
    else:
        assert valuation_n(p, tri) == valuation_n(p)


@settings(max_examples=30, deadline=None)
@given(small_polygons.filter(lambda p: tri2d._hull_doubled_area(p.vertices) <= 80), st.integers(0, 10**6))
def test_flip_targets_match_both_convexity_tests_along_walks(p, seed):
    rng = random.Random(seed)
    tri = unimodular_triangulation(p)
    for _ in range(len(tri.triangles) + 1):
        index = edge_triangles(tri)
        for i, j in tri.interior_edges():
            expected = reference_flip_targets(tri, index, (i, j))
            for edge in ((i, j), (j, i)):
                targets = tri2d._flip_targets(tri.points, tri.opp, edge)
                assert (targets is None) == (expected is None)
                if targets is not None:  # the reference names the apexes in triangle order
                    assert set(targets) == set(expected)
                    assert _cross(tri.points[edge[0]], tri.points[edge[1]], tri.points[targets[0]]) > 0
        if not tri.admissible:
            break
        tri = flip(tri, rng.choice(tri.admissible))


def test_admissible_flips_returns_a_fresh_list_each_call():
    base = unimodular_triangulation(from_points([(0, 0), (4, 0), (8, 3), (6, 8), (2, 8), (0, 5)]))
    index = edge_triangles(base)
    expected = [e for e in base.interior_edges() if reference_flip_targets(base, index, e)]
    first = admissible_flips(base)
    assert first == expected
    first.clear()  # flip_walk deletes and inserts in its copy
    second = admissible_flips(base)
    assert second == expected and second is not first
    second.append((0, 0))
    assert admissible_flips(base) == expected
    # two walks from one base see the same edges: equal walks for equal seeds
    assert flip_walk(base, 3, 20) == flip_walk(base, 3, 20)


def reference_opp(points, triangles):
    """The oriented map rebuilt from scratch: the three rotations of each triangle, turned counter-clockwise."""
    opp = {}
    for t in triangles:
        a, b, c = t if _cross(*(points[v] for v in t)) > 0 else t[::-1]
        opp.update({(a, b): c, (b, c): a, (c, a): b})
    return opp


def assert_consistent_map(points, opp):
    assert all(_cross(points[a], points[b], points[c]) == 1 for (a, b), c in opp.items())
    assert reference_opp(points, {tuple(sorted((a, b, c))) for (a, b), c in opp.items()}) == opp


@settings(max_examples=40, deadline=None)
@given(small_polygons.filter(lambda p: tri2d._hull_doubled_area(p.vertices) <= 120), st.integers(0, 10**6))
def test_oriented_map_stays_consistent_through_flips_and_walks(p, seed):
    base = unimodular_triangulation(p)
    assert base.opp == reference_opp(base.points, base.triangles)
    assert_consistent_map(base.points, base.opp)
    working = []  # the map each in-place flip leaves behind
    original = tri2d._flip_in_place

    def recorded(points, opp, edge):
        quadrilateral = original(points, opp, edge)
        working.append(dict(opp))
        return quadrilateral

    with mock.patch.object(tri2d, "_flip_in_place", recorded):
        options = admissible_flips(base)
        if options:
            flipped = flip(base, random.Random(seed).choice(options))
            assert working[-1] == flipped.opp == reference_opp(flipped.points, flipped.triangles)
            validate_triangulation(flipped)
        before = len(working)
        walked = flip_walk(base, seed, 2 * len(base.triangles))
    validate_triangulation(walked)
    if len(working) > before:
        assert working[-1] == walked.opp == reference_opp(walked.points, walked.triangles)
    for opp in working:
        assert_consistent_map(base.points, opp)


def test_flip_walk_retests_only_the_flipped_quadrilateral(monkeypatch):
    base = unimodular_triangulation(from_points([(0, 0), (5, 0), (5, 2), (0, 2)]))
    assert len(base.triangles) == 20
    steps = 2 * len(base.triangles)
    tests = []
    original = tri2d._flip_targets

    def counted(*args):
        tests.append(args[-1])
        return original(*args)

    monkeypatch.setattr(tri2d, "_flip_targets", counted)
    walked = flip_walk(base, seed=5, steps=steps)
    assert len(tests) <= len(base.interior_edges()) + 6 * steps
    monkeypatch.undo()
    assert walked.triangles == reference_flip_walk(base, 5, steps).triangles


def test_walks_and_flips_keep_their_map_without_validating_again(monkeypatch):
    rng = random.Random(71)
    bases = [unimodular_triangulation(random_polytope(rng, ambient=2, coord_bound=8, dim=2)) for _ in range(6)]
    checked = []
    original = tri2d.validate_triangulation
    monkeypatch.setattr(tri2d, "validate_triangulation", lambda tri: checked.append(tri) or original(tri))
    results = []
    for base in bases:
        results += [flip_walk(base, seed, 2 * len(base.triangles)) for seed in range(3)]
        results += [flip(base, edge) for edge in base.admissible[:2]]
        results.append(flip_walk(results[-1], 9, len(base.triangles)))  # a walk from a kept map
    assert checked == []
    monkeypatch.undo()
    for tri in results:
        rebuilt = Triangulation2D(tri.points, tri.triangles)
        assert tri == rebuilt and tri.triangles == rebuilt.triangles
        assert tri.opp == rebuilt.opp == reference_opp(tri.points, tri.triangles)
        assert tri.admissible == rebuilt.admissible


def test_long_strip_triangulates_in_a_second():
    # the boundary-cycle insertion tested every boundary edge for each point: 10-15 s on 2 vCPUs, Python 3.11
    script = (
        "import time; from lattens.polytope import from_points; from lattens.tri2d import unimodular_triangulation\n"
        "p = from_points([(0, 0), (4000, 0), (0, 1), (4000, 1)]); start = time.perf_counter()\n"
        "tri = unimodular_triangulation(p); print(len(tri.triangles), time.perf_counter() - start)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == 0, done.stderr
    count, seconds = done.stdout.split()
    assert count == "8000"
    assert float(seconds) <= 1.0
