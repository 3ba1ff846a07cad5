import random
from fractions import Fraction

import pytest

from conftest import random_polytope
from lattens.ehrhart import ehrhart_tensors
from lattens.polytope import dilate, from_points, random_unimodular, standard_simplex, transform, translate
from lattens.tensor import apply_linear, sym_product
from lattens.tri2d import (
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
    boundary_edge = next(e for e, ts in tri.edge_triangles().items() if len(ts) == 1)
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
        assert _triangle_cube(t) == reference_cube(t), t


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
