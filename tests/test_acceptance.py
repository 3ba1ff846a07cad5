"""Acceptance suite: every criterion is an exact-arithmetic identity.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s) and also
enforces the stated wall-clock budget for its computation.
"""

import functools
import random
import time
from fractions import Fraction
from math import comb, factorial

from conftest import random_point, random_polytope
from lattens.arith import bernoulli, faulhaber_sum
from lattens.classify import (
    high_rank_survey,
    in_span,
    kernel_basis,
    kernel_dim,
    planar_labels,
    planar_system,
    prism_system,
    rank,
)
from lattens.ehrhart import (
    check_equivariance,
    check_reciprocity,
    check_translation_covariance,
    discrete_moment,
    ehrhart_tensors,
    moment_tensor,
)
from lattens.points import count
from lattens.polytope import (
    dilate,
    from_points,
    random_unimodular,
    standard_simplex,
    transform,
    translate,
)
from lattens.tensor import apply_linear, sym_product
from lattens.tri2d import flip_walk, unimodular_triangulation, valuation_n


def criterion(label: str, budget_seconds: float):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            elapsed = time.perf_counter() - start
            print(f"[PASS] {label} ({elapsed:.2f}s)")
            assert elapsed < budget_seconds, f"budget exceeded: {elapsed:.2f}s >= {budget_seconds}s"

        return wrapper

    return decorate


@criterion("1. scalar dilation counts of standard simplices", 1.0)
def test_criterion_1_scalar_baseline():
    for n in range(1, 5):
        simplex = standard_simplex(n, n)
        expansion = ehrhart_tensors(simplex, 0)
        for k in range(9):
            expected = comb(n + k, n)
            assert expansion.evaluate_at(k).scalar_value() == expected
            assert count(dilate(simplex, k)) == expected


@criterion("2. degree-one coefficients match Bernoulli-number values", 1.0)
def test_criterion_2_degree_one_values():
    t1 = standard_simplex(1, 1)
    t2 = standard_simplex(2, 2)
    for r in range(1, 9):
        unnormalized_t1 = ehrhart_tensors(t1, r).coefficient(1).coord((r,)) * factorial(r)
        assert unnormalized_t1 == (-1) ** r * bernoulli(r)
        unnormalized_t2 = ehrhart_tensors(t2, r).coefficient(1).coord((r, 0)) * factorial(r)
        assert unnormalized_t2 == (-1) ** r * (bernoulli(r) + bernoulli(r + 1))
    assert ehrhart_tensors(t2, 1).coefficient(1).coord((1, 0)) == Fraction(1, 3)


@criterion("3. interior reciprocity on 100 random polytopes", 5.0)
def test_criterion_3_reciprocity():
    rng = random.Random(2026)
    lower_dimensional = 0
    for i in range(100):
        p = random_polytope(rng, ambient=3, coord_bound=4)
        if p.dim < 3:
            lower_dimensional += 1
        r = rng.randint(0, 3)
        report = check_reciprocity(p, r)
        assert report.ok, (i, p.vertices, r, report.failures)
    assert lower_dimensional >= 10


@criterion("4. translation covariance and equivariance on 100 random instances", 5.0)
def test_criterion_4_covariance_equivariance():
    rng = random.Random(411)
    for i in range(100):
        p = random_polytope(rng, ambient=3, coord_bound=3)
        r = rng.randint(0, 3)
        y = random_point(rng, 3)
        phi = random_unimodular(3, seed=1000 + i, steps=5)
        assert check_translation_covariance(p, r, y).ok, (i, p.vertices, r, y)
        assert check_equivariance(p, r, phi).ok, (i, p.vertices, r)


@criterion("5. leading coefficient equals the integral moment tensor", 5.0)
def test_criterion_5_leading_coefficient():
    rng = random.Random(55)
    for i in range(20):
        ambient = rng.choice([2, 2, 3])
        p = random_polytope(rng, ambient=ambient, coord_bound=3, dim=ambient)
        r = rng.randint(0, 3)
        expansion = ehrhart_tensors(p, r)
        assert expansion.coefficient(ambient + r) == moment_tensor(p, r), (i, p.vertices, r)
    # lower-dimensional polytopes: coefficients of degree i + r vanish for dim < i <= n
    for i in range(10):
        ambient = 3
        p = random_polytope(rng, ambient=ambient, coord_bound=3, dim=rng.randint(1, 2))
        r = rng.randint(1, 3)
        expansion = ehrhart_tensors(p, r)
        for degree in range(p.dim + 1, ambient + 1):
            assert expansion.coefficient(degree + r).is_zero, (i, p.vertices, r, degree)


@criterion("6. rank-9 triangulation valuation", 10.0)
def test_criterion_6_valuation():
    square = from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert valuation_n(square).is_zero

    rng = random.Random(66)
    for _ in range(10):
        a = random_point(rng, 2, bound=4)
        b = random_point(rng, 2, bound=4)
        assert valuation_n(from_points([a])).is_zero
        assert valuation_n(from_points([a, b])).is_zero

    t2 = standard_simplex(2, 2)
    linear = ehrhart_tensors(t2, 3).coefficient(1)
    cube = sym_product(sym_product(linear, linear), linear)
    reference = valuation_n(t2)
    assert reference == cube

    nine = ehrhart_tensors(t2, 9).coefficient(1)
    ratios = {reference.coord(alpha) / nine.coord(alpha) for alpha in nine.coords}
    assert len(ratios) > 1

    polygons = 0
    while polygons < 20:
        p = random_polytope(rng, ambient=2, coord_bound=5, dim=2)
        polygons += 1
        base = unimodular_triangulation(p)
        value = valuation_n(p, base)
        for walk in range(10):
            walked = flip_walk(base, seed=walk, steps=10)
            assert valuation_n(p, walked) == value, (p.vertices, walk)

    p = from_points([(0, 0), (3, 0), (3, 2), (1, 3), (0, 2)])
    value = valuation_n(p)
    assert valuation_n(translate(p, (7, -5))) == value
    for k in (1, 2, 3):
        assert valuation_n(dilate(p, k)) == value * k
    for seed in range(3):
        phi = random_unimodular(2, seed=seed, steps=6)
        assert valuation_n(transform(p, phi)) == apply_linear(value, phi.matrix)


@criterion("7. classification system ranks", 2.0)
def test_criterion_7_classification_ranks():
    t2 = standard_simplex(2, 2)
    for r in (3, 5, 7):
        assert rank(planar_system(r, -1)) == r + 1
        plus = planar_system(r, +1)
        assert rank(plus) == r
        basis = kernel_basis(plus)
        coeff = ehrhart_tensors(t2, r).coefficient(1)
        vector = [coeff.coord(alpha) for alpha in planar_labels(r)]
        assert len(basis) == 1 and in_span(basis, vector)

    for n in range(3, 8):
        for r in range(n + 1, 9):
            assert kernel_dim(prism_system(n, r, "all")) == 0, (n, r)

    for r in (3, 5, 7):
        assert kernel_dim(prism_system(3, r, "en-odd")) == 0, r
    for r in (2, 4, 6, 8):
        assert kernel_dim(prism_system(3, r, "en-even")) == 0, r

    for n, r in ((3, 2), (3, 3), (4, 3), (4, 4)):
        assert kernel_dim(prism_system(n, r, "all")) == 0, (n, r)


@criterion("8. high-rank planar survey", 5.0)
def test_criterion_8_high_rank_survey():
    entries = high_rank_survey([9, 11, 13, 15, 17, 19])
    for entry in entries:
        expected = entry["expected_rank"]
        assert expected is not None
        assert entry["assemblies"]["even"]["rank"] == expected, entry
        assert entry["assemblies"]["even"]["matches_expected"]
    report = entries[0]["rank9_kernel"]
    assert report["kernel_dim"] == 2
    assert report["contains_degree_one_coefficient"]
    assert report["contains_triangulation_valuation"]
    assert report["vectors_independent"]


@criterion("9. Bernoulli and Faulhaber unit identities", 1.0)
def test_criterion_9_bernoulli_faulhaber():
    for n in range(1, 21):
        convolution = sum(comb(n, i) * bernoulli(i) * bernoulli(n - i) for i in range(n + 1))
        assert convolution == -n * bernoulli(n - 1) - (n - 1) * bernoulli(n)
    for r in range(0, 11):
        for k in range(0, 51):
            assert faulhaber_sum(k, r) == sum(Fraction(i) ** r for i in range(1, k + 1))
