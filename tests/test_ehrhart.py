import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby
from math import comb, factorial, prod
from operator import add, mul, sub
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_points, in_child, polytopes, random_point, random_polytope, sample_polytopes
from lattens import ehrhart
from lattens.cli import EHRHART_MAX_RANK
from lattens.ehrhart import (
    CheckReport,
    _complete_homogeneous,
    _power_sum_table,
    _segment_moment,
    _simplicial_pieces,
    _tensor_sum,
    _vandermonde_inverse,
    check_equivariance,
    check_reciprocity,
    check_translation_covariance,
    discrete_moment,
    discrete_moment_relint,
    ehrhart_tensors,
    moment_tensor,
)
from lattens.linalg import det
from lattens.points import _BLOCK, _count, _expand, count, fibers, lattice_rows
from lattens.polytope import (
    MAX_AMBIENT_DIM,
    LatticePolytope,
    UnimodularMap,
    dilate,
    faces,
    from_points,
    minkowski_sum,
    negate,
    random_unimodular,
    standard_simplex,
    translate,
)
from lattens.tensor import SymTensor, _pull_back_rows, multi_indices


def unit_square():
    return from_points([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_discrete_moment_examples():
    t2 = standard_simplex(2, 2)
    assert discrete_moment(t2, 1).coords == {(1, 0): 1, (0, 1): 1}
    assert discrete_moment(unit_square(), 2).coords == {(2, 0): 1, (1, 1): Fraction(1, 2), (0, 2): 1}
    origin = from_points([(0, 0)])
    for r in (1, 2, 3):
        assert discrete_moment(origin, r).is_zero
    assert discrete_moment(t2, 0).scalar_value() == 3
    assert discrete_moment(LatticePolytope.empty(2), 2).is_zero


def test_discrete_moment_relint_examples():
    t2 = standard_simplex(2, 2)
    for r in (0, 1, 2):
        assert discrete_moment_relint(t2, r).is_zero
    assert discrete_moment_relint(dilate(t2, 3), 1).coords == {(1, 0): 1, (0, 1): 1}
    seg = from_points([(0, 0), (2, 0)])
    assert discrete_moment_relint(seg, 2).coords == {(2, 0): Fraction(1, 2)}


def test_moment_tensor_examples():
    sq = unit_square()
    assert moment_tensor(sq, 0).scalar_value() == 1
    assert moment_tensor(sq, 1).coords == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    t2 = standard_simplex(2, 2)
    assert moment_tensor(t2, 2).coords == {
        (2, 0): Fraction(1, 24),
        (1, 1): Fraction(1, 48),
        (0, 2): Fraction(1, 24),
    }
    with pytest.raises(ValueError):
        moment_tensor(from_points([(0, 0), (1, 0)]), 1)


def test_ehrhart_scalar_example():
    exp = ehrhart_tensors(standard_simplex(2, 2), 0)
    values = [c.scalar_value() for c in exp.coefficients]
    assert values == [1, Fraction(3, 2), Fraction(1, 2)]


def test_ehrhart_interval_example():
    exp = ehrhart_tensors(standard_simplex(1, 1), 1)
    assert exp.coefficient(1).coord((1,)) == Fraction(1, 2)


def test_ehrhart_degree_one_cubic_value():
    exp = ehrhart_tensors(standard_simplex(2, 2), 3)
    assert exp.coefficient(1).coord((3, 0)) == Fraction(1, 180)


def test_expansion_reproduces_dilation_values_beyond_nodes():
    rng = random.Random(7)
    for _ in range(5):
        p = random_polytope(rng, ambient=2, coord_bound=3)
        r = rng.choice([1, 2, 3])
        exp = ehrhart_tensors(p, r)
        for k in range(p.ambient_dim + r + 4):
            assert exp.evaluate_at(k) == discrete_moment(dilate(p, k), r), (p.vertices, r, k)
    p = standard_simplex(2, 2)
    exp = ehrhart_tensors(p, 4)
    for k in range(10):
        assert exp.evaluate_at(k) == discrete_moment(dilate(p, k), 4)


def test_constant_coefficient_vanishes_for_positive_rank():
    rng = random.Random(8)
    for _ in range(5):
        p = random_polytope(rng, ambient=2, coord_bound=3)
        for r in (1, 2, 3):
            assert ehrhart_tensors(p, r).coefficient(0).is_zero
    assert ehrhart_tensors(standard_simplex(2, 2), 0).coefficient(0).scalar_value() == 1


def test_tail_coefficients_vanish_for_lower_dimensional_polytopes():
    seg = from_points([(0, 0, 0), (2, 1, 0)])  # dim 1 in ambient 3
    for r in (1, 2):
        exp = ehrhart_tensors(seg, r)
        for i in range(seg.dim + 1, 4):  # dim(P) < i <= n
            assert exp.coefficient(i + r).is_zero, (r, i)


def test_leading_coefficient_is_moment_tensor():
    rng = random.Random(10)
    for _ in range(6):
        p = random_polytope(rng, ambient=2, coord_bound=3, dim=2)
        r = rng.choice([0, 1, 2])
        exp = ehrhart_tensors(p, r)
        assert exp.coefficient(p.ambient_dim + r) == moment_tensor(p, r)


def test_degree_one_coefficient_translation_invariant():
    rng = random.Random(12)
    for _ in range(5):
        p = random_polytope(rng, ambient=2, coord_bound=3)
        y = random_point(rng, 2)
        for r in (2, 3):
            a = ehrhart_tensors(p, r).coefficient(1)
            b = ehrhart_tensors(translate(p, y), r).coefficient(1)
            assert a == b


def test_degree_one_coefficient_minkowski_additive():
    rng = random.Random(15)
    for _ in range(4):
        p = random_polytope(rng, ambient=2, coord_bound=2)
        q = random_polytope(rng, ambient=2, coord_bound=2)
        for r in (2, 3):
            lhs = ehrhart_tensors(minkowski_sum(p, q), r).coefficient(1)
            rhs = ehrhart_tensors(p, r).coefficient(1) + ehrhart_tensors(q, r).coefficient(1)
            assert lhs == rhs


def test_scalar_counts_match_binomials():
    for n in (1, 2, 3):
        exp = ehrhart_tensors(standard_simplex(n, n), 0)
        for k in range(6):
            value = exp.evaluate_at(k).scalar_value()
            assert value == comb(n + k, n)
            assert value == count(dilate(standard_simplex(n, n), k))


def slab_decomposition():
    # trapezoid cut by two vertical lines: all four pieces are lattice polygons,
    # the union is the whole trapezoid and the intersection slab is full-dimensional
    whole = from_points([(0, 0), (5, 0), (5, 1), (0, 6)])
    left = from_points([(0, 0), (3, 0), (3, 3), (0, 6)])
    right = from_points([(2, 0), (5, 0), (5, 1), (2, 4)])
    overlap = from_points([(2, 0), (3, 0), (3, 3), (2, 4)])
    return whole, left, right, overlap


def test_expansion_coefficients_are_valuations():
    whole, left, right, overlap = slab_decomposition()
    for r in (0, 1, 2):
        lhs = ehrhart_tensors(left, r)
        rhs = ehrhart_tensors(right, r)
        union = ehrhart_tensors(whole, r)
        inter = ehrhart_tensors(overlap, r)
        for i in range(2 + r + 1):
            assert lhs.coefficient(i) + rhs.coefficient(i) == union.coefficient(i) + inter.coefficient(i), (r, i)
    # lower-dimensional intersection instance
    p = from_points([(0, 0), (2, 0), (0, 2)])
    q = from_points([(2, 0), (0, 2), (2, 2)])
    union = from_points([(0, 0), (2, 0), (0, 2), (2, 2)])
    inter = from_points([(2, 0), (0, 2)])
    for r in (0, 1, 2):
        for i in range(2 + r + 1):
            lhs = ehrhart_tensors(p, r).coefficient(i) + ehrhart_tensors(q, r).coefficient(i)
            rhs = ehrhart_tensors(union, r).coefficient(i) + ehrhart_tensors(inter, r).coefficient(i)
            assert lhs == rhs, (r, i)


def test_expansion_extrapolates_in_dimension_three():
    p = from_points([(0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 1, 2)])
    for r in (1, 2):
        exp = ehrhart_tensors(p, r)
        for k in range(3 + r + 4):
            assert exp.evaluate_at(k) == discrete_moment(dilate(p, k), r), (r, k)


def test_check_reciprocity_examples():
    t2 = standard_simplex(2, 2)
    assert check_reciprocity(t2, 0).ok
    assert check_reciprocity(dilate(t2, 3), 0).ok
    assert check_reciprocity(t2, 1).ok
    # spot check the r=0 alternating sum by hand: 1 - 3/2 + 1/2 = 0 interior points
    exp = ehrhart_tensors(t2, 0)
    alternating = sum((-1) ** i * c.scalar_value() for i, c in enumerate(exp.coefficients))
    assert alternating == 0


def test_check_reciprocity_on_lower_dimensional_instances():
    seg = from_points([(1, 1), (4, 1)])
    for r in (0, 1, 2):
        assert check_reciprocity(seg, r).ok
    point = from_points([(2, -1)])
    for r in (0, 1, 2):
        assert check_reciprocity(point, r).ok


@st.composite
def segments(draw):
    """Endpoints (a, b) in Z^1..Z^6 up to 10^6 apart in each coordinate: a point, a wide step or a repeated one."""
    n = draw(st.integers(1, 6))
    a = draw(st.tuples(*[st.integers(-(10**6), 10**6)] * n))
    step = draw(st.tuples(*[st.integers(-3, 3)] * n))
    times = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 10**6 // 3))
    wide = st.tuples(*[st.integers(-(10**6), 10**6)] * n).map(lambda d: tuple(map(add, a, d)))
    return a, draw(st.just(tuple(x + times * d for x, d in zip(a, step))) | wide)


@settings(max_examples=150, deadline=None)
@given(segments(), st.integers(0, 6))
def test_segment_moment_matches_discrete_moment(ends, r):
    a, b = ends
    assert _segment_moment(a, b, r) == discrete_moment(from_points([a, b]), r)


def test_face_sum_walks_no_vertex_or_edge(monkeypatch):
    dims, true_moment = [], ehrhart.discrete_moment

    def recorded(f, r):
        dims.append(f.dim)
        return true_moment(f, r)

    monkeypatch.setattr(ehrhart, "discrete_moment", recorded)
    for p in sample_polytopes().values():
        for r in (0, 1, 2):
            dims.clear()
            assert check_reciprocity(p, r).ok
            assert Counter(dims) == Counter(f.dim for f in faces(p) if f.dim >= 2)


def test_reciprocity_on_a_long_segment_takes_no_loop_over_its_points():
    # [0, 10^7] has 10^7 + 1 points, and its largest dilate 4P is inside the scan cap; the face sum takes its
    # vertices and its edge in closed form, which costs as little on 10^30 + 1 points, past any loop
    done = in_child(["reciprocity", "-r", "3"], json.dumps({"vertices": [[0], [10**7]]}))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["pass"]
    n = 10**30
    script = f"from lattens import ehrhart; print(ehrhart._segment_moment((0,), ({n},), 3).coord((3,)))"
    done = in_child([], script=script)
    assert done.stdout.strip() == str(Fraction((n * (n + 1) // 2) ** 2, 6)), done.stderr


def test_check_translation_covariance_examples():
    t2 = standard_simplex(2, 2)
    assert check_translation_covariance(t2, 2, (0, 0)).ok
    assert check_translation_covariance(t2, 0, (2, -1)).ok
    assert check_translation_covariance(t2, 2, (1, 1)).ok


def test_check_translation_covariance_refuses_a_non_integer_vector():
    # translate used to truncate y to (0, 0) while sym_power took 0.5 exactly, reporting a failed identity
    with pytest.raises(ValueError, match="integers"):
        check_translation_covariance(standard_simplex(2, 2), 1, (0.5, 0))


def recorded_walks(monkeypatch):
    """The (vertices, relint, scale) of every call to ehrhart.fibers, appended as they come."""
    calls = []

    def recorded(p, relint=False, scale=1):
        calls.append((p.vertices, relint, scale))
        return fibers(p, relint, scale)

    monkeypatch.setattr(ehrhart, "fibers", recorded)
    return calls


def test_translation_covariance_enumerates_each_dilate_once(monkeypatch):
    calls = recorded_walks(monkeypatch)
    p = from_points([(0, 0), (2, 0), (0, 1), (1, 2)])
    r, y = 3, (1, -2)
    assert check_translation_covariance(p, r, y).ok
    # the nodes -2..3 of rank 3 hold those of ranks 0..2: closed kP for k = 0..3, relint kP for k = 1..2,
    # for the translate and for P, each walked once
    expected = [(q.vertices, False, k) for q in (translate(p, y), p) for k in range(4)]
    expected += [(q.vertices, True, k) for q in (translate(p, y), p) for k in range(1, 3)]
    assert Counter(calls) == Counter(expected)


def test_reciprocity_walks_no_relint_dilate_for_its_expansions(monkeypatch):
    calls = recorded_walks(monkeypatch)
    p = from_points([(0, 0), (3, 0), (0, 2), (2, 2)])
    r = 2
    assert check_reciprocity(p, r).ok
    # the one relint walk is discrete_moment_relint's of P itself; the expansions of P and -P
    # take the closed dilates k = 0..m+r, so the test at -1 reads no value the expansion was built from
    assert [call for call in calls if call[1]] == [(p.vertices, True, 1)]
    mirrored = [scale for vertices, relint, scale in calls if vertices == negate(p).vertices]
    assert sorted(mirrored) == list(range(p.dim + r + 1))
    assert set(range(p.dim + r + 1)) <= {scale for vertices, relint, scale in calls if vertices == p.vertices}


def test_reciprocity_fails_on_a_perturbed_relint_moment(monkeypatch):
    true_relint = ehrhart.discrete_moment_relint

    def perturbed(p, r):
        t = true_relint(p, r)
        return t + SymTensor(t.dim, r, {multi_indices(t.dim, r)[0]: 1})

    monkeypatch.setattr(ehrhart, "discrete_moment_relint", perturbed)
    for p, r in [(from_points([(0, 0), (3, 0), (0, 2), (2, 2)]), 2), (from_points([(1, 1), (4, 1)]), 1)]:
        report = check_reciprocity(p, r)
        assert not report.ok
        assert any(f.startswith("alternating-sum reciprocity") for f in report.failures), report.failures


def test_negative_ranks_are_refused_before_any_walk(monkeypatch):
    calls = recorded_walks(monkeypatch)
    t2, point = standard_simplex(2, 2), from_points([(2, -1)])
    for call in (
        lambda: ehrhart_tensors(t2, -1),
        lambda: ehrhart_tensors(point, -2),
        lambda: check_translation_covariance(t2, -1, (1, 0)),
        lambda: ehrhart._expansions(t2, [2, -1]),
        lambda: discrete_moment(t2, -1),
        lambda: discrete_moment_relint(point, -3),
    ):
        with pytest.raises(ValueError, match="rank must be non-negative"):
            call()
    assert calls == []


def reference_summer(p, rank):
    """The map from one dilate's blocks of p to its sums of x^alpha, |alpha| = rank: _summer before it took segments.

    One summing call per dilate and rank.  The lattice-coordinate sums of a
    lower-dimensional p are pushed to x by the pull-back plan, or, below
    |betas| |alphas| points, taken over the points mapped to x as one-point runs.
    """
    n, rows = p.ambient_dim, lattice_rows(p)
    if rows is None:
        return lambda blocks: _tensor_sum([blocks], n, [rank])[0][0]
    betas, alphas = multi_indices(len(rows), rank), multi_indices(n, rank)
    plan = None

    def push(blocks):
        nonlocal plan
        blocks = list(blocks)
        if _count(blocks) < len(betas) * len(alphas):
            # one block of one-point runs: heads x[:-1], lo = hi = x[-1]
            xs = list(zip(*_expand(p, blocks)))
            return _tensor_sum([[(xs[:-1], xs[-1], xs[-1])] if xs else []], n, [rank])[0][0]
        if plan is None:
            pulled = [row for _, row in _pull_back_rows(list(zip(*rows)), alphas)]
            ends = [0, *accumulate(map(len, pulled))]
            plan = [b for row in pulled for b in row], [c for row in pulled for c in row.values()], ends
        keys, coeffs, ends = plan
        sums = dict(zip(betas, _tensor_sum([blocks], len(rows), [rank])[0][0]))
        acc = list(accumulate(map(mul, coeffs, map(sums.__getitem__, keys)), initial=0))
        return list(map(sub, map(acc.__getitem__, ends[1:]), map(acc.__getitem__, ends)))

    return push


def reference_positive_expansions(p, ranks):
    """Expansions from the closed dilates kP, k = 0..m+r only: the route _expansions took before reciprocity."""
    n, m = p.ambient_dim, p.dim
    sums = {r: [] for r in ranks}
    dilates = [fibers(p, scale=k) for k in range(m + max(ranks) + 1)]
    summers = {r: reference_summer(p, r) for r in ranks}
    for k, dilate_blocks in enumerate(dilates):
        blocks = list(dilate_blocks)
        for r in ranks:
            if k <= m + r:
                sums[r].append(summers[r](blocks))
    out = []
    for r in ranks:
        weights, d = _vandermonde_inverse(tuple(range(m + r + 1)))
        alphas = multi_indices(n, r)
        coeffs = []
        for row in weights:
            total = [sum(w * values[i] for w, values in zip(row, sums[r])) for i in range(len(alphas))]
            coeffs.append(SymTensor._ints(n, r, dict(zip(alphas, total)), d * factorial(r)))
        coeffs += [SymTensor.zero(n, r)] * (n - m)
        out.append(ehrhart.EhrhartTensorExpansion(rank=r, coefficients=tuple(coeffs)))
    return out


@settings(max_examples=60, deadline=None)
@given(polytopes(), st.integers(0, 3))
def test_reciprocity_nodes_match_the_positive_node_reference(p, r):
    reference = reference_positive_expansions(p, range(r + 1))
    assert ehrhart_tensors(p, r) == reference[r]
    assert ehrhart._expansions(p, range(r + 1)) == reference
    assert ehrhart._expansions(p, [r], positive=True) == reference[r:]


@settings(max_examples=40, deadline=None)
@given(polytopes(), st.integers(0, 3))
def test_expansion_extrapolates_past_its_nodes(p, r):
    # the nodes are -a..b; b + 1, b + 2 and -(a + 1) read dilates the expansion was not built from
    n, m = p.ambient_dim, p.dim
    a = (m + r) // 2
    b = m + r - a
    expansion = ehrhart_tensors(p, r)
    for k in (b + 1, b + 2):
        assert expansion.evaluate_at(k) == point_moment(brute_force_points(dilate(p, k)), n, r), k
    relint = point_moment(brute_force_points(dilate(p, a + 1), relint=True), n, r)
    assert expansion.evaluate_at(-(a + 1)) * (-1) ** (m + r) == relint


def reference_ambient_expansion(p, r):
    """Interpolation at the ambient degree n + r, on the moments of kP for k = 0..n+r."""
    n = p.ambient_dim
    weights, d = _vandermonde_inverse(tuple(range(n + r + 1)))
    values = [discrete_moment(dilate(p, k), r) for k in range(n + r + 1)]
    coeffs = []
    for row in weights:
        acc = SymTensor.zero(n, r)
        for w, value in zip(row, values):
            acc = acc + value * w
        coeffs.append(acc / d)
    return tuple(coeffs)


@settings(max_examples=40, deadline=None)
@given(polytopes().filter(lambda p: p.dim < p.ambient_dim), st.integers(0, 3))
def test_expansion_at_degree_dim_plus_rank_matches_ambient_interpolation(p, r):
    # L^r(kP) has degree dim P + r, so the m + r + 1 nodes fix it; the n - m top coefficients are zero
    coefficients = ehrhart_tensors(p, r).coefficients
    assert coefficients == reference_ambient_expansion(p, r)
    assert len(coefficients) == p.ambient_dim + r + 1
    assert all(c.is_zero for c in coefficients[p.dim + r + 1 :])


# -- the run-by-run power sums, kept as the reference for the list-wide kernel --


def reference_range_power_sums(lo, hi, rank):
    """[sum_(u=lo..hi) u^e for e = 0..rank], by Faulhaber's polynomials."""
    if lo == hi:
        pows = [1]
        for _ in range(rank):
            pows.append(pows[-1] * lo)
        return pows
    a, b = lo - 1, hi
    pa, pb = [1], [1]
    for _ in range(rank + 1):
        pa.append(pa[-1] * a)
        pb.append(pb[-1] * b)
    diffs = [y - x for x, y in zip(pa, pb)]
    return [
        sum(c * dj for c, dj in zip(coeffs, diffs[1:])) // d
        for coeffs, d in _power_sum_table(rank)
    ]


@lru_cache(maxsize=None)
def reference_sum_plan(dim, rank):
    """(pairs, layers, heads, slots): how per-run power sums combine into the sums of y^beta.

    pairs lists the exponents (a, e), a + e <= rank, of v^a u^e for a run
    y = (h, v, u); layers builds the monomials in h one degree at a time;
    heads and slots give, per beta, the index of its monomial in h and of
    its pair.
    """
    pairs = [(a, e) for a in range(rank + 1) for e in range(rank + 1 - a)]
    width = max(dim - 2, 0)
    zero = (0,) * width
    index = {zero: 0}
    layers = []
    frontier = [(zero, 0)]
    for _ in range(rank):
        parents, coords, grown = [], [], []
        for mono, first in frontier:
            for i in range(first, width):
                new = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                index[new] = len(index)
                parents.append(index[mono])
                coords.append(i)
                grown.append((new, i))
        layers.append((tuple(parents), tuple(coords)))
        frontier = grown
    alphas = multi_indices(dim, rank)
    heads = tuple(index[a[:width]] for a in alphas)
    slots = tuple(pairs.index((a[-2] if dim > 1 else 0, a[-1])) for a in alphas)
    return tuple(pairs), tuple(layers), heads, slots


def reference_tensor_sum(runs, dim, rank):
    """Sums of y^beta over runs (head, lo, hi), one run at a time, gathering runs that share h."""
    if rank == 0:
        return [sum(hi - lo + 1 for _, lo, hi in runs)]
    pairs, layers, heads, slots = reference_sum_plan(dim, rank)
    acc = [0] * len(heads)
    for outer, group in groupby(runs, key=lambda run: run[0][:-1]):
        gathered = [0] * len(pairs)
        for head, lo, hi in group:
            sums = reference_range_power_sums(lo, hi, rank)
            vp = reference_range_power_sums(head[-1], head[-1], rank) if dim > 1 else [1] + [0] * rank
            gathered = [g + vp[a] * sums[e] for g, (a, e) in zip(gathered, pairs)]
        mono = [1]
        for parents, coords in layers:
            mono += map(mul, map(mono.__getitem__, parents), map(outer.__getitem__, coords))
        acc = list(map(add, acc, map(mul, map(mono.__getitem__, heads), map(gathered.__getitem__, slots))))
    return acc


def block_runs(blocks):
    """The runs (head, lo, hi) of blocks, head holding every coordinate but the last."""
    return [(tuple(h), lo, hi) for heads, los, his in blocks for *h, lo, hi in zip(*heads, los, his)]


def test_range_power_sums_match_direct_sums():
    # one-run blocks in one coordinate; (5, 4) and (-2, -3) are empty ranges
    for lo, hi in [(0, 0), (-1, -1), (1, 5), (-4, 3), (-7, -2), (-3, 0), (0, 6), (5, 4), (-2, -3)]:
        for rank in range(19):
            direct = [sum(u**e for u in range(lo, hi + 1)) for e in range(rank + 1)]
            assert reference_range_power_sums(lo, hi, rank) == direct, (lo, hi, rank)
            assert _tensor_sum([[([], [lo], [hi])]], 1, [rank]) == [[direct[-1:]]], (lo, hi, rank)


@settings(max_examples=120, deadline=None)
@given(polytopes(), st.integers(0, 6), st.booleans(), st.integers(0, 3))
def test_tensor_sum_matches_run_by_run_reference_and_point_sums(p, rank, relint, scale):
    blocks = list(fibers(p, relint=relint, scale=scale))
    rows = lattice_rows(p)
    dim = p.ambient_dim if rows is None else len(rows)
    runs = block_runs(blocks)
    [[sums]] = _tensor_sum([blocks], dim, [rank])
    assert sums == reference_tensor_sum(runs, dim, rank)
    ys = [head + (s,) for head, lo, hi in runs for s in range(lo, hi + 1)]
    brute = [sum(prod(c**e for c, e in zip(y, beta)) for y in ys) for beta in multi_indices(dim, rank)]
    assert sums == brute


# -- one summing pass over the segments of an expansion, in chunks of at most _BLOCK runs --

BIG = "big"  # stands for one dilate of more than 2^16 runs among the drawn segments
BIG_COPIES = 10_000


def big_base(dim):
    """Seven runs whose BIG_COPIES copies make the big segment."""
    heads = [(-1, 2), (2, 0), (0, -3), (1, 1), (3, -2), (-2, -1), (0, 0)]
    bounds = [(-3, 2), (0, 0), (-5, -1), (4, 9), (-1, 1), (2, 2), (-2, 6)]
    return [(h[: dim - 1], lo, hi) for h, (lo, hi) in zip(heads, bounds)]


def as_block(runs):
    """One block (heads, los, his) holding runs (head, lo, hi) in order."""
    return [list(c) for c in zip(*(h for h, _, _ in runs))], [lo for _, lo, _ in runs], [hi for _, _, hi in runs]


@lru_cache(maxsize=None)
def big_blocks(dim):
    """The big segment: 70,000 runs in blocks of 50,000 and 20,000, so the second overflows a chunk."""
    runs = big_base(dim) * BIG_COPIES
    return [as_block(runs[:50_000]), as_block(runs[50_000:])]


@st.composite
def segment_lists(draw):
    """(dim, segments): each segment a list of blocks, each a list of runs (head, lo, hi), or BIG; often empty."""
    dim = draw(st.integers(1, 3))
    run = st.tuples(st.tuples(*[st.integers(-3, 3)] * (dim - 1)), st.integers(-4, 4), st.integers(0, 4))
    block = st.lists(run.map(lambda t: (t[0], t[1], t[1] + t[2])), min_size=1, max_size=4)
    segments = draw(st.lists(st.lists(block, max_size=3), min_size=1, max_size=6))
    if not draw(st.integers(0, 3)):
        segments.insert(draw(st.integers(0, len(segments))), BIG)
    return dim, segments


RUN = ((1, -2), -1, 3)


@settings(max_examples=60, deadline=None)
@given(
    segment_lists(),
    st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True).map(sorted),
    st.sampled_from([4, 9, _BLOCK]),
)
@example((3, [[], [[RUN]], [], [[RUN, RUN], [RUN]], []]), [0, 1, 2, 3], _BLOCK)
@example((2, [[], [], []]), [0, 1, 2, 3], _BLOCK)
@example((3, [[[RUN]], BIG, [[RUN, RUN]], []]), [0, 1, 2, 3], _BLOCK)
@example((2, [[], BIG, [[((4,), 0, 2)]]]), [2], _BLOCK)
def test_segmented_sums_match_the_run_by_run_reference(case, ranks, block):
    # block caps a chunk's runs; the small caps cut chunks between and inside small segments
    dim, drawn = case
    segments = [big_blocks(dim) if s == BIG else [as_block(b) for b in s] for s in drawn]
    with mock.patch.object(ehrhart, "_BLOCK", block):
        sums = _tensor_sum(segments, dim, ranks)
    assert len(sums) == len(segments)
    for s, by_rank in zip(drawn, sums):
        assert len(by_rank) == len(ranks)
        for r, got in zip(ranks, by_rank):
            if s == BIG:
                expected = [BIG_COPIES * x for x in reference_tensor_sum(big_base(dim), dim, r)]
            else:
                expected = reference_tensor_sum([run for b in s for run in b], dim, r)
            assert got == expected, (s == BIG, r)


def test_expansions_sum_once_in_chunks_of_at_most_a_block(monkeypatch):
    chunked, calls = [], []

    def recorded(segments, dim):
        calls.append(len(segments))
        for columns, counts in chunks(segments, dim):
            chunked.append(len(columns[-1]))
            assert sum(counts) == chunked[-1] and len(columns) == dim + 1
            yield columns, counts

    chunks = ehrhart._chunks
    monkeypatch.setattr(ehrhart, "_chunks", recorded)
    # [0, a]^2 x [0, 1]: the nodes of rank 1 are -2..2, and 2P alone has (2a + 1)^2 > 2^16 runs
    a = 200
    box = from_points([(x, y, z) for x in (0, a) for y in (0, a) for z in (0, 1)])
    constant, linear = ehrhart._expansions(box, range(2))
    assert calls == [5]  # one summing call for all five dilates and both ranks
    assert max(chunked) <= _BLOCK and len(chunked) > 2
    for k in (1, 2, 3, 4):  # 3 and 4 lie past the nodes
        side, height = a * k + 1, k + 1
        assert constant.evaluate_at(k).scalar_value() == side * side * height
        value = linear.evaluate_at(k)
        assert value.coord((1, 0, 0)) == value.coord((0, 1, 0)) == a * k * side // 2 * side * height
        assert value.coord((0, 0, 1)) == side * side * k * height // 2
    calls.clear()
    p = from_points([(0, 0), (2, 0), (0, 1), (1, 2)])
    assert check_translation_covariance(p, 3, (1, -2)).ok
    assert calls == [6, 6]  # the translate's expansion and P's expansions of ranks 0..3


def reference_evaluate_at(expansion, k):
    """sum_i c_i k^i, one tensor product and sum per coefficient."""
    acc = SymTensor.zero(expansion.coefficients[0].dim, expansion.rank)
    for i, coeff in enumerate(expansion.coefficients):
        acc = acc + coeff * Fraction(k) ** i
    return acc


def test_evaluate_at_matches_the_tensor_sum_of_its_terms():
    for p in sample_polytopes().values():
        for r in range(4):
            expansion = ehrhart_tensors(p, r)
            for k in [*range(-2, 4), Fraction(1, 2), Fraction(-5, 3)]:
                assert expansion.evaluate_at(k) == reference_evaluate_at(expansion, k), (p.vertices, r, k)


def point_moment(pts, n, r):
    """(1/r!) sum of x^r over the points."""
    sums = {a: sum(prod(map(pow, x, a)) for x in pts) for a in multi_indices(n, r)}
    return SymTensor(n, r, {a: Fraction(s, factorial(r)) for a, s in sums.items()})


# a lower-dimensional sum takes the one-point push when _count(blocks) is below the plan's size, else the plan
PUSH_PATHS = pytest.mark.parametrize("points_counted", [-1, float("inf")], ids=["one-point", "plan"])


@PUSH_PATHS
@settings(max_examples=40, deadline=None)
@given(polytopes().filter(lambda p: p.dim < p.ambient_dim), st.integers(0, 4))
def test_both_push_paths_match_point_sums(points_counted, p, r):
    n = p.ambient_dim
    with mock.patch.object(ehrhart, "_count", lambda blocks: points_counted):
        assert discrete_moment(p, r) == point_moment(brute_force_points(p), n, r)
        assert discrete_moment_relint(p, r) == point_moment(brute_force_points(p, relint=True), n, r)
        expansion = ehrhart_tensors(p, r)
    for k in (0, 1, 2):
        assert expansion.evaluate_at(k) == point_moment(brute_force_points(dilate(p, k)), n, r)


@PUSH_PATHS
def test_both_push_paths_on_a_segment_in_z6_at_rank_12(points_counted):
    seg = from_points([(0,) * 6, (5,) * 6])
    with mock.patch.object(ehrhart, "_count", lambda blocks: points_counted):
        assert discrete_moment(seg, 12) == point_moment([(i,) * 6 for i in range(6)], 6, 12)
        assert discrete_moment_relint(seg, 12) == point_moment([(i,) * 6 for i in range(1, 5)], 6, 12)
        expansion = ehrhart_tensors(seg, 12)
    assert expansion.evaluate_at(2) == point_moment([(i,) * 6 for i in range(11)], 6, 12)


def test_check_equivariance_examples():
    t2 = standard_simplex(2, 2)
    assert check_equivariance(t2, 2, [[1, 0], [0, 1]]).ok
    assert check_equivariance(t2, 2, [[1, 1], [0, 1]]).ok
    phi = random_unimodular(2, seed=3, steps=5)
    assert check_equivariance(t2, 3, phi).ok
    with pytest.raises(ValueError):
        check_equivariance(t2, 2, UnimodularMap(((1, 0), (0, 1)), (1, 0)))


def test_check_equivariance_refuses_wrong_size_matrix():
    identity3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match="2 x 2"):
        check_equivariance(standard_simplex(2, 2), 1, identity3)


def test_check_equivariance_refuses_non_integer_matrix():
    # truncating to int would check the identity map and pass
    with pytest.raises(ValueError, match="integers"):
        check_equivariance(standard_simplex(2, 2), 1, [[1.7, 0], [0, 1]])


def test_vandermonde_inverse_up_to_cli_caps():
    for degree in range(EHRHART_MAX_RANK + MAX_AMBIENT_DIM + 1):
        a = degree // 2
        for nodes in (tuple(range(degree + 1)), tuple(range(-a, degree - a + 1))):
            weights, d = _vandermonde_inverse(nodes)
            powers = range(degree + 1)
            product = [[sum(k**j * weights[j][i] for j in powers) for i in powers] for k in nodes]
            assert product == [[d * int(row == i) for i in powers] for row in powers], nodes


def test_lower_dimensional_coordinates_vanish():
    # for a polytope in the span of e1, coordinates touching e2 vanish,
    # both for the moment tensor and for every expansion coefficient
    seg = from_points([(0, 0), (3, 0)])
    for r in (1, 2, 3):
        t = discrete_moment(seg, r)
        assert all(alpha[1] == 0 for alpha in t.coords)
        exp = ehrhart_tensors(seg, r)
        for coeff in exp.coefficients:
            assert all(alpha[1] == 0 for alpha in coeff.coords)


def test_check_report_failure_surface():
    report = CheckReport("demo", False, ["x"])
    assert not report
    assert report.to_json_dict() == {"check": "demo", "pass": False, "failures": ["x"]}
    good = SymTensor(2, 1, {(1, 0): 1})
    bad = SymTensor(2, 1, {(1, 0): 2})
    from lattens.ehrhart import _compare

    failures = []
    _compare("unit", good, bad, failures)
    assert failures and "(1, 0)" in failures[0]


def brute_complete_homogeneous(vectors, dim, rank):
    """Expand prod_i (v_i . z)^beta_i one linear factor at a time for every beta."""
    total = {}
    for beta in multi_indices(len(vectors), rank):
        poly = {(0,) * dim: 1}
        for v, b in zip(vectors, beta):
            for _ in range(b):
                out = {}
                for mono, c in poly.items():
                    for i in range(dim):
                        key = tuple(e + (j == i) for j, e in enumerate(mono))
                        out[key] = out.get(key, 0) + c * v[i]
                poly = out
        for mono, c in poly.items():
            total[mono] = total.get(mono, 0) + c
    return {mono: c for mono, c in total.items() if c}


@st.composite
def vector_lists(draw):
    n = draw(st.integers(1, 4))
    return n, draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=5))


@settings(max_examples=100, deadline=None)
@given(vector_lists(), st.integers(0, 5))
def test_complete_homogeneous_matches_brute_force(case, rank):
    n, vectors = case
    h = _complete_homogeneous(vectors, n, rank)
    assert all(isinstance(c, int) for c in h.values())
    assert {mono: c for mono, c in h.items() if c} == brute_complete_homogeneous(vectors, n, rank)


def reference_simplicial_pieces(p):
    """The pulling triangulation moment_tensor used to run, re-hulling each facet."""
    if p.dim <= 0 or len(p.vertices) == p.dim + 1:
        return [p.vertices]
    apex = p.vertices[0]
    pieces = []
    for a, b in p.facet_inequalities:
        if sum(x * y for x, y in zip(a, apex)) != b:
            tight = [v for v in p.vertices if sum(x * y for x, y in zip(a, v)) == b]
            pieces += [(apex,) + simplex for simplex in reference_simplicial_pieces(LatticePolytope(tight))]
    return pieces


@settings(max_examples=100, deadline=None)
@given(polytopes())
def test_simplicial_pieces_match_rehull(p):
    pieces = _simplicial_pieces(p)
    assert Counter(pieces) == Counter(reference_simplicial_pieces(p))
    # each piece joins a vertex to a simplex of a facet off it, so each spans p's dimension: its Gram
    # determinant is non-zero, and moment_tensor meets no piece of volume 0
    for piece in pieces:
        edges = [[a - b for a, b in zip(v, piece[0])] for v in piece[1:]]
        assert det([[sum(map(mul, e, f)) for f in edges] for e in edges]) != 0


def test_simplicial_pieces_of_sample_polytopes_match_rehull():
    for p in sample_polytopes().values():
        assert Counter(_simplicial_pieces(p)) == Counter(reference_simplicial_pieces(p))
