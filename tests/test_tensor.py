import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattens.arith import multinomial
from lattens.ehrhart import discrete_moment, ehrhart_tensors
from lattens.polytope import from_points, random_unimodular
from lattens.tensor import (
    SymTensor,
    _pull_back_rows,
    apply_linear,
    coordinate_row,
    evaluate,
    multi_indices,
    sym_power,
    sym_product,
)


def small_tensor(dim=2, rank=2, seed=0):
    rng = random.Random(seed)
    coords = {
        alpha: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for alpha in multi_indices(dim, rank)
    }
    return SymTensor(dim, rank, coords)


@st.composite
def tensors(draw, dim=2, max_rank=2):
    rank = draw(st.integers(min_value=0, max_value=max_rank))
    entries = {}
    for alpha in multi_indices(dim, rank):
        num = draw(st.integers(min_value=-5, max_value=5))
        den = draw(st.integers(min_value=1, max_value=4))
        entries[alpha] = Fraction(num, den)
    return SymTensor(dim, rank, entries)


def test_multi_indices_lex_order():
    assert multi_indices(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(multi_indices(3, 4)) == 15


def test_sym_power_examples():
    assert sym_power((1, 0), 3).coords == {(3, 0): 1}
    assert sym_power((1, 1), 2).coords == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert sym_power((2, 3), 2).coords == {(2, 0): 4, (1, 1): 6, (0, 2): 9}
    assert sym_power((0, 0), 0) == SymTensor.scalar(2, 1)


def test_sym_product_examples():
    v = (1, 2)
    x = sym_power(v, 1)
    assert sym_product(x, x) == sym_power(v, 2)
    e1 = sym_power((1, 0), 1)
    e2 = sym_power((0, 1), 1)
    assert sym_product(e1, e2).coords == {(1, 1): Fraction(1, 2)}
    a = small_tensor(seed=3)
    assert sym_product(a, SymTensor.scalar(2, Fraction(5, 3))) == a * Fraction(5, 3)


@settings(max_examples=40, deadline=None)
@given(tensors(), tensors())
def test_sym_product_commutative(a, b):
    assert sym_product(a, b) == sym_product(b, a)


@settings(max_examples=25, deadline=None)
@given(tensors(max_rank=1), tensors(max_rank=1), tensors(max_rank=2))
def test_sym_product_associative(a, b, c):
    assert sym_product(sym_product(a, b), c) == sym_product(a, sym_product(b, c))


@settings(max_examples=25, deadline=None)
@given(tensors(max_rank=2), st.integers(min_value=-4, max_value=4))
def test_sym_product_bilinear(a, s):
    b = small_tensor(dim=2, rank=2, seed=11)
    c = small_tensor(dim=2, rank=2, seed=12)
    lhs = sym_product(a, (b + c) * s)
    rhs = (sym_product(a, b) + sym_product(a, c)) * s
    assert lhs == rhs


def test_apply_linear_identity_and_example():
    t = small_tensor(dim=3, rank=2, seed=5)
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert apply_linear(t, eye) == t
    covector = SymTensor(2, 1, {(1, 0): 1})
    assert apply_linear(covector, [[0, -1], [1, -1]]).coords == {(0, 1): 1}


def test_apply_linear_on_powers():
    rng = random.Random(2)
    for _ in range(10):
        x = tuple(rng.randint(-3, 3) for _ in range(2))
        m = [[1, rng.randint(-2, 2)], [0, 1]]
        mx = tuple(sum(m[i][j] * x[j] for j in range(2)) for i in range(2))
        for r in range(4):
            assert apply_linear(sym_power(x, r), m) == sym_power(mx, r)


def test_apply_linear_contravariant_composition():
    rng = random.Random(4)
    t = small_tensor(dim=2, rank=3, seed=9)
    for _ in range(8):
        m = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        n = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        nm = [[sum(n[i][k] * m[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        assert apply_linear(apply_linear(t, m), n) == apply_linear(t, nm)


def test_apply_linear_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_linear(small_tensor(), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_evaluate_examples():
    assert evaluate(sym_power((1, 2), 2), [(3, 1), (3, 1)]) == 25
    t = small_tensor(dim=2, rank=3, seed=7)
    for alpha in multi_indices(2, 3):
        basis = [(1, 0)] * alpha[0] + [(0, 1)] * alpha[1]
        assert evaluate(t, basis) == t.coord(alpha)


def test_evaluate_argument_symmetry():
    rng = random.Random(13)
    t = small_tensor(dim=3, rank=3, seed=1)
    vectors = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
    shuffled = list(vectors)
    rng.shuffle(shuffled)
    assert evaluate(t, vectors) == evaluate(t, shuffled)
    with pytest.raises(ValueError):
        evaluate(t, vectors[:2])


def test_coordinate_row_examples():
    assert coordinate_row([(1, 0), (1, 0), (0, 1)], 2) == {(2, 1): 1}
    assert coordinate_row([(1, 1)], 2) == {(1, 0): 1, (0, 1): 1}


def test_coordinate_row_matches_evaluate_on_powers():
    rng = random.Random(21)
    for _ in range(10):
        x = tuple(rng.randint(-3, 3) for _ in range(2))
        vectors = [tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(3)]
        row = coordinate_row(vectors, 2)
        t = sym_power(x, 3)
        total = sum((c * t.coord(alpha) for alpha, c in row.items()), Fraction(0))
        direct = 1
        for v in vectors:
            direct *= x[0] * v[0] + x[1] * v[1]
        assert total == direct


def test_sym_product_properties_in_dimension_three():
    rng = random.Random(77)
    for _ in range(6):
        rank_a, rank_b, rank_c = rng.choice([(1, 1, 2), (2, 2, 0), (1, 2, 1)])
        a = SymTensor(3, rank_a, {al: Fraction(rng.randint(-3, 3)) for al in multi_indices(3, rank_a)})
        b = SymTensor(3, rank_b, {al: Fraction(rng.randint(-3, 3)) for al in multi_indices(3, rank_b)})
        c = SymTensor(3, rank_c, {al: Fraction(rng.randint(-3, 3)) for al in multi_indices(3, rank_c)})
        assert sym_product(a, b) == sym_product(b, a)
        assert sym_product(sym_product(a, b), c) == sym_product(a, sym_product(b, c))


def test_tensor_arithmetic_and_validation():
    a = small_tensor(seed=31)
    assert a - a == SymTensor.zero(2, 2)
    assert (a * 0).is_zero
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(1, 0): 1})
    with pytest.raises(ValueError):
        a + small_tensor(dim=2, rank=1, seed=1)


def assert_canonical(t):
    """t holds what the public constructor would store: exact non-zero Fractions on valid multi-indices."""
    assert t.coords == SymTensor(t.dim, t.rank, t.coords).coords
    assert all(type(v) is Fraction and v != 0 for v in t.coords.values())


@settings(max_examples=100, deadline=None)
@given(tensors(), tensors(), st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_library_built_tensors_are_canonical(a, b, s):
    # the library builds these without the constructor's checks, so each path drops its own zeros
    built = [a - a, a + a * s, -a, a * s, a * 0, sym_product(a, b), apply_linear(a, ((1, -1), (-1, 1)))]
    if a.rank == b.rank:
        built.append(a + b)
    for t in built:
        assert_canonical(t)
    square = from_points([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)])
    for t in (discrete_moment(square, 3), *ehrhart_tensors(square, 3).coefficients):
        assert_canonical(t)


def test_json_round_trip_and_key_order():
    t = SymTensor(2, 2, {(2, 0): Fraction(1), (0, 2): Fraction(-1, 3)})
    data = t.to_json_dict()
    assert list(data["coords"]) == ["0,2", "2,0"]
    assert data["coords"]["0,2"] == "-1/3"
    assert SymTensor.from_json_dict(data) == t


def test_rational_serialization_round_trip():
    assert SymTensor(1, 1, {(1,): Fraction(-3, 6)}).to_json_dict()["coords"] == {"1": "-1/2"}
    assert SymTensor.scalar(1, 5).to_json_dict()["coords"] == {"0": "5"}
    parsed = SymTensor.from_json_dict({"dim": 2, "rank": 1, "coords": {"1,0": "-1/2", "0,1": "7"}})
    assert parsed.coords == {(1, 0): Fraction(-1, 2), (0, 1): 7}
    for q in (Fraction(22, 7), Fraction(0), Fraction(-9, 4), Fraction(10)):
        t = SymTensor.scalar(1, q)
        assert SymTensor.from_json_dict(t.to_json_dict()) == t


# -- the integer pull-back kernel against one coordinate_row per coordinate ----------


def coordinate_vectors(matrix, beta):
    """Row j of the matrix repeated beta_j times: the arguments behind coordinate beta."""
    vectors = []
    for j in range(len(matrix)):
        vectors.extend([matrix[j]] * beta[j])
    return vectors


def reference_apply_linear(t, matrix):
    """apply_linear with one coordinate_row per coordinate, the former implementation."""
    n = t.dim
    if t.rank == 0:
        return t
    coords = {}
    for beta in multi_indices(n, t.rank):
        row = coordinate_row(coordinate_vectors(matrix, beta), n)
        coords[beta] = sum((c * t.coord(alpha) for alpha, c in row.items()), Fraction(0))
    return SymTensor(n, t.rank, coords)


@st.composite
def integer_matrices(draw, square=True):
    """n x n integer matrices, or k x n with 1 <= k <= n + 1 unless square."""
    n = draw(st.integers(min_value=1, max_value=4))
    k = n if square else draw(st.integers(min_value=1, max_value=n + 1))
    entry = st.integers(min_value=-3, max_value=3)
    return [[draw(entry) for _ in range(n)] for _ in range(k)]


@settings(max_examples=100, deadline=None)
@given(integer_matrices(square=False), st.integers(min_value=0, max_value=6), st.randoms(use_true_random=False))
def test_pull_back_rows_match_coordinate_rows(matrix, rank, rng):
    # points.lattice_rows gives k = m + 1 <= n rows for an m-dimensional polytope in Z^n
    # (and None when m = n); k = n + 1 is drawn only to cover wider non-square shapes
    n = len(matrix[0])
    betas = multi_indices(len(matrix), rank)
    rows = dict(_pull_back_rows(matrix, betas))
    assert list(rows) == betas
    assert dict(_pull_back_rows(matrix, betas[-1:])) == {betas[-1]: rows[betas[-1]]}
    # in any order, each row reuses the prefix it shares with the row before
    shuffled = rng.sample(betas, len(betas))
    assert list(_pull_back_rows(matrix, shuffled)) == [(beta, rows[beta]) for beta in shuffled]
    for beta, row in rows.items():
        assert row == coordinate_row(coordinate_vectors(matrix, beta), n)
        assert all(type(c) is int and c != 0 for c in row.values())


@settings(max_examples=60, deadline=None)
@given(integer_matrices(), st.integers(min_value=0, max_value=6), st.data())
def test_apply_linear_matches_reference(matrix, rank, data):
    n = len(matrix)
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    t = SymTensor(n, rank, {alpha: data.draw(fractions) for alpha in multi_indices(n, rank)})
    assert apply_linear(t, matrix) == reference_apply_linear(t, matrix)


# -- the Fraction-dict tensor, kept as the reference for the integer one ---------------


@dataclass(frozen=True)
class ReferenceTensor:
    """SymTensor as it was before its integer storage: a dict of non-zero Fractions."""

    dim: int
    rank: int
    coords: dict

    @staticmethod
    def of(t):
        return ReferenceTensor(t.dim, t.rank, {a: v for a, v in dict(t.coords).items() if v})

    def __add__(self, other):
        out = dict(self.coords)
        for alpha, value in other.coords.items():
            out[alpha] = out.get(alpha, 0) + value
        return ReferenceTensor(self.dim, self.rank, {a: v for a, v in out.items() if v})

    def __neg__(self):
        return ReferenceTensor(self.dim, self.rank, {a: -v for a, v in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        s = Fraction(scalar)
        return ReferenceTensor(self.dim, self.rank, {a: v * s for a, v in self.coords.items() if s})

    def __truediv__(self, scalar):
        return self * (1 / Fraction(scalar))

    def __eq__(self, other):
        return (self.dim, self.rank, self.coords) == (other.dim, other.rank, other.coords)

    def __hash__(self):
        return hash((self.dim, self.rank, tuple(sorted(self.coords.items()))))

    def to_json_dict(self):
        coords = {",".join(map(str, alpha)): str(value) for alpha, value in sorted(self.coords.items())}
        return {"dim": self.dim, "rank": self.rank, "coords": coords}


def reference_sym_product(a, b):
    """Multiply the diagonal polynomials in Fractions and divide by the multinomials."""
    rank = a.rank + b.rank
    prod = {}
    for x, u in a.coords.items():
        for y, w in b.coords.items():
            key = tuple(i + j for i, j in zip(x, y))
            prod[key] = prod.get(key, 0) + u * multinomial(a.rank, x) * w * multinomial(b.rank, y)
    return ReferenceTensor(a.dim, rank, {g: c / multinomial(rank, g) for g, c in prod.items() if c})


def reference_matrix_apply(t, matrix):
    """Precompose with M^t, one coordinate_row per coordinate, in Fractions."""
    coords = {}
    for beta in multi_indices(t.dim, t.rank):
        row = coordinate_row(coordinate_vectors(matrix, beta), t.dim)
        coords[beta] = sum((c * t.coords.get(alpha, 0) for alpha, c in row.items()), Fraction(0))
    return ReferenceTensor(t.dim, t.rank, {b: v for b, v in coords.items() if v})


def assert_normal_form(t):
    assert type(t.den) is int and t.den > 0
    assert all(type(v) is int and v != 0 for v in t.num.values())
    assert gcd(t.den, *t.num.values()) == 1


@st.composite
def rational_tensors(draw, dim, rank):
    """Sparse rational tensors: each coordinate zero or a Fraction with a small denominator."""
    value = st.one_of(st.just(0), st.fractions(min_value=-20, max_value=20, max_denominator=12))
    return SymTensor(dim, rank, {alpha: draw(value) for alpha in multi_indices(dim, rank)})


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(0, 5), st.integers(0, 5))
def test_integer_tensors_match_the_fraction_reference(data, dim, rank, other_rank):
    a, b = data.draw(rational_tensors(dim, rank)), data.draw(rational_tensors(dim, rank))
    c = data.draw(rational_tensors(dim, other_rank))
    s = data.draw(st.fractions(min_value=-6, max_value=6, max_denominator=7))
    ra, rb, rc = ReferenceTensor.of(a), ReferenceTensor.of(b), ReferenceTensor.of(c)
    matrix = random_unimodular(dim, data.draw(st.integers(0, 10**6)), data.draw(st.integers(0, 6))).matrix
    q = data.draw(st.integers(1, 3))
    rational = [[Fraction(x, q) for x in row] for row in matrix]
    results = [
        (a + b, ra + rb),
        (a - b, ra - rb),
        (-a, -ra),
        (a * s, ra * s),
        (s * a, ra * s),
        (sym_product(a, c), reference_sym_product(ra, rc)),
        (apply_linear(a, matrix), reference_matrix_apply(ra, matrix)),
        (apply_linear(a, rational), reference_matrix_apply(ra, rational)),
    ]
    if s:
        results.append((a / s, ra / s))
    for t, ref in results:
        assert_normal_form(t)
        assert ReferenceTensor.of(t) == ref
        assert hash(t) == hash(ref)
        assert json.dumps(t.to_json_dict()) == json.dumps(ref.to_json_dict())
        assert SymTensor.from_json_dict(t.to_json_dict()) == t
        assert t == SymTensor(t.dim, t.rank, t.coords)
    assert (a == b) == (ra == rb)
    assert (a - b == SymTensor.zero(dim, rank)) == (ra == rb)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(0, 5), st.integers(1, 30))
def test_public_and_internal_constructors_agree(data, dim, rank, scale):
    t = data.draw(rational_tensors(dim, rank))
    assert_normal_form(t)
    # the same values as unreduced integers over a multiple of the denominator, with zeros kept
    num = {alpha: t.num.get(alpha, 0) * scale for alpha in multi_indices(dim, rank)}
    built = SymTensor._ints(dim, rank, num, t.den * scale)
    assert_normal_form(built)
    assert built == t and hash(built) == hash(t)
    assert built.num == t.num and built.den == t.den
    assert built.coords == t.coords and repr(built) == repr(t)
    assert all(type(v) is Fraction for v in built.coords.values())
