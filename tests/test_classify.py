import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattens import classify
from lattens.classify import (
    PRISM_FILTERS,
    ConstraintSystem,
    _planar_assembly,
    expected_survey_rank,
    in_span,
    kernel_basis,
    kernel_dim,
    planar_labels,
    planar_parity_rows,
    planar_relation_rows,
    planar_reduced_rows,
    planar_system,
    prism_system,
    rank,
)
from lattens.ehrhart import ehrhart_tensors
from lattens.linalg import rank_bareiss
from lattens.polytope import standard_simplex
from lattens.tensor import _pull_back_rows, coordinate_row, multi_indices
from lattens.tri2d import valuation_n


def degree_one_vector(r):
    coeff = ehrhart_tensors(standard_simplex(2, 2), r).coefficient(1)
    return [coeff.coord(alpha) for alpha in planar_labels(r)]


def build(labels, rows):
    return ConstraintSystem.build(labels, [("row", row) for row in rows])


# order-three lattice symmetry of the standard triangle: e1 -> -e2, e2 -> e1 - e2
PLANAR_MAP = ((0, 1), (-1, -1))


def prism_maps(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The n lattice maps carrying T_n onto the translated prism dissection pieces, as integer matrices.

    Map 1 is the identity; map i sends e_k to e_k - e_n for i-1 <= k <= n-1
    and e_n to e_{i-1}, fixing the earlier basis vectors.
    """
    maps = []
    for i in range(1, n + 1):
        cols = []
        for j in range(1, n + 1):  # column j = image of e_j
            col = [0] * n
            if i == 1:
                col[j - 1] = 1
            elif j <= n - 1:
                col[j - 1] = 1
                if i - 1 <= j <= n - 1:
                    col[n - 1] -= 1
            else:
                col[i - 2] = 1
            cols.append(col)
        matrix = tuple(tuple(cols[j][i_row] for j in range(n)) for i_row in range(n))
        maps.append(matrix)
    return maps


def pull_back_sums(terms, alphas):
    """Each alpha in order, with the row sum of s * (pull-back of z^alpha through M) over (M, s) in terms.

    The former classify._pull_back_sums, kept as the reference for the closed-form rows.  M is pulled
    back with its rows, and alpha, reversed, the same product, so that consecutive alphas share the
    power of M's last row and more.  Entries that cancel stay in the row as zeros.
    """
    streams = [_pull_back_rows(matrix[::-1], [alpha[::-1] for alpha in alphas]) for matrix, _ in terms]
    for alpha, pulled in zip(alphas, zip(*streams)):
        row = {}
        for (_, sign), (_, part) in zip(terms, pulled):
            for beta, c in part.items():
                row[beta] = row.get(beta, 0) + sign * c
        yield alpha, row


def pull_back_planar_rows(r, matrix, sign):
    """The non-zero rows x_a + sign * (x pulled back through matrix)_a, |a| = r: the former classify._planar_rows."""
    rows = pull_back_sums([(((1, 0), (0, 1)), 1), (matrix, sign)], planar_labels(r))
    return [row for _, row in rows if any(row.values())]


def planar_square_rows(r):
    """Constraints from vanishing on the unit square: Z(T_2) + Z(-T_2) = 0."""
    return pull_back_planar_rows(r, ((-1, 0), (0, -1)), 1)


def prism_relation_row(n, alpha):
    """Row asserting that the dissection pieces sum to zero at coordinate alpha."""
    alpha = tuple(alpha)
    ((_, row),) = pull_back_sums([(matrix, 1) for matrix in prism_maps(n)], [alpha])
    return {k: v for k, v in row.items() if v != 0}


def alternating_generators(n):
    """Generators of A_n acting on positions: the 3-cycles on consecutive positions."""
    if n <= 2:
        return ()
    if n == 3:
        return ((1, 2, 0),)
    gens = []
    for i in range(n - 2):
        perm = list(range(n))
        perm[i], perm[i + 1], perm[i + 2] = perm[i + 1], perm[i + 2], perm[i]
        gens.append(tuple(perm))
    return tuple(gens)


def reference_orbits(labels, generators):
    """The former ConstraintSystem.orbits: each orbit closed by breadth-first search over the generators.

    Returns the least member of each orbit, in order of first appearance, and the map from every
    orbit member, label or not, to it.
    """
    reps = []
    rep_of = {}
    for label in labels:
        if label in rep_of:
            continue
        orbit = {label}
        stack = [label]
        while stack:
            cur = stack.pop()
            for g in generators:
                nxt = tuple(cur[g[i]] for i in range(len(g)))
                if nxt not in orbit:
                    orbit.add(nxt)
                    stack.append(nxt)
        rep = min(orbit)
        reps.append(rep)
        for member in orbit:
            rep_of[member] = rep
    return reps, rep_of


def explicit_symmetry_rows(labels, n):
    """Materialized rows x_alpha - x_(alpha o sigma) for each generator sigma of A_n."""
    out = []
    for g in alternating_generators(n):
        for label in labels:
            image = tuple(label[g[i]] for i in range(len(g)))
            if image != label:
                out.append({label: 1, image: -1})
    return out


def explicit_dense_rows(n, r, coordinate_filter):
    """The dissection rows and the explicit symmetry rows of a prism system, unfolded and dense."""
    system = prism_system(n, r, coordinate_filter)
    column = {label: i for i, label in enumerate(system.labels)}
    sparse = [dict(row) for _, row in system.rows] + explicit_symmetry_rows(system.labels, n)
    dense = []
    for row in sparse:
        vec = [0] * len(column)
        for label, value in row.items():
            vec[column[label]] = value
        dense.append(vec)
    return system, dense


def test_rank_and_kernel_basics():
    labels = [(0, 1), (1, 0)]
    zero = ConstraintSystem.build(labels, [])
    assert rank(zero) == 0
    assert len(kernel_basis(zero)) == 2
    ident = build(labels, [{(0, 1): Fraction(1)}, {(1, 0): Fraction(1)}])
    assert rank(ident) == 2
    assert kernel_basis(ident) == []


def test_rank_plus_kernel_dim_is_unknown_count():
    rng = random.Random(5)
    labels = multi_indices(2, 4)
    for _ in range(10):
        rows = []
        for _ in range(rng.randint(1, 6)):
            rows.append({a: Fraction(rng.randint(-3, 3)) for a in labels if rng.random() < 0.6})
        system = build(labels, rows)
        assert rank(system) + len(kernel_basis(system)) == system.unknowns


def test_rank_independent_of_row_order():
    rng = random.Random(6)
    rows = planar_relation_rows(5) + planar_parity_rows(5, +1)
    base = build(planar_labels(5), rows)
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank(build(planar_labels(5), shuffled)) == rank(base)


@pytest.mark.parametrize("r", [3, 5, 7])
def test_planar_system_ranks(r):
    assert rank(planar_system(r, -1)) == r + 1
    plus = planar_system(r, +1)
    assert rank(plus) == r
    basis = kernel_basis(plus)
    assert len(basis) == 1
    assert in_span(basis, degree_one_vector(r))


def test_planar_generators_row_equivalent_for_even_parity():
    # both generators cut out the same space once the symmetric parity rows are added
    for r in (3, 5, 7):
        labels = planar_labels(r)
        relation = build(labels, planar_relation_rows(r) + planar_parity_rows(r, +1))
        reduced = build(labels, planar_reduced_rows(r) + planar_parity_rows(r, +1))
        union = build(
            labels, planar_relation_rows(r) + planar_reduced_rows(r) + planar_parity_rows(r, +1)
        )
        assert rank(relation) == rank(reduced) == rank(union) == r


def test_planar_generators_differ_for_odd_parity():
    # recorded drift: with antisymmetric parity rows the symbolic relation rows
    # reach rank r only, while the reduced transcription reaches r + 1
    for r in (3, 5, 7):
        labels = planar_labels(r)
        relation = build(labels, planar_relation_rows(r) + planar_parity_rows(r, -1))
        reduced = build(labels, planar_reduced_rows(r) + planar_parity_rows(r, -1))
        assert rank(relation) == r
        assert rank(reduced) == r + 1


def test_planar_rows_annihilate_known_valuations():
    for r in (3, 5, 7, 9):
        vec = dict(zip(planar_labels(r), degree_one_vector(r)))
        for row in planar_relation_rows(r) + planar_reduced_rows(r) + planar_parity_rows(r, +1):
            assert sum(c * vec[a] for a, c in row.items()) == 0, (r, row)
    nine = valuation_n(standard_simplex(2, 2))
    vec9 = {alpha: nine.coord(alpha) for alpha in planar_labels(9)}
    for row in planar_relation_rows(9) + planar_reduced_rows(9) + planar_parity_rows(9, +1):
        assert sum(c * vec9[a] for a, c in row.items()) == 0


@pytest.mark.parametrize("r", [2, 4, 6, 8])
def test_even_rank_square_relation_forces_zero(r):
    for parity in (+1, -1):
        labels = planar_labels(r)
        rows = [("relation", row) for row in planar_relation_rows(r)]
        rows += [("parity", row) for row in planar_parity_rows(r, parity)]
        rows += [("square", row) for row in planar_square_rows(r)]
        system = ConstraintSystem.build(labels, rows)
        assert kernel_dim(system) == 0


def test_square_rows_trivial_for_odd_rank():
    assert planar_square_rows(3) == []
    assert len(planar_square_rows(4)) == 5


def test_planar_system_validation():
    with pytest.raises(ValueError):
        planar_system(1, +1)
    with pytest.raises(ValueError):
        planar_parity_rows(3, 0)


def test_prism_maps_shape():
    maps = prism_maps(3)
    assert maps[0] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # the map for the second piece sends e1 -> e1 - e3 and e3 -> e1
    m2 = maps[1]
    cols = [tuple(m2[i][j] for i in range(3)) for j in range(3)]
    assert cols[0] == (1, 0, -1)
    assert cols[2] == (1, 0, 0)


def test_prism_rows_annihilate_planar_valuation():
    # in the plane the dissection splits the unit square, so the coordinate
    # vector of the degree-1 expansion coefficient of T_2 is a solution
    for r in (3, 5, 7):
        vec = dict(zip(planar_labels(r), degree_one_vector(r)))
        for alpha in multi_indices(2, r):
            row = prism_relation_row(2, alpha)
            assert sum(c * vec[a] for a, c in row.items()) == 0, (r, alpha)


@pytest.mark.parametrize("n,r", [(3, 2), (3, 3), (4, 3), (4, 4)])
def test_prism_full_rank_at_low_rank(n, r):
    assert kernel_dim(prism_system(n, r, "all")) == 0


@pytest.mark.parametrize("r", [3, 5])
def test_prism_odd_filter_dimension_three(r):
    assert kernel_dim(prism_system(3, r, "en-odd")) == 0


@pytest.mark.parametrize("r", [2, 4])
def test_prism_even_filter_dimension_three(r):
    assert kernel_dim(prism_system(3, r, "en-even")) == 0


def test_prism_symmetry_folding_matches_explicit_rows():
    system, dense = explicit_dense_rows(3, 2, "all")
    explicit_rank = rank_bareiss(dense)
    assert rank(system) == explicit_rank
    assert len(kernel_basis(system)) == system.unknowns - explicit_rank


@pytest.mark.parametrize("n", [3, 4])
def test_folded_rank_matches_explicit_symmetry_rows(n):
    # folding sums the entries of each orbit; the unfolded rows with x_alpha - x_(alpha o sigma) must agree
    for r in range(2, 7):
        for coordinate_filter in PRISM_FILTERS:
            system, dense = explicit_dense_rows(n, r, coordinate_filter)
            assert rank(system) == rank_bareiss(dense), (r, coordinate_filter)


def test_folded_rank_matches_sympy_on_explicit_symmetry_rows():
    sympy = pytest.importorskip("sympy")
    for n, r, coordinate_filter in [(3, 2, "all"), (3, 4, "en-odd"), (3, 5, "en-even"), (4, 3, "all")]:
        system, dense = explicit_dense_rows(n, r, coordinate_filter)
        assert rank(system) == sympy.Matrix(dense).rank(), (n, r, coordinate_filter)


def test_prism_system_validation():
    with pytest.raises(ValueError):
        prism_system(2, 3, "all")
    with pytest.raises(ValueError):
        prism_system(3, 1, "all")
    with pytest.raises(ValueError):
        prism_system(3, 3, "bogus")


def test_expected_survey_ranks():
    assert expected_survey_rank(9) == 8
    assert expected_survey_rank(15) == 13
    assert expected_survey_rank(21) == 18


def test_expected_survey_rank_matches_the_even_assembly_kernels():
    # Molien: the even assembly's kernel has dimension #{(a, b) : 2a + 3b = r}
    for r in range(3, 31):
        assert expected_survey_rank(r) == rank(_planar_assembly(r, +1)), r


def test_in_span():
    basis = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert in_span(basis, [Fraction(2), Fraction(-3)])
    assert in_span([[Fraction(1), Fraction(1)]], [Fraction(2), Fraction(2)])
    assert not in_span([[Fraction(1), Fraction(1)]], [Fraction(1), Fraction(0)])
    assert in_span([], [Fraction(0), Fraction(0)])


# -- integer pull-back rows against one coordinate_row per coordinate ---------------


def reference_prism_relation_row(n, alpha):
    """prism_relation_row with one coordinate_row per map, the former implementation."""
    row = {}
    for matrix in prism_maps(n):
        vectors = []
        for j in range(n):
            vectors.extend([matrix[j]] * alpha[j])
        for beta, c in coordinate_row(vectors, n).items():
            row[beta] = row.get(beta, Fraction(0)) + c
    return {k: v for k, v in row.items() if v != 0}


def reference_planar_rows(r, matrix, sign):
    """Planar relation (sign -1) or square (sign +1) rows, one coordinate_row per row."""
    rows = []
    for a in range(r + 1):
        vectors = [matrix[0]] * a + [matrix[1]] * (r - a)
        row = {(a, r - a): Fraction(1)}
        for alpha, c in coordinate_row(vectors, 2).items():
            row[alpha] = row.get(alpha, Fraction(0)) + sign * c
        if any(v != 0 for v in row.values()):
            rows.append(row)
    return rows


def sorted_pairs(rows):
    """Packed rows in their order, each with its (label, value) pairs sorted: rows keep their build order."""
    return [(tag, tuple(sorted(row))) for tag, row in rows]


def assert_integer_rows(system):
    assert all(type(v) is int for _, row in system.rows for _, v in row)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_prism_system_matches_reference_rows(n, r):
    reference = {alpha: reference_prism_relation_row(n, alpha) for alpha in multi_indices(n, r)}
    for coordinate_filter in PRISM_FILTERS:
        system = prism_system(n, r, coordinate_filter)
        tagged = [
            ("dissection", row)
            for alpha, row in reference.items()
            if row
            and not (coordinate_filter == "en-odd" and alpha[-1] % 2 == 0)
            and not (coordinate_filter == "en-even" and alpha[-1] % 2 == 1)
        ]
        expected = ConstraintSystem.build(multi_indices(n, r), tagged)
        assert system.labels == expected.labels
        # the same packed rows; a prism system yields them in its stream order, not in lex order
        assert sorted(sorted_pairs(system.rows)) == sorted(sorted_pairs(expected.rows))
        assert_integer_rows(system)


def test_prism_relation_row_matches_reference():
    for n in (2, 3, 4):
        for alpha in multi_indices(n, 4) + multi_indices(n, 1) + [(0,) * n]:
            assert prism_relation_row(n, alpha) == reference_prism_relation_row(n, alpha)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_planar_system_matches_reference_rows(r):
    relation = reference_planar_rows(r, PLANAR_MAP, -1)
    assert planar_relation_rows(r) == relation
    assert planar_square_rows(r) == reference_planar_rows(r, ((-1, 0), (0, -1)), +1)
    for parity in (+1, -1):
        system = planar_system(r, parity)
        tagged = [("relation", row) for row in relation]
        tagged += [("reduced", row) for row in planar_reduced_rows(r)]
        tagged += [("parity", row) for row in planar_parity_rows(r, parity)]
        assert sorted_pairs(system.rows) == sorted_pairs(ConstraintSystem.build(planar_labels(r), tagged).rows)
        assert_integer_rows(system)


# -- streamed rank against the eager build -----------------------------------------

# every prism system of n <= 7, r <= 8 with at most 252 unknowns, as the classify benchmark runs them
PRISM_GRID = [
    (n, r, f) for n in range(3, 8) for r in range(2, 9) if comb(n + r - 1, r) <= 252 for f in PRISM_FILTERS
]


def eager_pull_back_sums(terms, alphas):
    """The former _pull_back_sums: every alpha pulled back at once through each map, then summed."""
    rows = {alpha: {} for alpha in alphas}
    for matrix, sign in terms:
        for alpha, row in _pull_back_rows(matrix, alphas):
            for beta, c in row.items():
                rows[alpha][beta] = rows[alpha].get(beta, 0) + sign * c
    return rows


def test_pull_back_sums_in_any_order_match_the_eager_sums():
    rng = random.Random(3)
    for n, r in ((2, 9), (3, 5), (4, 4), (5, 3)):
        alphas = multi_indices(n, r)
        terms = [(matrix, (-1) ** i) for i, matrix in enumerate(prism_maps(n))]
        expected = eager_pull_back_sums(terms, alphas)
        for _ in range(3):
            rng.shuffle(alphas)
            assert list(pull_back_sums(terms, alphas)) == [(alpha, expected[alpha]) for alpha in alphas]


def test_closed_form_prism_rows_match_the_pull_back_in_stream_order():
    for n, r, coordinate_filter in PRISM_GRID:
        system = prism_system(n, r, coordinate_filter)
        kept = system.rows.kept
        pulled = pull_back_sums([(matrix, 1) for matrix in prism_maps(n)], list(kept))
        expected = [classify._pack("dissection", row) for _, row in pulled if any(row.values())]
        assert sorted_pairs(system.rows) == sorted_pairs(expected), (n, r, coordinate_filter)


def test_closed_form_planar_rows_match_the_pull_back():
    for r in range(2, 42):
        rows = planar_relation_rows(r)
        expected = pull_back_planar_rows(r, PLANAR_MAP, -1)
        # the same entries, cancelled zeros included, in the same order of rows
        assert rows == expected, r


def reference_prism_build(n, r, coordinate_filter):
    """The former build and rank: every dissection row pulled back at once, then every folded row eliminated.

    Returns the rows, packed as ConstraintSystem.build packs them, and the rank.
    """
    labels = multi_indices(n, r)
    parities = {"all": (0, 1), "en-odd": (1,), "en-even": (0,)}[coordinate_filter]
    kept = [alpha for alpha in labels if alpha[-1] % 2 in parities]
    pulled = eager_pull_back_sums([(matrix, 1) for matrix in prism_maps(n)], kept)
    rows = [row for row in pulled.values() if any(row.values())]
    reps, rep_of = reference_orbits(labels, alternating_generators(n))
    folded = []
    for row in rows:
        vec = [0] * len(reps)
        for beta, c in row.items():
            vec[reps.index(rep_of[beta])] += c
        folded.append(vec)
    packed = ConstraintSystem.build(labels, [("dissection", row) for row in rows]).rows
    return packed, len(labels) - len(reps) + rank_bareiss(folded)


def test_streamed_prism_rank_matches_eager_build():
    rng = random.Random(12)
    short = []
    for n, r, coordinate_filter in PRISM_GRID:
        rows, expected = reference_prism_build(n, r, coordinate_filter)
        system = prism_system(n, r, coordinate_filter)
        assert rank(system) == expected, (n, r, coordinate_filter)
        assert sorted(sorted_pairs(system.rows)) == sorted(sorted_pairs(rows)), (n, r, coordinate_filter)
        # the same rows stored and fed in a seeded shuffled order
        tagged = [(tag, dict(row)) for tag, row in system.rows]
        rng.shuffle(tagged)
        shuffled = ConstraintSystem.build(system.labels, tagged)
        assert rank(shuffled) == expected, (n, r, coordinate_filter)
        assert kernel_basis(system) == kernel_basis(shuffled), (n, r, coordinate_filter)
        if expected < system.unknowns:
            short.append((n, r, coordinate_filter))
    # the one grid system whose stream runs out before its folded rows reach full width
    assert short == [(3, 4, "en-odd")]


def test_prism_systems_compare_by_value_through_their_rows():
    a, b = prism_system(3, 4), prism_system(3, 4)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert list(a.rows) == list(b.rows)
    assert a != prism_system(3, 4, "en-odd")


def test_full_rank_prism_stops_after_few_rows(monkeypatch):
    built = []

    closed_form = classify._dissection_row

    def counting(alpha):
        built.append(alpha)
        return closed_form(alpha)

    monkeypatch.setattr(classify, "_dissection_row", counting)
    system = prism_system(7, 8, "all")
    assert rank(system) == system.unknowns == 3003
    # 21 orbit columns, filled by the 27th row read; no row after it is built
    assert 21 <= len(built) <= 27


def test_prism_rows_iterate_again_for_rank_then_kernel():
    # the one grid system with a non-zero kernel: rank and the kernel each read every row
    system = prism_system(3, 4, "en-odd")
    first = list(system.rows)
    assert list(system.rows) == first
    found = rank(system)
    basis = kernel_basis(system)
    assert basis and found + len(basis) == system.unknowns
    assert list(system.rows) == first
    stored = ConstraintSystem.build(system.labels, [(tag, dict(row)) for tag, row in first])
    assert rank(stored) == rank(system) and kernel_basis(stored) == kernel_basis(system)


# -- closed-form orbits against the breadth-first search ---------------------------


def test_orbits_match_reference_on_prism_grid():
    for n, r, coordinate_filter in PRISM_GRID:
        system = prism_system(n, r, coordinate_filter)
        assert system.orbits() == reference_orbits(system.labels, alternating_generators(n)), (n, r, coordinate_filter)


@pytest.mark.parametrize("n", range(2, 10))
def test_orbits_match_reference_on_multi_indices(n):
    for r in range(9 if n < 8 else 7):
        labels = multi_indices(n, r)
        system = ConstraintSystem.build(labels, [])
        assert system.orbits() == reference_orbits(system.labels, alternating_generators(n)), (n, r)


@given(st.integers(0, 6).flatmap(lambda n: st.lists(st.tuples(*[st.integers(-2, 4)] * n), max_size=12)))
def test_orbits_match_reference_on_random_labels(labels):
    system = ConstraintSystem.build(labels, [])
    n = len(labels[0]) if labels else 0
    reps, rep_of = system.orbits()
    expected_reps, expected_rep_of = reference_orbits(system.labels, alternating_generators(n))
    assert reps == expected_reps
    # the search also maps orbit members that are not labels
    assert rep_of == {label: expected_rep_of[label] for label in system.labels}
