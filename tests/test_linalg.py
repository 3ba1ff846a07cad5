"""The fraction-free elimination kernel against three independent oracles.

The reference is a plain Fraction Gauss-Jordan elimination, kept here as a
test-only implementation; sympy's exact matrices are a second, optional
oracle.  The row-at-a-time kernel is also checked against the former
column-at-a-time Bareiss pass, kept here as reference_echelon.  The integer kernel is checked against a second unimodular
reduction, also kept here, that returns a kernel lattice basis in no
normal form.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattens.linalg import (
    _echelon,
    _reduced,
    det,
    integer_kernel,
    invert_matrix,
    kernel_basis,
    rank_bareiss,
    rational_row_space_equations,
    rref,
)


def reference_rref(rows):
    """Reduced row echelon form over Q by Fraction Gauss-Jordan elimination."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def reference_echelon(rows, ncols):
    """The former forward pass, one column at a time: (echelon rows, pivot columns, swap sign).

    Row k has its pivot at column pivots[k], increasing, and the pivot is the
    leading (k+1) x (k+1) minor of the row-permuted integer matrix.
    """
    m = []
    for row in rows:
        scale = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (scale // x.denominator) for x in row]
        if any(ints):
            m.append(ints)
    pivots = []
    sign = 1
    prev = 1
    for c in range(ncols):
        k = len(pivots)
        if k == len(m):
            break
        piv = next((i for i in range(k, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top = m[k]
        p = top[c]
        rest = []
        for row in m[k + 1 :]:
            f = row[c]
            if f:
                row = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                row = [p * x // prev for x in row]
            if any(row):
                rest.append(row)
        m[k + 1 :] = rest
        prev = p
        pivots.append(c)
    return m[: len(pivots)], pivots, sign


def reference_det(matrix):
    """Laplace expansion along the first row."""
    if not matrix:
        return 1
    return sum(
        (-1) ** j * matrix[0][j] * reference_det([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j in range(len(matrix))
        if matrix[0][j]
    )


def reference_integer_kernel(rows, ncols):
    """A basis, in no normal form, of the lattice {z in Z^ncols : rows . z = 0}.

    Unimodular row reduction of the transpose augmented with the identity;
    the identity rows paired with zero rows of the reduced transpose span
    the kernel lattice.
    """
    nrows = len(rows)
    work = [[rows[i][v] for i in range(nrows)] + [int(i == v) for i in range(ncols)] for v in range(ncols)]
    row = 0
    for col in range(nrows):
        while True:
            nonzero = [i for i in range(row, ncols) if work[i][col] != 0]
            if not nonzero:
                break
            piv = min(nonzero, key=lambda i: abs(work[i][col]))
            work[row], work[piv] = work[piv], work[row]
            done = True
            for i in range(row + 1, ncols):
                if work[i][col] != 0:
                    q = work[i][col] // work[row][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[row])]
                    if work[i][col] != 0:
                        done = False
            if done:
                row += 1
                break
    return [work[i][nrows:] for i in range(row, ncols) if not any(work[i][:nrows])]


def coordinates(basis, vec):
    """The rational c with sum_i c_i basis_i = vec, or None off their span."""
    k = len(basis)
    red, pivots = reference_rref([[b[j] for b in basis] + [vec[j]] for j in range(len(vec))])
    if k in pivots:
        return None
    c = [Fraction(0)] * k
    for row, p in zip(red, pivots):
        c[p] = row[k]
    return c


entries = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@st.composite
def matrices(draw, square=False):
    """Matrices of mixed int and Fraction entries: tall, wide or square,
    with zero rows and columns and dependent rows."""
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if ncols and draw(st.booleans()):
        zero = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[zero] = 0
    if nrows >= 2 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        scale = Fraction(draw(entries))
        rows[k] = [a + scale * b for a, b in zip(rows[i], rows[j])]
    return rows, ncols


def integer_matrix(rows):
    """The rows times the lcm of their denominators.

    A drawn entry has a denominator of at most 7, but a dependent row sums
    products of two entries, whose denominators can reach 49.
    """
    d = lcm(*(Fraction(x).denominator for row in rows for x in row))
    return [[int(x * d) for x in row] for row in rows]


@st.composite
def late_pivots(draw):
    """Echelon rows in reverse: each row's leading column lies left of the rows before it,
    followed by combinations of them."""
    ncols = draw(st.integers(1, 6))
    leads = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=1)), reverse=True)
    rows = []
    for c in leads:
        lead = draw(st.one_of(st.integers(1, 6), st.integers(-6, -1), st.fractions(1, 5, max_denominator=7)))
        rows.append([0] * c + [lead] + [draw(entries) for _ in range(ncols - c - 1)])
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return rows, ncols, leads


def assert_echelon_matches_reference(rows, ncols):
    ech, pivots, kept = _echelon(rows, ncols)
    ref, ref_pivots, sign = reference_echelon(rows, ncols)
    assert sorted(pivots) == ref_pivots
    assert len(ech) == len(ref)
    # the kept rows are the greedy basis: each row raises the rank of the rows before it iff it is kept
    ranks = [len(reference_rref(rows[: k + 1])[1]) for k in range(len(rows))]
    greedy = [k for k, r in enumerate(ranks) if r > (ranks[k - 1] if k else 0)]
    assert kept == greedy
    red, red_pivots, d = _reduced(rows, ncols)
    assert red_pivots == ref_pivots
    assert [[Fraction(x, d) for x in row] for row in red] == reference_rref(rows)[0]
    if len(rows) == ncols > 0:
        ints = integer_matrix(rows)
        full = reference_echelon(ints, ncols)
        assert det(ints) == (full[2] * full[0][-1][-1] if len(full[1]) == ncols else 0)
    return pivots


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(), matrices(square=True)))
def test_echelon_matches_column_reference(case):
    assert_echelon_matches_reference(*case)


@settings(max_examples=150, deadline=None)
@given(late_pivots())
def test_echelon_matches_column_reference_on_late_pivots(case):
    rows, ncols, leads = case
    pivots = assert_echelon_matches_reference(rows, ncols)
    # each row's leading column survives the steps of the rows before it
    assert pivots == leads


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_echelon_reads_no_row_after_the_columns_fill(case):
    rows, ncols = case
    read = []

    def stream():
        for row in rows:
            read.append(row)
            yield row

    full = next((k for k in range(1, len(rows) + 1) if len(reference_rref(rows[:k])[1]) == ncols), None)
    _echelon(stream(), ncols)
    assert len(read) == (len(rows) if full is None else full)


def test_echelon_stops_on_an_endless_stream():
    def stream():
        yield [0, 2, 1]
        yield [0, 4, 2]
        yield [3, 0, 0]
        yield [1, 1, 1]
        raise AssertionError("read a row after the pivots filled the columns")

    ech, pivots, kept = _echelon(stream(), 3)
    assert pivots == [1, 0, 2]
    assert kept == [0, 2, 3]
    # the last pivot is the determinant of rows 0, 2, 3 with the columns taken in pivot order
    assert ech[-1][2] == reference_det([[2, 0, 1], [0, 3, 0], [1, 1, 1]])


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_reference(case):
    rows, _ = case
    assert rref(rows) == reference_rref(rows)
    assert rref(integer_matrix(rows)) == reference_rref(integer_matrix(rows))


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_matches_reference(case):
    rows, _ = case
    assert rank_bareiss(rows) == len(reference_rref(rows)[1])
    assert rank_bareiss(integer_matrix(rows)) == len(reference_rref(rows)[1])


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_basis_matches_reference(case):
    rows, ncols = case
    red, pivots = reference_rref(rows)
    basis = kernel_basis(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    assert len(basis) == len(free)
    for vec, f in zip(basis, free):
        assert vec[f] == 1 and all(vec[g] == 0 for g in free if g != f)
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
        assert [vec[p] for p in pivots] == [-row[f] for row in red]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_row_space_equations_are_primitive_kernel_rays(case):
    rows, ncols = case
    equations = rational_row_space_equations(rows, ncols)
    for eq, vec in zip(equations, kernel_basis(rows, ncols), strict=True):
        scale = next(Fraction(e) / v for e, v in zip(eq, vec) if v)
        assert scale > 0 and [scale * v for v in vec] == eq
        assert all(isinstance(e, int) for e in eq) and gcd(*eq) == 1


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
def test_det_matches_laplace_expansion(case):
    rows, _ = case
    ints = integer_matrix(rows)
    assert det(ints) == reference_det(ints)


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
def test_invert_matrix_matches_reference(case):
    rows, n = case
    augmented = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    red, pivots = reference_rref(augmented)
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError):
            invert_matrix(rows)
        return
    inv = invert_matrix(rows)
    assert inv == [row[n:] for row in red]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_integer_kernel_is_hermite_normal_form_of_reference_lattice(case):
    rows, ncols = case
    rows = integer_matrix(rows)
    basis = integer_kernel(rows, ncols)
    assert all(isinstance(x, int) for vec in basis for x in vec)
    assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows for vec in basis)
    assert len(basis) == ncols - rank_bareiss(rows)
    # echelon with positive pivots, and each pivot's column reduced into [0, pivot) above it
    pivots = [next(j for j, x in enumerate(vec) if x) for vec in basis]
    assert pivots == sorted(set(pivots))
    for i, (vec, p) in enumerate(zip(basis, pivots)):
        assert vec[p] > 0
        assert all(0 <= above[p] < vec[p] for above in basis[:i])
    # the same lattice: each basis has integer coordinates in the other
    reference = reference_integer_kernel(rows, ncols)
    for one, other in ((basis, reference), (reference, basis)):
        for vec in one:
            c = coordinates(other, vec)
            assert c is not None and all(x.denominator == 1 for x in c)


def test_small_cases():
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([], [])
    assert rank_bareiss([]) == 0
    assert rank_bareiss([(0, 0, 0)]) == 0
    assert kernel_basis([], 2) == [[1, 0], [0, 1]]
    assert integer_kernel([], 2) == [[1, 0], [0, 1]]
    assert integer_kernel([[2, 4]], 2) == [[2, -1]]
    # (1, -1, 0) and (0, 1, -1) span this lattice; the normal form reduces the first
    assert integer_kernel([[1, 1, 1]], 3) == [[1, 0, -1], [0, 1, -1]]
    assert integer_kernel([[1, 0], [0, 1]], 2) == []
    assert rational_row_space_equations([[2, 4]], 2) == [[-2, 1]]
    assert rational_row_space_equations([[-2, 4]], 2) == [[2, 1]]
    assert det([]) == 1
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[2, 4], [1, 2]]) == 0
    assert invert_matrix([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    with pytest.raises(ValueError):
        invert_matrix([[1, 2], [2, 4]])


def test_det_refuses_non_integer_entries():
    assert det([[Fraction(2), 0], [0, Fraction(3)]]) == 6
    with pytest.raises(ValueError):
        det([[Fraction(1, 2), 0], [0, 1]])


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_agrees_with_sympy(sympy, case):
    rows, ncols = case
    matrix = sympy.Matrix(len(rows), ncols, lambda i, j: sympy.Rational(str(rows[i][j])))
    reduced, pivots = matrix.rref()
    assert rank_bareiss(rows) == matrix.rank()
    red, mine = rref(rows)
    assert list(pivots) == mine
    assert [[sympy.Rational(str(x)) for x in row] for row in red] == [
        list(reduced.row(i)) for i in range(len(mine))
    ]
    assert len(kernel_basis(rows, ncols)) == len(matrix.nullspace())
    if len(rows) == ncols and ncols:
        ints = integer_matrix(rows)
        assert det(ints) == sympy.Matrix(ints).det()
        if matrix.rank() == ncols:
            inv = matrix.inv()
            assert invert_matrix(rows) == [[Fraction(str(inv[i, j])) for j in range(ncols)] for i in range(ncols)]
