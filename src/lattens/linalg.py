"""Exact linear algebra: one fraction-free elimination kernel, and integer kernels.

The elimination kernel serves rref, rank_bareiss, det, invert_matrix,
kernel_basis and rational_row_space_equations.  It takes rows of int or
Fraction entries and scales each row by the lcm of its denominators, which
keeps the row space, the rank and the reduced row echelon form.  It then
runs Bareiss's fraction-free elimination (Bareiss 1968, Math. Comp. 22):
every entry is a minor of the scaled matrix, every division is an exact
integer division, and the forward pass stops once no rows remain below the
pivots.  det takes square integer matrices only (int entries, or Fractions
with denominator 1).  integer_kernel, the one integer lattice reduction,
does not use the elimination kernel: it runs unimodular row operations and
returns the row Hermite normal form of an integer kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _echelon(rows, ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free forward pass: (echelon rows, pivot columns, swap sign).

    Row k of the result has its pivot at column pivots[k]; that pivot is the
    determinant of the leading (k+1) x (k+1) pivot minor of the row-permuted
    integer matrix, so for a non-singular square matrix the last pivot times
    the swap sign is the determinant.  Rows that are or become zero are dropped.
    """
    m = []
    for row in rows:
        scale = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (scale // x.denominator) for x in row]
        if any(ints):
            m.append(ints)
    pivots: list[int] = []
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


def _reduced(rows, ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Forward pass plus back-substitution: (D, pivots, d) with RREF = D / d.

    d is the last Bareiss pivot, the determinant of the pivot minor, so
    d times the reduced row echelon form is an integer matrix (Cramer).
    """
    ech, pivots, _ = _echelon(rows, ncols)
    if not pivots:
        return [], [], 1
    d = ech[-1][pivots[-1]]
    red = ech[:]
    for i in range(len(pivots) - 2, -1, -1):
        row = [d * x for x in ech[i]]
        for j in range(i + 1, len(pivots)):
            f = ech[i][pivots[j]]
            if f:
                row = [x - f * y for x, y in zip(row, red[j])]
        di = ech[i][pivots[i]]
        red[i] = [x // di for x in row]
    return red, pivots, d


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (non-zero rows, pivot column list)."""
    red, pivots, d = _reduced(rows, len(rows[0]) if rows else 0)
    return [[Fraction(x, d) for x in row] for row in red], pivots


def rank_bareiss(rows) -> int:
    """Exact rank of a matrix with int or Fraction entries."""
    return len(_echelon(rows, len(rows[0]) if rows else 0)[1])


def det(matrix) -> int:
    """Exact determinant of a square integer matrix."""
    n = len(matrix)
    if any(x.denominator != 1 for row in matrix for x in row):
        raise ValueError("det takes integer matrices")
    ech, pivots, sign = _echelon(matrix, n)
    if len(pivots) < n:
        return 0
    return sign * ech[-1][-1] if n else 1


def _scaled_kernel(rows, ncols: int) -> tuple[list[list[int]], int]:
    """(K, d): d times the canonical kernel basis, one integer row per free column."""
    red, pivots, d = _reduced(rows, ncols)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[free] = d
        for row, p in zip(red, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis, d


def kernel_basis(rows, ncols: int) -> list[list[Fraction]]:
    """Canonical basis of the rational kernel {x : rows . x = 0}.

    One basis vector per free column, with value 1 there and the pivot
    entries read off the reduced row echelon form.
    """
    basis, d = _scaled_kernel(rows, ncols)
    return [[Fraction(x, d) for x in vec] for vec in basis]


def invert_matrix(m) -> list[list[Fraction]]:
    """Exact inverse of a square matrix with int or Fraction entries."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    red, pivots, d = _reduced(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(x, d) for x in row[n:]] for row in red]


def integer_kernel(rows, ncols: int) -> list[list[int]]:
    """Row Hermite normal form of the saturated lattice {z in Z^ncols : rows . z = 0}.

    The rows of [rows^T | I] span the lattice of (rows . z, z) for integer z.
    A Euclid sweep over its columns brings them to echelon form by unimodular
    row operations; the echelon rows that vanish on the rows^T block span the
    kernel.  Reducing the entries above each of their pivots into
    [0, pivot) gives the unique row Hermite normal form (Cohen, A Course in
    Computational Algebraic Number Theory, section 2.4): echelon, pivots
    positive, pivot columns increasing.
    """
    nrows = len(rows)
    work = [[row[v] for row in rows] + [int(i == v) for i in range(ncols)] for v in range(ncols)]
    basis: list[list[int]] = []
    col = 0
    # the work rows are independent, so each one ends as the pivot of a column
    while work:
        live = [r for r in work if r[col]]
        work = [r for r in work if not r[col]]
        # Euclid on the column: reduce by the row with the smallest entry
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            reduced = [[a - (r[col] // pivot[col]) * b for a, b in zip(r, pivot)] for r in live[1:]]
            live = [pivot] + [r for r in reduced if r[col]]
            work += [r for r in reduced if not r[col]]
        if live and col >= nrows:
            row = live[0][nrows:] if live[0][col] > 0 else [-a for a in live[0][nrows:]]
            c = col - nrows
            # later pivots lie to the right, so they leave reduced entries alone
            basis = [[a - (r[c] // row[c]) * b for a, b in zip(r, row)] for r in basis] + [row]
        col += 1
    return basis


def rational_row_space_equations(rows, ncols: int) -> list[list[int]]:
    """Integer equations cutting out the rational span of the given rows.

    Returns a basis (as primitive integer rows) of {c : rows . c = 0}, the
    canonical kernel basis scaled to the same rays; the span of the input
    rows equals {x : c . x = 0 for all returned c}.
    """
    basis, d = _scaled_kernel(rows, ncols)
    out = []
    for vec in basis:
        g = gcd(*vec) if d > 0 else -gcd(*vec)
        out.append([x // g for x in vec])
    return out
