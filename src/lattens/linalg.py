"""Exact linear algebra: one fraction-free elimination kernel, and integer kernels.

The elimination kernel serves rref, rank_bareiss, det, invert_matrix,
kernel_basis and rational_row_space_equations.  It takes rows of int or
Fraction entries and scales each row by the lcm of its denominators, which
keeps the row space, the rank and the reduced row echelon form.  It then
runs Bareiss's fraction-free elimination (Bareiss 1968, Math. Comp. 22):
every entry is a minor of the scaled matrix, every division is an exact
integer division, and the forward pass stops once no rows remain below the
pivots.  det takes square integer matrices only (int entries, or Fractions
with denominator 1).  integer_kernel is unimodular lattice reduction and
does not use the elimination kernel.
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


def integer_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the saturated lattice {z in Z^ncols : rows . z = 0}.

    Runs unimodular row reduction on the transpose augmented with the
    identity; the identity rows paired with zero rows of the reduced
    transpose form a lattice basis of the kernel.
    """
    nrows = len(rows)
    # work matrix: columns of the input become rows; augment with identity
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

    basis = []
    for i in range(row, ncols):
        if all(work[i][c] == 0 for c in range(nrows)):
            basis.append(work[i][nrows:])
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
