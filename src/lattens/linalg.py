"""Exact linear algebra: one fraction-free elimination kernel, and integer kernels.

The elimination kernel serves rref, rank_bareiss, det, invert_matrix,
kernel_basis, rational_row_space_equations, classify.rank and the hull in
polytope.  It reads rows of int or Fraction entries from any iterable, scales
each by the lcm of its denominators, and runs Bareiss's fraction-free
elimination (Bareiss 1968, Math. Comp. 22) one row at a time: every entry is a
minor of the scaled matrix, every division is exact, and no row is read once
the pivots fill the columns.  det takes square integer matrices only (int
entries, or Fractions with denominator 1).  integer_kernel, the one integer
lattice reduction, does not use the elimination kernel: it runs unimodular row
operations and returns the row Hermite normal form of an integer kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _echelon(rows, ncols: int) -> tuple[list[list[int]], list[int], list[int]]:
    """Fraction-free elimination, one row at a time: (echelon rows, pivot columns, their input row indices).

    Each row read takes the Bareiss step of every pivot row before it; its
    pivot is then its first non-zero column, and a zero row is dropped.  The
    pivot of row k is the minor on rows 0..k and columns pivots[0..k].
    """
    ech, pivots, kept = [], [], []
    for i, row in enumerate(rows):
        scale = lcm(*[x.denominator for x in row])
        new = [x.numerator * (scale // x.denominator) for x in row]
        prev = 1
        for top, c in zip(ech, pivots):
            p, f = top[c], new[c]
            if f:
                new = [(p * x - f * y) // prev for x, y in zip(new, top)]
                if not any(new):
                    break
            elif p != prev:
                new = [p * x // prev for x in new]
            prev = p
        c = next((j for j, x in enumerate(new) if x), None)
        if c is not None:
            ech.append(new)
            pivots.append(c)
            kept.append(i)
            if len(pivots) == ncols:
                break
    return ech, pivots, kept


def _reduced(rows, ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Forward pass plus back-substitution: (D, pivots, d) with RREF = D / d.

    d is the last Bareiss pivot, the determinant of the pivot minor, so
    d times the reduced row echelon form is an integer matrix (Cramer); rows sorted by pivot.
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
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [red[i] for i in order], [pivots[i] for i in order], d


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
    ech, pivots, _ = _echelon(matrix, n)
    if len(pivots) < n:
        return 0
    # the last pivot is the determinant with the columns in pivot order
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1 :])
    return (-1) ** inversions * ech[-1][pivots[-1]] if n else 1


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
