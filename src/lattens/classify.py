"""Exact linear constraint systems on the tensor coordinates of standard simplices.

Two families of systems are built here.  The planar family constrains the
r+1 coordinates x_j = Z(T_2)(e_1[j], e_2[r-j]) of a translation-invariant
equivariant valuation on the plane, using the order-three lattice symmetry
of T_2 together with coordinate-swap parity.  The prism family constrains
the coordinates of Z(T_n) through the dissection of the prism over T_{n-1}
into n unimodular simplices.  Ranks and kernels are computed exactly over
the rationals.

Permutation matrices fix T_n; the even ones have determinant +1 and lie in
SL_n(Z), the odd ones have determinant -1.  So the coordinates of an
SL_n(Z)-equivariant Z(T_n) agree on every A_n-orbit of positions, and rank
and kernel fold every system onto these orbit columns.  For n = 2, A_2 is
trivial and nothing folds.

Rank folds each row, which a prism system builds as it is read, onto the
orbit columns and into an echelon form, and reads no more once the pivots
fill the orbit columns: no set of rows has higher rank than the system, so
this proves a zero kernel exactly.  Kernels read every row.

Rows are built in closed form.  The order-three symmetry sends e_1 to -e_2
and e_2 to e_1 - e_2.  Prism map 1 is the identity; map i >= 2 sends e_k to
e_k - e_n for i-1 <= k <= n-1 and e_n to e_(i-1), fixing the earlier basis
vectors, so it pulls z^alpha back to (-1)^(alpha_n) (z_(i-1) + z_n)^(alpha_(i-1))
(z_(i-1) + ... + z_(n-1))^(alpha_n) times z_k^(alpha_k) for every other k < n.
Every coefficient is thus a binomial one, or a binomial times a multinomial.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add

from .linalg import _echelon, kernel_basis as _rational_kernel
from .tensor import MultiIndex, _multinomials, multi_indices

Row = dict[MultiIndex, int]
PackedRow = tuple[str, tuple[tuple[MultiIndex, int], ...]]

@dataclass(frozen=True)
class ConstraintSystem:
    """Sparse exact linear system over the labelled tensor coordinates of Z(T_n).

    Rows carry a provenance tag and their non-zero (label, value) pairs in
    build order; ``rows`` is any re-iterable of them.  The coordinates agree
    on every A_n-orbit of positions, x_alpha = x_{alpha o sigma} for even
    sigma, because even permutation matrices lie in SL_n(Z) and fix T_n;
    rank and kernel computations fold the system onto these orbits.
    """

    labels: tuple[MultiIndex, ...]
    rows: Iterable[PackedRow]

    @staticmethod
    def build(labels, tagged_rows) -> ConstraintSystem:
        return ConstraintSystem(tuple(map(tuple, labels)), tuple(_pack(tag, row) for tag, row in tagged_rows))

    @property
    def unknowns(self) -> int:
        return len(self.labels)

    def orbits(self) -> tuple[list[MultiIndex], dict[MultiIndex, MultiIndex]]:
        """Orbit representatives, in order of first appearance, and the label-to-representative map."""
        rep_of = {label: _orbit_rep(label) for label in self.labels}
        return list(dict.fromkeys(rep_of.values())), rep_of


def _orbit_rep(label: MultiIndex) -> MultiIndex:
    """The least element of the A_n-orbit of label.

    That is the sorted tuple, unless the entries are pairwise distinct and
    label is an odd arrangement of them: its orbit then holds the odd
    arrangements only, and the least of those swaps the last two entries.
    """
    rep = sorted(label)
    if len(set(label)) == len(label) and sum(a > b for i, a in enumerate(label) for b in label[i + 1 :]) % 2:
        rep[-2], rep[-1] = rep[-1], rep[-2]
    return tuple(rep)


def _pack(tag: str, row: Row) -> PackedRow:
    return tag, tuple((tuple(a), v) for a, v in row.items() if v != 0)


def _fold(system: ConstraintSystem):
    """(orbit count, orbit column of each label, the rows summed onto the orbit columns as read, zero sums dropped)."""
    reps, rep_of = system.orbits()
    pos = {rep: i for i, rep in enumerate(reps)}
    column = {label: pos[rep_of[label]] for label in system.labels}

    def fold(pairs):
        vec = [0] * len(reps)
        for label, value in pairs:
            vec[column[label]] += value
        return vec

    return len(reps), column, (vec for vec in (fold(row) for _, row in system.rows) if any(vec))


def rank(system: ConstraintSystem) -> int:
    """Exact rank, symmetry rows included: each folded row enters the echelon form as it is read,
    and no row is read once the pivots fill the orbit columns."""
    width, _, stream = _fold(system)
    return system.unknowns - width + len(_echelon(stream, width)[1])


def kernel_basis(system: ConstraintSystem) -> list[list[Fraction]]:
    """Canonical rational basis of the solution space, ordered like the labels."""
    width, column, stream = _fold(system)
    return [[vec[column[label]] for label in system.labels] for vec in _rational_kernel(list(stream), width)]


def kernel_dim(system: ConstraintSystem) -> int:
    return system.unknowns - rank(system)


# -- planar systems ---------------------------------------------------------------


def planar_labels(r: int) -> list[MultiIndex]:
    return [(j, r - j) for j in range(r + 1)]


def planar_relation_rows(r: int) -> list[Row]:
    """Constraints from precomposing with the order-three symmetry of T_2.

    The coordinate at (a, b), b = r - a, must equal the multilinear
    expansion of the same tensor at the transformed basis vectors: the symmetry
    pulls z^(a, b) back to z_1^a (-z_0 - z_1)^b, so the row holds
    [j = a] - (-1)^b C(b, j) at (j, r - j) for j <= b, and (a, b) with its
    sum, zero or not.  All-zero rows are dropped.
    """
    rows = [{(j, r - j): (j == a) - (-1) ** b * comb(b, j) for j in {*range(b + 1), a}} for a, b in planar_labels(r)]
    return [row for row in rows if any(row.values())]


def planar_reduced_rows(r: int) -> list[Row]:
    """Fixture transcription of the reduced planar equations.

    For s odd:   x_0 + C(s,1) x_1 + ... + C(s,s-1) x_{s-1} + 2 x_s = 0
    For s even:  x_0 + C(s,1) x_1 + ... + C(s,s-1) x_{s-1} = 0
    """
    rows = []
    for s in range(1, r + 1):
        row: Row = {(i, r - i): comb(s, i) for i in range(s)}
        if s % 2 == 1:
            row[(s, r - s)] = 2
        rows.append(row)
    return rows


def planar_parity_rows(r: int, parity: int) -> list[Row]:
    """Coordinate-swap symmetry x_j = parity * x_{r-j}."""
    if parity not in (1, -1):
        raise ValueError("parity must be +1 or -1")
    rows = []
    for j in range(r + 1):
        row: Row = {(j, r - j): 1}
        key = (r - j, j)
        row[key] = row.get(key, 0) - parity
        if any(v != 0 for v in row.values()):
            rows.append(row)
    return rows


def planar_system(r: int, parity: int) -> ConstraintSystem:
    """Planar constraint system on the r+1 coordinates of a T_2 tensor value.

    Ships the union of the symbolically generated symmetry relations and
    the reduced fixture transcription; for parity +1 the two generators are
    row-equivalent, for parity -1 the fixture is strictly stronger (see
    tests for the recorded ranks of each generator alone).
    """
    if r < 2:
        raise ValueError("planar systems need rank at least 2")
    return _planar_assembly(r, parity)


def _planar_assembly(r: int, parity: int | None) -> ConstraintSystem:
    """Relation and reduced rows, with the parity rows unless parity is None."""
    tagged = [("relation", row) for row in planar_relation_rows(r)]
    tagged += [("reduced", row) for row in planar_reduced_rows(r)]
    if parity is not None:
        tagged += [("parity", row) for row in planar_parity_rows(r, parity)]
    return ConstraintSystem.build(planar_labels(r), tagged)


# -- prism systems ------------------------------------------------------------------


PRISM_FILTERS = ("all", "en-odd", "en-even")


def _dissection_row(alpha: MultiIndex) -> Row:
    """The sum over the prism maps of the pull-back of z^alpha, in closed form (see the module docstring).

    For map i, alpha[s] with s = i - 2 is alpha_(i-1): g counts the factors z_(i-1) + z_n of its power
    that take z_n, and mu spreads alpha_n over z_(i-1)..z_(n-1).
    """
    n, last = len(alpha), alpha[-1]
    sign = (-1) ** last
    row: Row = {alpha: 1}
    for s in range(n - 1):
        head, rest = alpha[:s], alpha[s + 1 : n - 1]
        binomials = [(g, sign * comb(alpha[s], g)) for g in range(alpha[s] + 1)]
        for mu, m in _multinomials(n - 1 - s, last)[0].items():
            top, tail = alpha[s] + mu[0], tuple(map(add, rest, mu[1:]))
            for g, c in binomials:
                key = (*head, top - g, *tail, g)
                row[key] = row.get(key, 0) + c * m
    return row


@dataclass(frozen=True)
class _DissectionRows:
    """The packed non-zero dissection rows, one per kept coordinate in order, built on each iteration."""

    kept: tuple[MultiIndex, ...]

    def __iter__(self):
        for alpha in self.kept:
            if (packed := _pack("dissection", _dissection_row(alpha)))[1]:
                yield packed


def prism_system(n: int, r: int, coordinate_filter: str = "all") -> ConstraintSystem:
    """Dissection constraints on the C(n+r-1, r) coordinates of a T_n tensor value.

    The filter selects which coordinates contribute a dissection row based
    on the parity of the final exponent; rank and kernel fold the rows onto
    the A_n-orbit columns, like those of every system.
    """
    if n < 3:
        raise ValueError("prism systems are built for dimension at least 3")
    if r < 2:
        raise ValueError("prism systems need rank at least 2")
    if coordinate_filter not in PRISM_FILTERS:
        raise ValueError(f"filter must be one of {PRISM_FILTERS}")
    labels = multi_indices(n, r)
    parities = {"all": (0, 1), "en-odd": (1,), "en-even": (0,)}[coordinate_filter]
    # in the order (-alpha_n, alpha) the rows reach full rank early: at (8, 8), 28 rows against 3,004 in lex order
    kept = sorted((alpha for alpha in labels if alpha[-1] % 2 in parities), key=lambda alpha: (-alpha[-1], alpha))
    return ConstraintSystem(tuple(labels), _DissectionRows(tuple(kept)))


# -- high-rank survey -----------------------------------------------------------------


def _planar_assemblies(r: int) -> dict[str, ConstraintSystem]:
    parities = {"even": 1, "odd": -1, "relation-only": None}
    return {name: _planar_assembly(r, parity) for name, parity in parities.items()}


def expected_survey_rank(r: int) -> int:
    """The even assembly's rank, r + 1 - #{(a, b) in N^2 : 2a + 3b = r}: its kernel dimension is the
    t^r coefficient of Molien's series 1/((1 - t^2)(1 - t^3)) for the order-six symmetry group of T_2."""
    return r + 1 - sum((r - 3 * b) % 2 == 0 for b in range(r // 3 + 1))


def in_span(vectors: list[list[Fraction]], target: list[Fraction]) -> bool:
    """Whether target lies in the rational span of the given vectors, that is, one elimination drops its row."""
    return len(vectors) not in _echelon([*vectors, target], len(target))[2]


def high_rank_survey(r_list) -> list[dict]:
    """Ranks of the planar assemblies for odd ranks of nine and above.

    Reports each plausible assembly (per parity, and "relation-only": the
    relation and reduced rows without parity rows) and flags the ones
    matching the expected rank; at rank nine the kernel of the even assembly
    is checked to contain the degree-1 expansion coefficient of T_2 and the
    rank-9 triangulation valuation of T_2 as independent vectors.
    """
    out = []
    for r in r_list:
        if r < 9 or r % 2 == 0:
            raise ValueError("survey expects odd ranks of at least nine")
        systems = _planar_assemblies(r)
        expected = expected_survey_rank(r)
        entry: dict = {"r": r, "unknowns": r + 1, "expected_rank": expected, "assemblies": {}}
        for name, system in systems.items():
            rk = rank(system)
            entry["assemblies"][name] = {
                "rank": rk,
                "kernel_dim": system.unknowns - rk,
                "matches_expected": rk == expected,
            }
        if r == 9:
            entry["rank9_kernel"] = _rank9_kernel_report(systems["even"])
        out.append(entry)
    return out


def _rank9_kernel_report(system: ConstraintSystem) -> dict:
    from .ehrhart import ehrhart_tensors
    from .polytope import standard_simplex
    from .tri2d import valuation_n

    t2 = standard_simplex(2, 2)
    basis = kernel_basis(system)
    lead = ehrhart_tensors(t2, 9).coefficient(1)
    nine = valuation_n(t2)
    lead_vec = [lead.coord(alpha) for alpha in system.labels]
    nine_vec = [nine.coord(alpha) for alpha in system.labels]
    independent = len(_echelon([lead_vec, nine_vec], len(lead_vec))[1]) == 2
    return {
        "kernel_dim": len(basis),
        "contains_degree_one_coefficient": in_span(basis, lead_vec),
        "contains_triangulation_valuation": in_span(basis, nine_vec),
        "vectors_independent": independent,
    }
