"""Discrete moment tensors, Ehrhart tensor expansions, and exact identity checkers.

The rank-r discrete moment tensor of a polytope is (1/r!) times the sum of
the r-fold symmetric powers of its lattice points.  On the dilates kP it
is a polynomial in k of degree m + r, m = dim P, so its values on m + r + 1
nodes (half of them relint dilates, by reciprocity; see _expansions) and the
Vandermonde system per tensor coordinate give the homogeneous expansion;
the coefficients of degree m+r+1..n+r are zero.  The leading coefficient of
a full-dimensional P is checked against exact simplex integration of the
moment tensor.  The interpolation runs in integers: the inverse Vandermonde
matrix is cached per node tuple as W / D with W an integer matrix, the
integer power sums of the dilates are combined with W, and each coefficient
is one integer tensor over D * r!, reduced once, not a fraction per coordinate.

Power sums are taken over the runs in the blocks of points.fibers,
stretches of the last of P's lattice coordinates y, in closed form by
Faulhaber's polynomials (Beck and Robins, Computing the Continuous
Discretely).  An expansion sums all its dilates and ranks in one call:
the blocks come in chunks of at most points._BLOCK runs, and each power,
Faulhaber sum and monomial sum is one pass over a chunk's runs, never a
loop over runs, split among its dilates by their run counts.  For a
lower-dimensional P, x = A^t y with A = lattice_rows(P), so each x^alpha
pulls back to an integer polynomial in y, and one plan of these per
polytope and rank pushes the sums of monomials in y to the sums of
monomials in x, unless the dilates hold fewer points on average than the
plans' entries; then they are mapped to x and summed as one-point runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from math import factorial, gcd, lcm
from operator import add, mul, sub

from .arith import faulhaber_sum, power_sum_polynomial
from .linalg import det, invert_matrix
from .points import _BLOCK, _count, _expand, fibers, lattice_rows
from .polytope import LatticePolytope, UnimodularMap, faces, negate, transform, translate
from .tensor import (
    MultiIndex, SymTensor, _multinomials, _poly_mul_linear, _pull_back_rows, apply_linear, multi_indices, sym_power,
    sym_product,
)


@lru_cache(maxsize=None)
def _power_sum_table(rank: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per e <= rank, integers (N_1..N_(e+1), D) with sum_(i=1..k) i^e = sum_j N_j k^j / D.

    The polynomial identity P_e(k) - P_e(k - 1) = k^e holds for every
    integer k, so sum_(u=lo..hi) u^e = P_e(hi) - P_e(lo - 1) also on ranges
    that cross or lie below 0.
    """
    table = []
    for e in range(rank + 1):
        coeffs = power_sum_polynomial(e)
        d = lcm(*(c.denominator for c in coeffs))
        table.append((tuple(int(c * d) for c in coeffs), d))
    return tuple(table)


def _chunks(segments, dim: int):
    """The runs of segments' blocks in dim coordinates, in order, in chunks of at most _BLOCK runs.

    A chunk is (columns, runs of each segment in it): its dim - 1 heads, los and his as parallel lists,
    each block joined onto them as it comes, so the blocks themselves are not held.
    """
    columns, counts = [[] for _ in range(dim + 1)], [0] * len(segments)
    for i, segment in enumerate(segments):
        for heads, los, his in segment:
            if sum(counts) + len(his) > _BLOCK:
                yield columns, counts
                columns, counts = [[] for _ in columns], [0] * len(segments)
            for column, xs in zip(columns, (*heads, los, his)):
                column += xs
            counts[i] += len(his)
    yield columns, counts


@lru_cache(maxsize=None)
def _word_plan(dim: int, ranks: tuple[int, ...]):
    """The betas of all ranks, and their (j, e), beta j = (b, e), grouped by b's word (_tensor_sum) in lex order."""
    betas = [beta for r in ranks for beta in multi_indices(dim, r)]
    groups = {}
    for j, beta in enumerate(betas):
        groups.setdefault(sum(((i,) * x for i, x in enumerate(beta[:-1])), ()), []).append((j, beta[-1]))
    return tuple(betas), tuple((word, tuple(members)) for word, members in sorted(groups.items()))


def _tensor_sum(segments, dim: int, ranks) -> list[list[list[int]]]:
    """Per segment, per rank in ranks, the exact sums of y^beta over its points, beta in multi_indices(dim, rank).

    The runs of all segments come in order, in chunks of at most _BLOCK
    runs joined into parallel integer lists (_chunks), and each step below
    is one pass over a chunk's runs.  Write a point of a run as y = (h, u):
    h = y_1..y_(dim-1), its heads, and u, lo <= u <= hi.  By Faulhaber's
    polynomials the run's sum of u^e is S_e / D_e with S_e = sum_j N_j
    (hi^j - (lo - 1)^j), an integer multiple of D_e; the sum of y^beta for
    beta = (b, e) is then the sum over runs of h^b S_e, split among a
    chunk's segments by their run counts, added up over the chunks and
    divided by D_e once.  All betas share a chunk's powers, and those with
    one b share h^b.  Spell b as a word, head i repeated b_i times: in lex
    order the prefix of a word of length d is the latest word of length
    d - 1, so each h^b is its prefix's weight times one head, and at most
    top + 1 weights are held.
    """
    top = max(ranks)
    betas, groups = _word_plan(dim, tuple(ranks))
    table = _power_sum_table(top)
    totals = [[0] * len(segments) for _ in betas]
    for (*heads, below, his), counts in _chunks(segments, dim):
        below = list(map(sub, below, repeat(1)))
        pa, pb, diffs = below, his, [list(map(sub, his, below))]
        for _ in range(top):  # hi^j - (lo - 1)^j, holding two powers at a time
            pa, pb = list(map(mul, pa, below)), list(map(mul, pb, his))
            diffs.append(list(map(sub, pb, pa)))
        scaled = []
        for coeffs, _ in table:
            total = repeat(0)
            for c, diff in zip(coeffs, diffs):
                if c:
                    total = map(add, total, map(mul, diff, repeat(c)))
            scaled.append(list(total))
        del below, his, pa, pb, diffs  # a chunk may hold many dilates: keep only what the betas read
        weights = [None] * (top + 1)  # h^b per run for the latest word of each length; None is all ones
        for word, members in groups:
            if word:
                prefix, head = weights[len(word) - 1], heads[word[-1]]
                weights[len(word)] = head if prefix is None else list(map(mul, prefix, head))
            w = weights[len(word)]
            for j, e in members:
                terms = iter(scaled[e]) if w is None else map(mul, w, scaled[e])
                totals[j] = list(map(add, totals[j], [sum(islice(terms, c)) for c in counts]))
    sums = [[t // table[beta[-1]][1] for t in ts] for beta, ts in zip(betas, totals)]
    ends = [0, *accumulate(len(multi_indices(dim, r)) for r in ranks)]
    return [[list(col[a:b]) for a, b in zip(ends, ends[1:])] for col in zip(*sums)]


def _point_blocks(p: LatticePolytope, blocks):
    """The points x of blocks of p as one-point runs, in blocks (x[:-1], x[-1], x[-1]) of at most _BLOCK runs."""
    points = _expand(p, blocks)
    while xs := list(zip(*islice(points, _BLOCK))):
        yield xs[:-1], xs[-1], xs[-1]


def _summer(p: LatticePolytope, segments, ranks) -> list[list[list[int]]]:
    """Per segment of blocks of p, per rank in ranks, the exact sums of x^alpha over its points, |alpha| = rank.

    Blocks live in p's lattice coordinates y.  Unless y = x, x_j = C_j . y
    for the columns C_j of A = lattice_rows(p), so tensor's pull-back kernel
    gives the integers c_beta in x^alpha = prod_j (C_j . y)^alpha_j =
    sum_beta c_beta y^beta, the same map apply_linear makes, and the sum of
    x^alpha is sum_beta c_beta times the sum of y^beta.  The plans have up
    to sum_rank |betas| |alphas| entries, and are built once, for all
    segments, only if these hold that many points on average: fewer points
    are mapped to x and summed as one-point runs.
    """
    n, rows = p.ambient_dim, lattice_rows(p)
    if rows is None:
        return _tensor_sum(segments, n, ranks)
    segments = [list(blocks) for blocks in segments]
    entries = sum(len(multi_indices(len(rows), r)) * len(multi_indices(n, r)) for r in ranks)
    if _count(chain.from_iterable(segments)) < len(segments) * entries:
        return _tensor_sum([_point_blocks(p, blocks) for blocks in segments], n, ranks)
    out = _tensor_sum(segments, len(rows), ranks)
    for i, r in enumerate(ranks):
        # every alpha's terms side by side, so each push is one pass over all of them
        pulled = [row for _, row in _pull_back_rows(list(zip(*rows)), multi_indices(n, r))]
        keys, coeffs = [b for row in pulled for b in row], [c for row in pulled for c in row.values()]
        ends = [0, *accumulate(map(len, pulled))]
        for by_rank in out:
            sums = dict(zip(multi_indices(len(rows), r), by_rank[i]))
            # the sum of x^alpha is the difference of two prefix sums of the terms
            acc = list(accumulate(map(mul, coeffs, map(sums.__getitem__, keys)), initial=0))
            by_rank[i] = list(map(sub, map(acc.__getitem__, ends[1:]), map(acc.__getitem__, ends)))
    return out


def _moment(p: LatticePolytope, relint: bool, rank: int) -> SymTensor:
    if rank < 0:
        raise ValueError("rank must be non-negative")
    [[sums]] = _summer(p, [fibers(p, relint=relint)], [rank])
    return SymTensor._ints(p.ambient_dim, rank, dict(zip(multi_indices(p.ambient_dim, rank), sums)), factorial(rank))


def discrete_moment(p: LatticePolytope, r: int) -> SymTensor:
    """(1/r!) sum of x^r over the lattice points of p; rank 0 gives the point count."""
    return _moment(p, False, r)


def discrete_moment_relint(p: LatticePolytope, r: int) -> SymTensor:
    return _moment(p, True, r)


@dataclass(frozen=True)
class EhrhartTensorExpansion:
    """Coefficients of k -> L^r(kP): one tensor per homogeneity degree 0..n+r."""

    rank: int
    coefficients: tuple[SymTensor, ...]

    def coefficient(self, i: int) -> SymTensor:
        return self.coefficients[i]

    def evaluate_at(self, k) -> SymTensor:
        """sum_i c_i k^i for k = u / v: sum_i (D / d_i) num_i u^i v^(N-i) over D v^N, D the lcm of the d_i."""
        u, v = Fraction(k).as_integer_ratio()
        top, den = len(self.coefficients) - 1, lcm(*(c.den for c in self.coefficients))
        num = {}
        for i, c in enumerate(self.coefficients):
            w = den // c.den * u**i * v ** (top - i)
            for alpha, x in c.num.items():
                num[alpha] = num.get(alpha, 0) + w * x
        return SymTensor._ints(self.coefficients[0].dim, self.rank, num, den * v**top)


@lru_cache(maxsize=None)
def _vandermonde_inverse(nodes: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(W, D) with W an integer matrix and W / D the inverse of (k^j), k in nodes, j = 0..len(nodes) - 1."""
    inv = invert_matrix([[k**j for j in range(len(nodes))] for k in nodes])
    d = lcm(*(x.denominator for row in inv for x in row))
    return tuple(tuple(int(x * d) for x in row) for row in inv), d


def _expansions(p: LatticePolytope, ranks, positive: bool = False) -> list[EhrhartTensorExpansion]:
    """Expansions of every rank in ranks, from one enumeration of each dilate walked and one summing pass over all.

    Reciprocity, L^r(-kP) = (-1)^(m+r) L^r(relint kP) for k >= 1, gives the m + r + 1 nodes
    -a..b, a = (m + r) // 2, b = m + r - a: closed kP for 0 <= k <= b, relint kP for 1 <= k <= a.
    positive takes the closed nodes 0..m+r, for check_reciprocity, whose test at -1 would hold by construction.
    """
    if min(ranks) < 0:
        raise ValueError("rank must be non-negative")
    if p.is_empty:
        raise ValueError("expansion needs a non-empty polytope")
    n, m = p.ambient_dim, p.dim
    nodes = {r: tuple(range(-a, m + r - a + 1)) for r in ranks for a in [0 if positive else (m + r) // 2]}
    # the nodes of the top rank hold every other rank's; fibers checks the scan cap when
    # called, so every dilate is checked first, and node -k walks relint kP
    top = nodes[max(ranks)]
    sums = dict(zip(top, _summer(p, [fibers(p, relint=k < 0, scale=abs(k)) for k in top], ranks)))
    out = []
    for i, r in enumerate(ranks):
        weights, d = _vandermonde_inverse(nodes[r])
        alphas = multi_indices(n, r)
        coeffs = []
        for row in weights:
            # one pass per node k over all coordinates of its dilate's sums, negated for relint when m + r is odd
            total = repeat(0)
            for w, k in zip(row, nodes[r]):
                if w:
                    total = map(add, total, map(mul, sums[k][i], repeat(w if k >= 0 else w * (-1) ** (m + r))))
            coeffs.append(SymTensor._ints(n, r, dict(zip(alphas, total)), d * factorial(r)))
        coeffs += [SymTensor.zero(n, r)] * (n - m)  # the degree is at most m + r
        out.append(EhrhartTensorExpansion(rank=r, coefficients=tuple(coeffs)))
    return out


def ehrhart_tensors(p: LatticePolytope, r: int) -> EhrhartTensorExpansion:
    """Exact interpolation of the dilation polynomial of the discrete moment tensor."""
    return _expansions(p, [r])[0]


# -- exact moment tensor by simplex integration ---------------------------------


def _simplicial_pieces(p: LatticePolytope) -> list[tuple[tuple[int, ...], ...]]:
    """Vertex tuples of simplices covering p with disjoint interiors, pulling its first vertex over p._facets."""
    if p.dim <= 0 or len(p.vertices) == p.dim + 1:
        return [p.vertices]
    apex = p.vertices[0]
    return [(apex,) + s for f in p._facets if apex not in f.vertices for s in _simplicial_pieces(f)]


def _complete_homogeneous(vectors, dim: int, rank: int) -> dict[MultiIndex, int]:
    """Sum over |beta| = rank of prod_i (v_i . z)^beta_i, as a polynomial in z.

    Adds one vector at a time, h_t(X + v) = h_t(X) + (v . z) h_(t-1)(X + v),
    so integer vectors give integer coefficients.
    """
    layers = [{(0,) * dim: 1}] + [{} for _ in range(rank)]
    for v in vectors:
        for t in range(1, rank + 1):
            # layers[t - 1] already holds h_(t-1)(X + v)
            for key, c in _poly_mul_linear(layers[t - 1], v).items():
                layers[t][key] = layers[t].get(key, 0) + c
    return layers[rank]


def moment_tensor(p: LatticePolytope, r: int) -> SymTensor:
    """(1/r!) integral of x^r over p, via exact simplex integration.

    Defined for polytopes that are full-dimensional in the ambient space;
    lower-dimensional input is refused so the leading-coefficient check
    stays unambiguous.
    """
    n = p.ambient_dim
    if r < 0:
        raise ValueError("rank must be non-negative")
    if p.dim != n:
        raise ValueError("moment_tensor needs a full-dimensional polytope")
    total: dict[MultiIndex, int] = {}
    denom = factorial(n + r)
    for simplex in _simplicial_pieces(p):
        base = simplex[0]
        edges = [[v[j] - base[j] for j in range(n)] for v in simplex[1:]]
        vol_factor = abs(det(edges))  # n! times the volume, not 0: a piece joins a vertex to a facet off it
        h = _complete_homogeneous(list(simplex), n, r)
        for mono, c in h.items():
            total[mono] = total.get(mono, 0) + vol_factor * c
    multinomials, lcm_m = _multinomials(n, r)
    num = {alpha: value * (lcm_m // multinomials[alpha]) for alpha, value in total.items()}
    return SymTensor._ints(n, r, num, lcm_m * denom)


# -- identity checkers -----------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of an exact identity check; failures carry the first bad coordinate."""

    name: str
    ok: bool
    failures: list[str]

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        return {"check": self.name, "pass": self.ok, "failures": self.failures}


def _compare(label: str, lhs: SymTensor, rhs: SymTensor, failures: list[str]) -> None:
    if lhs == rhs:
        return
    alpha = min((lhs - rhs).num)
    failures.append(
        f"{label}: coordinate {alpha} differs, {lhs.coord(alpha)} != {rhs.coord(alpha)}"
    )


@lru_cache(maxsize=1024)
def _point_power_sums(g: int, r: int) -> tuple[int, ...]:
    """sum_(t=0..g) t^e for e = 0..r, by Faulhaber's formula."""
    return (g + 1, *(int(faulhaber_sum(g, e)) for e in range(1, r + 1)))


def _segment_moment(a, b, r: int) -> SymTensor:
    """discrete_moment of the segment a-b (a point if a == b) in O(|alphas| r^2) steps, sharing none of its code.

    The points are a + t u, t = 0..g, g = gcd(b - a), u = (b - a) / g: x^alpha is a polynomial in t of degree r.
    """
    g = gcd(*map(sub, b, a))
    u = [(y - x) // (g or 1) for x, y in zip(a, b)]
    sums, num = _point_power_sums(g, r), {}
    for alpha in multi_indices(len(a), r):
        poly = [1]  # the coefficients in t, lowest first, of the product of alpha_j factors a_j + t u_j
        for x, d in chain.from_iterable(map(repeat, zip(a, u), alpha)):
            poly = [x * c + d * c_prev for c, c_prev in zip(poly + [0], [0] + poly)]
        num[alpha] = sum(map(mul, poly, sums))
    return SymTensor._ints(len(a), r, num, factorial(r))


def check_reciprocity(p: LatticePolytope, r: int) -> CheckReport:
    """Interior moment vs alternating Ehrhart sum, plus the face-sum route, its vertices and edges in closed form."""
    failures: list[str] = []
    m, n = p.dim, p.ambient_dim
    interior = discrete_moment_relint(p, r)
    expansion = _expansions(p, [r], positive=True)[0]
    sign = Fraction((-1) ** (m + r))
    _compare("alternating-sum reciprocity", interior, expansion.evaluate_at(-1) * sign, failures)

    face_sum = SymTensor.zero(n, r)
    for f in faces(p):
        moment = _segment_moment(f.vertices[0], f.vertices[-1], r) if f.dim <= 1 else discrete_moment(f, r)
        face_sum = face_sum + moment * Fraction((-1) ** f.dim)
    _compare("face-sum interior formula", interior, face_sum * Fraction((-1) ** m), failures)

    mirror_sum = _expansions(negate(p), [r], positive=True)[0].evaluate_at(-1)
    _compare("face-sum vs mirrored expansion", face_sum, mirror_sum, failures)

    return CheckReport("reciprocity", not failures, failures)


def check_translation_covariance(p: LatticePolytope, r: int, y) -> CheckReport:
    """Expansion of the translate vs the binomial-type mix of lower-rank expansions."""
    failures: list[str] = []
    n = p.ambient_dim
    shifted = ehrhart_tensors(translate(p, y), r)
    expansions = _expansions(p, range(r + 1))
    y_pow = [sym_power(tuple(y), j) for j in range(r + 1)]
    for l in range(n + r + 1):
        rhs = SymTensor.zero(n, r)
        for j in range(0, min(l, r) + 1):
            base = expansions[r - j].coefficient(l - j)
            if base.is_zero:
                continue
            rhs = rhs + sym_product(base, y_pow[j]) * Fraction(1, factorial(j))
        _compare(f"translation covariance at degree {l}", shifted.coefficient(l), rhs, failures)
    return CheckReport("covariance", not failures, failures)


def check_equivariance(p: LatticePolytope, r: int, phi) -> CheckReport:
    """Moment and expansion coefficients intertwine a determinant-one lattice map."""
    failures: list[str] = []
    if not isinstance(phi, UnimodularMap):
        phi = UnimodularMap.linear(phi)
    elif any(phi.translation):
        raise ValueError("equivariance check takes a linear map; translation must be zero")
    matrix = phi.matrix
    q = transform(p, phi)
    _compare(
        "moment equivariance",
        discrete_moment(q, r),
        apply_linear(discrete_moment(p, r), matrix),
        failures,
    )
    left = ehrhart_tensors(q, r)
    right = ehrhart_tensors(p, r)
    for i in range(len(left.coefficients)):
        _compare(
            f"expansion coefficient {i}",
            left.coefficient(i),
            apply_linear(right.coefficient(i), matrix),
            failures,
        )
    return CheckReport("equivariance", not failures, failures)
