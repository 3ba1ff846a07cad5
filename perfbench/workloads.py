"""Seeded job lists, job runners and result checks for the four workloads.

Inputs are generated here with plain Python integers, without calling the
library, so the library receives only the generated inputs.  Every list is
stratified: the job index fixes the kind of work (check, rank, dimension,
box size, triangle count), and the seed draws the geometry inside that
stratum.  That keeps the cost of a job list close to the same on every seed.

A job's runner calls the library through module attributes looked up at
call time, so the tracer's wrappers see the calls.  Checks run after the
timed job loop and return a list of problems; an empty list means every
result was verified.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product


@dataclass
class Job:
    id: str
    payload: dict
    meta: dict = field(default_factory=dict)

    @property
    def input_digest(self) -> str:
        return digest(json.dumps(self.payload, sort_keys=True))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- exact helpers that stay outside the library ------------------------------


def _rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _affine_rank(points) -> int:
    base = points[0]
    return _rank([[x - y for x, y in zip(p, base)] for p in points[1:]]) if len(points) > 1 else 0


def _random_points(rng, dim, count, bound):
    return [tuple(rng.randint(0, bound) for _ in range(dim)) for _ in range(count)]


def _full_rank_points(rng, dim, count, bound):
    """`count` distinct points of [0, bound]^dim with affine rank dim."""
    grid = list(product(range(bound + 1), repeat=dim))
    while True:
        pts = sorted(rng.sample(grid, min(count, len(grid))))
        if _affine_rank(pts) == dim:
            return pts


def _sl_matrix(rng, n, steps, max_entry=None):
    """Random integer matrix of determinant 1 from shears and 3-cycles.

    With max_entry, matrices with a larger entry are redrawn, which bounds
    how far the image of a polytope spreads.
    """
    while True:
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(steps):
            if rng.random() < 0.7:
                j, k = rng.sample(range(n), 2)
                s = rng.choice((1, -1))
                mat[j] = [a + s * b for a, b in zip(mat[j], mat[k])]
            else:
                i, j, k = rng.sample(range(n), 3)
                mat[i], mat[j], mat[k] = mat[j], mat[k], mat[i]
        if max_entry is None or max(abs(x) for row in mat for x in row) <= max_entry:
            return mat


def _hull_2d(points):
    """Counter-clockwise convex hull vertices (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _doubled_area(hull) -> int:
    return abs(sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(hull, hull[1:] + hull[:1])))


def _parse_tensor(data) -> dict:
    return {tuple(int(x) for x in k.split(",")): Fraction(v) for k, v in data["coords"].items()}


# -- identities -----------------------------------------------------------------

IDENTITY_KINDS = ("reciprocity", "covariance", "equivariance")
# dimensions per (kind, rank) stratum: two in three are full-dimensional;
# polytopes come from dim + 1 to dim + 4 distinct points, cycling with the
# stratum index and rank, so hull work is the same on every seed.  Each
# dimension pattern appears twice, which makes 216 jobs: enough for the
# percentiles not to hinge on the few jobs the seed puts near them
IDENTITY_DIMS = (3, 3, 2, 3, 1, 3, 3, 2, 3) * 2


def _identity_polytope(rng, target, count):
    """Random lattice polytope of dimension target in Z^3 from `count` points.

    Lower-dimensional ones are drawn in Z^target and placed on a random
    set of coordinate axes, then shifted, so the affine hull is not the
    ambient space.
    """
    pts = _full_rank_points(rng, target, count, 2)
    if target < 3:
        axes = sorted(rng.sample(range(3), target))
        lifted = []
        for p in pts:
            w = [0, 0, 0]
            for axis, value in zip(axes, p):
                w[axis] = value
            lifted.append(w)
        pts = lifted
    shift = [rng.randint(-2, 2) for _ in range(3)]
    return [[a + b for a, b in zip(p, shift)] for p in pts]


def identity_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"identities/{seed}")
    jobs = []
    for i, dim in enumerate(IDENTITY_DIMS):
        for kind in IDENTITY_KINDS:
            for r in range(4):
                count = dim + 1 + (i + r) % 4
                payload = {"kind": kind, "rank": r, "points": _identity_polytope(rng, dim, count)}
                if kind == "covariance":
                    payload["y"] = [rng.randint(-3, 3) for _ in range(3)]
                elif kind == "equivariance":
                    payload["matrix"] = _sl_matrix(rng, 3, 5, max_entry=2)
                jobs.append(Job(f"{kind}-r{r}-d{dim}-{i}", payload, {"dim": dim}))
    rng.shuffle(jobs)
    return jobs


def run_identity(lib, job: Job):
    pay = job.payload
    p = lib.polytope.from_points([tuple(x) for x in pay["points"]])
    if pay["kind"] == "reciprocity":
        report = lib.ehrhart.check_reciprocity(p, pay["rank"])
    elif pay["kind"] == "covariance":
        report = lib.ehrhart.check_translation_covariance(p, pay["rank"], tuple(pay["y"]))
    else:
        report = lib.ehrhart.check_equivariance(p, pay["rank"], pay["matrix"])
    return report.to_json_dict()


def check_identities(jobs, outputs) -> list[str]:
    return [f"{job.id}: identity failed: {out['failures'][:1]}" for job, out in zip(jobs, outputs)
            if out is not None and not out["pass"]]


# -- dilates --------------------------------------------------------------------

DILATE_GROUPS = 60
# scan cost of kQ in box cells, counting each kept point as KEPT_WEIGHT cells
# (enumeration builds a Python tuple per kept point, measured at about sixty
# times the cost of testing a cell)
KEPT_WEIGHT = 60
DILATE_MIN_COST, DILATE_MAX_COST = 1e4, 8e5
# the biggest box of every list: k * Delta_5 with (k + 1)^5 = 1.89M cells
TOP_N, TOP_K = 5, 17
# box cap for the dilates (n + r) Q that `ehrhart -r r` scans
EHRHART_MAX_CELLS = 1e6


def _partitions(m, smallest=1):
    if m == 0:
        return [[]]
    return [[a] + rest for a in range(smallest, m + 1) for rest in _partitions(m - a, a)]


# simplex products whose hull tests at most 70 vertex subsets, so the hull
# stays cheap next to the scan: Delta_m, and for m <= 4 also Delta_1 x
# Delta_(m-1), and the cube for m <= 3
SHAPES = {
    m: [p for p in _partitions(m) if math.comb(math.prod(a + 1 for a in p), m) <= 70]
    for m in range(1, 6)
}


def _simplex_product(parts, n):
    """Vertices of Delta_a1 x Delta_a2 x ... in the first sum(parts) coordinates of Z^n."""
    pts = [()]
    for a in parts:
        pts = [p + tuple(int(j == i) for j in range(a)) for p in pts for i in range(-1, a)]
    return [p + (0,) * (n - len(p)) for p in pts]


def _lattice_count(parts, k, interior=False):
    """Lattice points of k * (Delta_a1 x ...), or of its relative interior."""
    return math.prod(math.comb(k - 1 if interior else k + a, a) for a in parts)


def _extents(points):
    return [max(p[i] for p in points) - min(p[i] for p in points) for i in range(len(points[0]))]


def _box(extents, k) -> int:
    return math.prod(k * e + 1 for e in extents)


def _dilate_polytope(rng, parts, n, r):
    """A product of simplices, moved into Z^n by a random lattice map.

    The map is unimodular, so kQ has exactly as many lattice points as
    k times the product, while its bounding box depends on the map.  Maps
    whose (n + r)-th dilate box exceeds EHRHART_MAX_CELLS are redrawn.
    """
    base = _simplex_product(parts, n)
    while True:
        mat = _sl_matrix(rng, n, rng.randint(1, n + 1))
        pts = [tuple(sum(mat[i][j] * p[j] for j in range(n)) for i in range(n)) for p in base]
        if _box(_extents(pts), n + r) <= EHRHART_MAX_CELLS:
            low = [min(p[i] for p in pts) for i in range(n)]
            return [tuple(c - l for c, l in zip(p, low)) for p in pts]


def _pinned_simplex(rng, n):
    """Delta_n with axes permuted and reflected: the same box on every seed."""
    perm = rng.sample(range(n), n)
    flip = [rng.choice((1, -1)) for _ in range(n)]
    pts = [tuple(flip[i] * p[perm[i]] for i in range(n)) for p in _simplex_product([n], n)]
    low = [min(p[i] for p in pts) for i in range(n)]
    return [tuple(c - l for c, l in zip(p, low)) for p in pts]


def dilate_jobs(seed: int) -> list[Job]:
    """Four CLI jobs per group: count, tensor, tensor --relint on kQ and ehrhart on Q.

    Group g has ambient dimension 3 + g % 3, rank (g // 3) % 3, and one group
    in three is lower-dimensional; the index also picks the shape, so hull
    work is the same on every seed.  k is chosen so the scan cost of kQ,
    box cells plus KEPT_WEIGHT per kept point, is near a target spaced
    log-uniformly over [DILATE_MIN_COST, DILATE_MAX_COST] by the index alone.  The last group
    is the pinned TOP_K * Delta_5, the largest box on every seed.
    """
    rng = random.Random(f"dilates/{seed}")
    jobs = []
    groups = DILATE_GROUPS
    for g in range(groups):
        n, i = 3 + g % 3, g // 3
        r = i % 3
        m = n if i % 3 != (i // 3) % 3 else 1 + (i // 3) % (n - 1)
        if g == groups - 1:
            n, m, r, parts, k = TOP_N, TOP_N, 0, [TOP_N], TOP_K
            q = _pinned_simplex(rng, n)
        else:
            parts = SHAPES[m][i % len(SHAPES[m])]
            q = _dilate_polytope(rng, parts, n, r)
            extents = _extents(q)
            u = (g + 0.5) / (groups - 1)
            target = DILATE_MIN_COST * (DILATE_MAX_COST / DILATE_MIN_COST) ** u

            def cost(k):
                return _box(extents, k) + KEPT_WEIGHT * _lattice_count(parts, k)

            k = 1
            while cost(k + 1) <= target:
                k += 1
            if cost(k + 1) / target < target / cost(k):
                k += 1
        kq = [[k * c for c in p] for p in q]
        meta = {"group": g, "n": n, "dim": m, "rank": r, "k": k,
                "closed": _lattice_count(parts, k), "relint": _lattice_count(parts, k, interior=True)}
        tag = f"g{g}-n{n}-m{m}-r{r}"
        for cmd, argv, verts in (
            ("count", ["count"], kq),
            ("tensor", ["tensor", "-r", str(r)], kq),
            ("relint", ["tensor", "--relint", "-r", str(r)], kq),
            ("ehrhart", ["ehrhart", "-r", str(r)], [list(p) for p in q]),
        ):
            jobs.append(Job(f"{tag}-{cmd}", {"argv": argv, "vertices": verts}, meta | {"cmd": cmd}))
    rng.shuffle(jobs)
    return jobs


def run_cli(lib, job: Job):
    stdin = json.dumps({"vertices": job.payload["vertices"]})
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.cli.main(job.payload["argv"])
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    if code != 0:
        raise RuntimeError(f"CLI exit {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def _eval_expansion(coeffs, k):
    total = {}
    for i, c in enumerate(coeffs):
        for alpha, v in c.items():
            total[alpha] = total.get(alpha, 0) + v * Fraction(k) ** i
    return {a: v for a, v in total.items() if v}


def check_dilates(jobs, outputs) -> list[str]:
    """Reciprocity and extrapolation identities tying the four jobs of a group.

    With c_i the expansion of Q at rank r and m = dim Q:
    sum_i c_i k^i = L^r(kQ) and (-1)^(m+r) sum_i c_i (-k)^i = L^r(relint kQ).
    The counts must equal the binomial counts of the simplex product, and
    for r = 0 the scalar tensors too.
    """
    groups: dict[int, dict] = {}
    for job, out in zip(jobs, outputs):
        groups.setdefault(job.meta["group"], {"meta": job.meta})[job.meta["cmd"]] = out
    problems = []
    for g, grp in sorted(groups.items()):
        if any(grp.get(c) is None for c in ("count", "tensor", "relint", "ehrhart")):
            continue
        meta = grp["meta"]
        k, m, r = meta["k"], meta["dim"], meta["rank"]
        closed = _parse_tensor(json.loads(grp["tensor"]))
        relint = _parse_tensor(json.loads(grp["relint"]))
        counts = json.loads(grp["count"])
        coeffs = json.loads(grp["ehrhart"])
        if (counts["closed"], counts["relint"]) != (meta["closed"], meta["relint"]):
            problems.append(f"group {g}: counts {counts}, expected {meta['closed']} and {meta['relint']}")
        if r == 0:
            zero = (0,) * meta["n"]
            coeffs = [{zero: Fraction(c)} for c in coeffs]
            if (counts["closed"], counts["relint"]) != (closed.get(zero, 0), relint.get(zero, 0)):
                problems.append(f"group {g}: counts {counts} disagree with the rank-0 tensors")
        else:
            coeffs = [_parse_tensor(c) for c in coeffs]
        if _eval_expansion(coeffs, k) != closed:
            problems.append(f"group {g}: expansion of Q at k={k} differs from the tensor of kQ")
        sign = (-1) ** (m + r)
        if {a: sign * v for a, v in _eval_expansion(coeffs, -k).items()} != relint:
            problems.append(f"group {g}: reciprocity at -{k} differs from the relint tensor of kQ")
    return problems


# -- classify -------------------------------------------------------------------

# prism systems up to this many unknowns fit a pass of a few seconds; the
# whole n <= 7, r <= 8 grid takes over a minute, most of it in the largest
# dozen systems
PRISM_MAX_UNKNOWNS = 252
SURVEY_RANKS = (9, 11, 13, 15, 17, 19)
# the paper's ranks of the even planar assembly
SURVEY_EXPECTED = {9: 8, 11: 10, 13: 12, 15: 13, 17: 15, 19: 17}


def classify_jobs(seed: int) -> list[Job]:
    """Every system of the fixed grid; the seed fixes the order only."""
    jobs = []
    for n in range(3, 8):
        for r in range(2, 9):
            if math.comb(n + r - 1, r) > PRISM_MAX_UNKNOWNS:
                continue
            for f in ("all", "en-odd", "en-even"):
                jobs.append(Job(f"prism-{n}-{r}-{f}", {"kind": "prism", "n": n, "r": r, "filter": f}))
    for r in range(3, 21):
        for parity in (1, -1):
            jobs.append(Job(f"planar-{r}-{parity:+d}", {"kind": "planar", "r": r, "parity": parity}))
    for r in SURVEY_RANKS:
        jobs.append(Job(f"survey-{r}", {"kind": "survey", "r": r}))
    random.Random(f"classify/{seed}").shuffle(jobs)
    return jobs


def run_classify(lib, job: Job):
    pay = job.payload
    cl = lib.classify
    if pay["kind"] == "survey":
        return cl.high_rank_survey([pay["r"]])[0]
    if pay["kind"] == "prism":
        system = cl.prism_system(pay["n"], pay["r"], pay["filter"])
        rank = cl.rank(system)
        return {"unknowns": system.unknowns, "rank": rank}
    system = cl.planar_system(pay["r"], pay["parity"])
    rank = cl.rank(system)
    basis = cl.kernel_basis(system)
    return {"unknowns": system.unknowns, "rank": rank, "kernel": [[str(x) for x in v] for v in basis]}


def check_classify(jobs, outputs) -> list[str]:
    """The paper's ranks; other values are pinned by the recorded digests."""
    problems = []
    for job, out in zip(jobs, outputs):
        if out is None:
            continue
        pay = job.payload
        if pay["kind"] == "prism":
            n, r, f = pay["n"], pay["r"], pay["filter"]
            zero = (
                (f == "all" and (r >= n + 1 or (n, r) in ((3, 2), (3, 3), (4, 3), (4, 4))))
                or (n == 3 and f == "en-odd" and r % 2 == 1)
                or (n == 3 and f == "en-even" and r % 2 == 0)
            )
            if zero and out["rank"] != out["unknowns"]:
                problems.append(f"{job.id}: kernel_dim {out['unknowns'] - out['rank']}, expected 0")
        elif pay["kind"] == "planar":
            r, parity = pay["r"], pay["parity"]
            if r in (3, 5, 7) and out["rank"] != (r if parity == 1 else r + 1):
                problems.append(f"{job.id}: rank {out['rank']}")
            if len(out["kernel"]) != out["unknowns"] - out["rank"]:
                problems.append(f"{job.id}: kernel basis size disagrees with the rank")
        else:
            r = pay["r"]
            if out["assemblies"]["even"]["rank"] != SURVEY_EXPECTED[r]:
                problems.append(f"{job.id}: even assembly rank {out['assemblies']['even']['rank']}")
            if r == 9:
                rep = out["rank9_kernel"]
                if not (rep["kernel_dim"] == 2 and rep["contains_degree_one_coefficient"]
                        and rep["contains_triangulation_valuation"] and rep["vectors_independent"]):
                    problems.append(f"{job.id}: rank-9 kernel report {rep}")
    return problems


# -- flips ----------------------------------------------------------------------

FLIP_JOBS = 120
FLIP_MIN_T, FLIP_MAX_T = 6, 20
FLIP_WALKS = 2


def _polygon_with_area(rng, doubled):
    """Random lattice polygon (hull vertices) of the given doubled area."""
    side = max(2, math.isqrt(doubled) + 1)
    while True:
        hull = _hull_2d(_random_points(rng, 2, rng.randint(4, 7), side))
        if len(hull) >= 3 and _doubled_area(hull) == doubled:
            return hull


def flip_jobs(seed: int) -> list[Job]:
    """Triangle counts T cycle through FLIP_MIN_T..FLIP_MAX_T; the seed draws the shapes."""
    rng = random.Random(f"flips/{seed}")
    span = FLIP_MAX_T - FLIP_MIN_T + 1
    jobs = []
    for i in range(FLIP_JOBS):
        t = FLIP_MIN_T + i % span
        hull = _polygon_with_area(rng, t)
        shift = [rng.randint(-5, 5), rng.randint(-5, 5)]
        pts = [[x + shift[0], y + shift[1]] for x, y in hull]
        walks = [rng.randrange(10**6) for _ in range(FLIP_WALKS)]
        jobs.append(Job(f"T{t}-{i}", {"points": pts, "walk_seeds": walks}, {"triangles": t}))
    rng.shuffle(jobs)
    return jobs


def run_flips(lib, job: Job):
    t2 = lib.tri2d
    p = lib.polytope.from_points([tuple(x) for x in job.payload["points"]])
    base = t2.unimodular_triangulation(p)
    value = t2.valuation_n(p, base)
    walks = []
    for s in job.payload["walk_seeds"]:
        tri = t2.flip_walk(base, seed=s, steps=2 * len(base.triangles))
        walks.append({"triangles": [list(t) for t in tri.triangles], "equal": t2.valuation_n(p, tri) == value})
    return {"points": [list(q) for q in base.points], "triangles": len(base.triangles),
            "valuation": value.to_json_dict(), "walks": walks}


def check_flips(jobs, outputs) -> list[str]:
    """Pick's count of triangles; each walk ends in a unimodular triangulation
    of the same points, with the same valuation."""
    problems = []
    for job, out in zip(jobs, outputs):
        if out is None:
            continue
        want = job.meta["triangles"]
        if out["triangles"] != want:
            problems.append(f"{job.id}: {out['triangles']} triangles, Pick's theorem gives {want}")
        pts = out["points"]
        for walk in out["walks"]:
            tris = walk["triangles"]
            used = {i for t in tris for i in t}
            areas = [abs((pts[b][0] - pts[a][0]) * (pts[c][1] - pts[a][1])
                         - (pts[b][1] - pts[a][1]) * (pts[c][0] - pts[a][0])) for a, b, c in tris]
            if len(tris) != want or used != set(range(len(pts))) or set(areas) != {1}:
                problems.append(f"{job.id}: a flip walk did not end in a unimodular triangulation")
            if not walk["equal"]:
                problems.append(f"{job.id}: valuation changed along a flip walk")
    return problems


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make: object  # seed -> list[Job]
    run: object  # (lib, job) -> output, a str (CLI stdout) or a JSON value
    check: object  # (jobs, outputs) -> list of problems


WORKLOADS = {
    "identities": Workload(identity_jobs, run_identity, check_identities),
    "dilates": Workload(dilate_jobs, run_cli, check_dilates),
    "classify": Workload(classify_jobs, run_classify, check_classify),
    "flips": Workload(flip_jobs, run_flips, check_flips),
}


def output_digest(output) -> str:
    return digest(output if isinstance(output, str) else json.dumps(output, sort_keys=True))
