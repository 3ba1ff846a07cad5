"""Spans around the library's public functions, installed from outside.

Modules import each other's functions by name (``from .points import
lattice_points``), so a wrapper installed only on the defining module
would miss most calls.  ``install`` replaces every binding of each target
in every loaded ``lattens`` module, and patches methods on their classes.

A span is (name, start_ns, end_ns, parent, job); spans stay in memory
until the pass ends.  Self time is a span's duration minus the time its
child spans cover, computed as the spans close.  Counting hooks run after
a span closes, and their time is charged to no span.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from math import comb

LAYERS = ("polytope", "points", "ehrhart", "tensor", "linalg", "classify", "tri2d", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start ns, end ns, parent index, job, self ns)
        self.stack: list[list] = []  # open spans: [index, child ns, name id]
        self.job = -1
        self.counts: Counter = Counter()
        self.job_counts: dict[int, Counter] = defaultdict(Counter)

    def count(self, key: str, value: int = 1) -> None:
        self.counts[key] += value
        self.job_counts[self.job][key] += value

    def caller_layer(self) -> str | None:
        """Layer of the innermost open span (the caller of a span that just closed)."""
        return self.names[self.stack[-1][2]].split(".")[0] if self.stack else None

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0, nid]
            stack.append(frame)
            spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, tracer.job, end - start - frame[1])
                if stack:
                    stack[-1][1] += end - start
            if hook is not None:
                t0 = clock()
                hook(tracer, result, *args, **kwargs)
                if stack:
                    stack[-1][1] += clock() - t0
            return result

        return traced

    # -- aggregation -------------------------------------------------------------

    def self_ns(self) -> Counter:
        """Self time per span name."""
        out: Counter = Counter()
        for nid, _, _, _, _, own in self.spans:
            out[self.names[nid]] += own
        return out

    def calls(self) -> Counter:
        return Counter(self.names[s[0]] for s in self.spans)

    def top_level_ns(self) -> int:
        return sum(end - start for _, start, end, parent, _, _ in self.spans if parent == -1)

    def per_job(self) -> dict[int, dict]:
        """Self time per layer and counts for each job."""
        layers: dict[int, Counter] = defaultdict(Counter)
        for nid, _, _, _, j, own in self.spans:
            layers[j][self.names[nid].split(".")[0]] += own
        jobs = set(layers) | set(self.job_counts)
        return {
            j: {
                "self_ms": {k: round(v / 1e6, 3) for k, v in sorted(layers[j].items())},
                "counts": dict(sorted(self.job_counts[j].items())),
            }
            for j in sorted(jobs)
        }

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, job (times in ns)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for nid, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps([self.names[nid], start, end, parent, job]) + "\n")


# -- counting hooks -------------------------------------------------------------


def _hull(tracer, _result, poly, points=(), *args, **kwargs):
    # candidate subsets the hull could test: C(N, m), N distinct input points
    tracer.count("polytope.hulls")
    distinct = len(set(map(tuple, points)))
    if poly.dim > 0:
        tracer.count("polytope.hull_subsets", comb(distinct, poly.dim))


def _scan(tracer, result, p, *args, **kwargs):
    tracer.count("points.calls")
    tracer.count("points.kept", len(result))
    if p.vertices:
        lo, hi = p.bounding_box()
        cells = 1
        for a, b in zip(lo, hi):
            cells *= b - a + 1
        tracer.count("points.box_cells", cells)


def _matrix(tracer, _result, rows, ncols=None, *args, **kwargs):
    tracer.count("linalg.calls")
    if tracer.caller_layer() != "linalg":
        width = ncols if ncols is not None else (len(rows[0]) if rows else 0)
        tracer.count("linalg.cells", len(rows) * width)


def _system(tracer, system, *args, **kwargs):
    tracer.count("classify.systems")
    tracer.count("classify.rows", len(system.rows))
    tracer.count("classify.nonzeros", sum(len(row) for _, row in system.rows))
    tracer.count("classify.unknowns", system.unknowns)


def _orbits(tracer, result, *args, **kwargs):
    tracer.count("classify.orbits", len(result[0]))


def _flip(tracer, *args, **kwargs):
    tracer.count("tri2d.flips")


def _admissible(tracer, result, tri, *args, **kwargs):
    tracer.count("tri2d.admissible", len(result))
    tracer.count("tri2d.interior_edges", len(tri.interior_edges()))


def _row(tracer, *args, **kwargs):
    tracer.count("tensor.rows")


def install(tracer: Tracer, lib) -> None:
    """Wrap the public functions of every layer at every place they are bound."""
    poly, pts, ehr, ten, lin, cls, tri, cli = (
        lib.polytope, lib.points, lib.ehrhart, lib.tensor, lib.linalg, lib.classify, lib.tri2d, lib.cli
    )
    functions = [
        (poly, "polytope.construct", ("from_points", "dilate", "translate", "negate", "transform",
                                      "minkowski_sum", "prism", "dissect_prism", "standard_simplex"), None),
        (poly, "polytope.faces", ("faces",), None),
        (pts, "points.scan", ("lattice_points", "relint_lattice_points"), _scan),
        (pts, "points.count", ("count", "count_relint"), None),
        (ehr, "ehrhart.moment", ("discrete_moment", "discrete_moment_relint"), None),
        (ehr, "ehrhart.interp", ("ehrhart_tensors",), None),
        (ehr, "ehrhart.integral", ("moment_tensor",), None),
        (ehr, "ehrhart.check", ("check_reciprocity", "check_translation_covariance", "check_equivariance"), None),
        (ten, "tensor.row", ("coordinate_row",), _row),
        (ten, "tensor.product", ("sym_product", "sym_power"), None),
        (ten, "tensor.map", ("apply_linear",), None),
        (lin, "linalg.rref", ("rref",), _matrix),
        (lin, "linalg.bareiss", ("rank_bareiss",), _matrix),
        (lin, "linalg.kernel", ("kernel_basis", "rational_row_space_equations"), _matrix),
        (lin, "linalg.inverse", ("invert_matrix",), _matrix),
        (lin, "linalg.integer_kernel", ("integer_kernel",), _matrix),
        (cls, "classify.build", ("prism_system", "planar_system"), None),
        (cls, "classify.rank", ("rank", "kernel_basis", "kernel_dim", "in_span", "high_rank_survey"), None),
        (tri, "tri2d.triangulate", ("unimodular_triangulation",), None),
        (tri, "tri2d.walk", ("flip_walk",), None),
        (tri, "tri2d.walk", ("flip",), _flip),
        (tri, "tri2d.walk", ("admissible_flips",), _admissible),
        (tri, "tri2d.valuation", ("valuation_n",), None),
        (cli, "cli.main", ("main",), None),
    ]
    modules = [m for name, m in sys.modules.items() if name == "lattens" or name.startswith("lattens.")]
    for module, span, attrs, hook in functions:
        for attr in attrs:
            original = getattr(module, attr)
            wrapped = tracer.wrap(span, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    lp = poly.LatticePolytope
    lp.__init__ = tracer.wrap("polytope.hull", lp.__init__, _hull)
    cs = cls.ConstraintSystem
    cs.build = staticmethod(tracer.wrap("classify.build", cs.build, _system))
    cs.orbits = tracer.wrap("classify.rank", cs.orbits, _orbits)


def shape_cache(lib) -> tuple[int, int]:
    """(hits, misses) of the triangle-shape cache in tri2d, or (0, 0) without one."""
    cached = getattr(lib.tri2d, "_degree_one_cubic_tensor", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.misses


# name -> (unit, better); the order here is the order in BENCHMARK.json
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS if layer != "cli"},
    "polytope.hulls": ("count", "lower"),
    "polytope.hull_s": ("s", "lower"),
    "polytope.hull_subsets": ("count", "lower"),
    "polytope.subsets_per_hull": ("count", "lower"),
    "polytope.faces_s": ("s", "lower"),
    "points.calls": ("count", "lower"),
    "points.s": ("s", "lower"),
    "points.box_cells": ("count", "lower"),
    "points.kept": ("count", "higher"),
    "points.kept_per_cell": ("ratio", "higher"),
    "ehrhart.moments": ("count", "lower"),
    "ehrhart.moment_s": ("s", "lower"),
    "ehrhart.expansions": ("count", "lower"),
    "ehrhart.interp_s": ("s", "lower"),
    "ehrhart.integral_s": ("s", "lower"),
    "ehrhart.check_s": ("s", "lower"),
    "tensor.rows": ("count", "lower"),
    "tensor.row_s": ("s", "lower"),
    "tensor.product_s": ("s", "lower"),
    "tensor.map_s": ("s", "lower"),
    "linalg.calls": ("count", "lower"),
    "linalg.cells": ("count", "lower"),
    "linalg.rref_s": ("s", "lower"),
    "linalg.bareiss_s": ("s", "lower"),
    "linalg.kernel_s": ("s", "lower"),
    "linalg.inverse_s": ("s", "lower"),
    "linalg.integer_kernel_s": ("s", "lower"),
    "classify.systems": ("count", "lower"),
    "classify.build_s": ("s", "lower"),
    "classify.rows": ("count", "lower"),
    "classify.nonzeros": ("count", "lower"),
    "classify.nonzeros_per_row": ("count", "lower"),
    "classify.unknowns": ("count", "lower"),
    "classify.orbits": ("count", "lower"),
    "classify.rank_s": ("s", "lower"),
    "tri2d.triangulate_s": ("s", "lower"),
    "tri2d.walk_s": ("s", "lower"),
    "tri2d.flips": ("count", "lower"),
    "tri2d.interior_edges": ("count", "lower"),
    "tri2d.admissible": ("count", "higher"),
    "tri2d.admissible_per_interior_edge": ("ratio", "higher"),
    "tri2d.valuation_s": ("s", "lower"),
    "tri2d.shape_cache_hits": ("count", "higher"),
    "tri2d.shape_cache_misses": ("count", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.s": ("s", "lower"),
    "cli.bytes_out": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.uncovered_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer, job_wall_ns: int, cache: tuple[int, int]) -> dict[str, float]:
    """Per-layer values of one traced pass, in the units of PER_LAYER (without the trace.*_wall_s)."""
    own = tracer.self_ns()
    calls = tracer.calls()
    c = tracer.counts

    def s(*names):
        return sum(own[n] for n in names) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{layer}.self_s": s(*(n for n in own if n.split(".")[0] == layer))
           for layer in LAYERS if layer != "cli"}
    out.update({
        "polytope.hulls": c["polytope.hulls"],
        "polytope.hull_s": s("polytope.hull"),
        "polytope.hull_subsets": c["polytope.hull_subsets"],
        "polytope.subsets_per_hull": ratio(c["polytope.hull_subsets"], c["polytope.hulls"]),
        "polytope.faces_s": s("polytope.faces"),
        "points.calls": c["points.calls"],
        "points.s": s("points.scan", "points.count"),
        "points.box_cells": c["points.box_cells"],
        "points.kept": c["points.kept"],
        "points.kept_per_cell": ratio(c["points.kept"], c["points.box_cells"]),
        "ehrhart.moments": calls["ehrhart.moment"],
        "ehrhart.moment_s": s("ehrhart.moment"),
        "ehrhart.expansions": calls["ehrhart.interp"],
        "ehrhart.interp_s": s("ehrhart.interp"),
        "ehrhart.integral_s": s("ehrhart.integral"),
        "ehrhart.check_s": s("ehrhart.check"),
        "tensor.rows": c["tensor.rows"],
        "tensor.row_s": s("tensor.row"),
        "tensor.product_s": s("tensor.product"),
        "tensor.map_s": s("tensor.map"),
        "linalg.calls": c["linalg.calls"],
        "linalg.cells": c["linalg.cells"],
        "linalg.rref_s": s("linalg.rref"),
        "linalg.bareiss_s": s("linalg.bareiss"),
        "linalg.kernel_s": s("linalg.kernel"),
        "linalg.inverse_s": s("linalg.inverse"),
        "linalg.integer_kernel_s": s("linalg.integer_kernel"),
        "classify.systems": c["classify.systems"],
        "classify.build_s": s("classify.build"),
        "classify.rows": c["classify.rows"],
        "classify.nonzeros": c["classify.nonzeros"],
        "classify.nonzeros_per_row": ratio(c["classify.nonzeros"], c["classify.rows"]),
        "classify.unknowns": c["classify.unknowns"],
        "classify.orbits": c["classify.orbits"],
        "classify.rank_s": s("classify.rank"),
        "tri2d.triangulate_s": s("tri2d.triangulate"),
        "tri2d.walk_s": s("tri2d.walk"),
        "tri2d.flips": c["tri2d.flips"],
        "tri2d.interior_edges": c["tri2d.interior_edges"],
        "tri2d.admissible": c["tri2d.admissible"],
        "tri2d.admissible_per_interior_edge": ratio(c["tri2d.admissible"], c["tri2d.interior_edges"]),
        "tri2d.valuation_s": s("tri2d.valuation"),
        "tri2d.shape_cache_hits": cache[0],
        "tri2d.shape_cache_misses": cache[1],
        "cli.calls": calls["cli.main"],
        "cli.s": s("cli.main"),
        "cli.bytes_out": c["cli.bytes_out"],
        "trace.spans": len(tracer.spans),
        "trace.uncovered_s": (job_wall_ns - tracer.top_level_ns()) / 1e9,
    })
    return out
