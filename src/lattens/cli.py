"""Command-line interface with machine-readable JSON and CSV output.

Every subcommand but rank reads a polytope as {"vertices": [[int, ...], ...]}
from --input or stdin; main reads and validates it once and hands it to the
subcommand's handler, which prints JSON to stdout.  Exit status: 0 on
success or a passing verification, 1 when a verification fails (a
structured counterexample report is still printed), 2 on every refusal,
which the library and this module alike raise as ValueError, and on a
stdout the reader has closed: main alone maps both to one JSON error line
on stderr, never a traceback.  All randomness is seeded, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import classify, ehrhart, points, tri2d
from .polytope import (
    LatticePolytope,
    UnimodularMap,
    polytope_from_json_dict,
    random_unimodular,
)
from .tensor import SymTensor

EHRHART_MAX_RANK = 12
PLANAR_MAX_RANK = 20
PRISM_MAX_DIM = 7
PRISM_MAX_RANK = 8
EQUIVARIANCE_MAX_STEPS = 1000
NVAL_MAX_TRIALS = 1000
# nval on T unimodular triangles took under 1 s at T = 1000 (fans with every
# lattice point on the boundary, triangles up to 1000 wide); a trial of
# --check-independence (a 2T-flip walk and a valuation) costs about 0.04 ms a
# triangle, and trials * T = 50,000 took at most 2.8 s (2 vCPUs, Python 3.11)
NVAL_MAX_TRIANGLES = 1000
NVAL_MAX_WORK = 50_000
# rank's defaults, filled in after parsing, so that --survey can refuse each of these options when given
RANK_DEFAULTS = {"dim": 2, "rank": 3, "parity": "+1", "filter": "all"}


def _read_polytope(args) -> LatticePolytope:
    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.load(sys.stdin)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read polytope JSON: {exc}") from exc
    return polytope_from_json_dict(data)


def _check_rank(r: int) -> int:
    if not 0 <= r <= EHRHART_MAX_RANK:
        raise ValueError(f"rank must be between 0 and {EHRHART_MAX_RANK}")
    return r


def _parse_vector(text: str, dim: int) -> tuple[int, ...]:
    try:
        vec = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad integer vector {text!r}") from exc
    if len(vec) != dim:
        raise ValueError(f"vector {text!r} must have {dim} coordinates")
    return vec


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


# -- subcommand handlers ------------------------------------------------------------


def _cmd_count(p: LatticePolytope, args) -> int:
    _emit({"closed": points.count(p), "relint": points.count_relint(p)})
    return 0


def _cmd_tensor(p: LatticePolytope, args) -> int:
    r = _check_rank(args.rank)
    if args.moment and args.relint:
        raise ValueError("choose at most one of --moment and --relint")
    if args.moment:
        t = ehrhart.moment_tensor(p, r)
    elif args.relint:
        t = ehrhart.discrete_moment_relint(p, r)
    else:
        t = ehrhart.discrete_moment(p, r)
    _emit(t.to_json_dict())
    return 0


def _cmd_ehrhart(p: LatticePolytope, args) -> int:
    r = _check_rank(args.rank)
    expansion = ehrhart.ehrhart_tensors(p, r)
    if r == 0:
        _emit([str(c.scalar_value()) for c in expansion.coefficients])
    else:
        _emit([c.to_json_dict() for c in expansion.coefficients])
    return 0


def _report_exit(report: ehrhart.CheckReport) -> int:
    _emit(report.to_json_dict())
    return 0 if report.ok else 1


def _cmd_reciprocity(p: LatticePolytope, args) -> int:
    return _report_exit(ehrhart.check_reciprocity(p, _check_rank(args.rank)))


def _cmd_covariance(p: LatticePolytope, args) -> int:
    y = _parse_vector(args.translation, p.ambient_dim)
    return _report_exit(ehrhart.check_translation_covariance(p, _check_rank(args.rank), y))


def _cmd_equivariance(p: LatticePolytope, args) -> int:
    if args.matrix:
        try:
            rows = json.loads(args.matrix)
            phi = UnimodularMap.linear(rows)
        except (ValueError, TypeError, RecursionError) as exc:
            raise ValueError(f"bad matrix: {exc}") from exc
    else:
        if not 0 <= args.steps <= EQUIVARIANCE_MAX_STEPS:
            raise ValueError(f"steps must be between 0 and {EQUIVARIANCE_MAX_STEPS}")
        phi = random_unimodular(p.ambient_dim, seed=args.seed, steps=args.steps)
    if len(phi.matrix) != p.ambient_dim:
        raise ValueError(f"matrix must be {p.ambient_dim} x {p.ambient_dim} to match the polytope")
    return _report_exit(ehrhart.check_equivariance(p, _check_rank(args.rank), phi))


def _cmd_nval(p: LatticePolytope, args) -> int:
    if p.ambient_dim != 2:
        raise ValueError("nval needs a polygon in ambient dimension 2")
    trials = args.check_independence
    if not 0 <= trials <= NVAL_MAX_TRIALS:
        raise ValueError(f"--check-independence must be between 0 and {NVAL_MAX_TRIALS}")
    # a unimodular triangle has doubled area 1, so every unimodular
    # triangulation of p has this many triangles
    size = tri2d._hull_doubled_area(p.vertices)
    if size > NVAL_MAX_TRIANGLES:
        raise ValueError(f"the polygon has {size} unimodular triangles, capped at {NVAL_MAX_TRIANGLES}")
    if trials * size > NVAL_MAX_WORK:
        raise ValueError(
            f"--check-independence {trials} on {size} triangles needs {trials} x {size} trial triangles, "
            f"capped at {NVAL_MAX_WORK}"
        )
    base = tri2d.unimodular_triangulation(p) if trials and p.dim == 2 else None
    value = tri2d.valuation_n(p, base)
    if trials == 0:
        _emit(value.to_json_dict())
        return 0
    all_equal = base is None or all(
        tri2d.valuation_n(p, tri2d.flip_walk(base, seed=args.seed + i, steps=2 * len(base.triangles))) == value
        for i in range(trials)
    )
    _emit(
        {
            "tensor": value.to_json_dict(),
            "independence": {"trials": trials, "all_equal": all_equal},
        }
    )
    return 0 if all_equal else 1


def _survey_rows(entries) -> list[dict]:
    # an assembly's entry holds its rank, kernel_dim and matches_expected; the writer orders the columns
    return [
        {"r": entry["r"], "assembly": name, "unknowns": entry["unknowns"], **entry["assemblies"][name]}
        for entry in entries
        for name in sorted(entry["assemblies"])
    ]


def _cmd_rank(args) -> int:
    if args.survey:
        if args.kernel or any(getattr(args, name) is not None for name in RANK_DEFAULTS):
            raise ValueError("--survey takes none of -n, -r, --parity, --filter and --kernel")
        entries = classify.high_rank_survey([9, 11, 13, 15, 17, 19])
        if args.format == "json":
            _emit(entries)
        else:
            buf = io.StringIO()
            writer = csv.DictWriter(
                buf, fieldnames=["r", "assembly", "unknowns", "rank", "kernel_dim", "matches_expected"]
            )
            writer.writeheader()
            writer.writerows(_survey_rows(entries))
            sys.stdout.write(buf.getvalue())
        return 0

    vars(args).update({name: value for name, value in RANK_DEFAULTS.items() if getattr(args, name) is None})
    n, r = args.dim, args.rank
    if n == 2:
        if not 2 <= r <= PLANAR_MAX_RANK:
            raise ValueError(f"planar rank must be between 2 and {PLANAR_MAX_RANK}")
        parity = {"+1": 1, "1": 1, "-1": -1}.get(args.parity)
        if parity is None:
            raise ValueError("parity must be +1 or -1")
        system = classify.planar_system(r, parity)
    else:
        if not 3 <= n <= PRISM_MAX_DIM:
            raise ValueError(f"prism dimension must be between 3 and {PRISM_MAX_DIM}")
        if not 2 <= r <= PRISM_MAX_RANK:
            raise ValueError(f"prism rank must be between 2 and {PRISM_MAX_RANK}")
        system = classify.prism_system(n, r, args.filter)
    rank_value = classify.rank(system)
    payload = {
        "unknowns": system.unknowns,
        "rank": rank_value,
        "kernel_dim": system.unknowns - rank_value,
    }
    if args.kernel:
        basis = classify.kernel_basis(system)
        payload["kernel_basis"] = [
            SymTensor(len(system.labels[0]), r, dict(zip(system.labels, vec))).to_json_dict()
            for vec in basis
        ]
    _emit(payload)
    return 0


# -- parser --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # a usage error exits 2 with a JSON error like any other malformed input; subparsers share this class
    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="lattens",
        description="Exact lattice polytope tensor computations (JSON in, JSON/CSV out)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_polytope_cmd(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", "-i", help="path to polytope JSON (default: stdin)")
        return cmd

    add_polytope_cmd("count", "closed and relative-interior lattice point counts")

    cmd = add_polytope_cmd("tensor", "discrete moment tensor of the polytope")
    cmd.add_argument("--rank", "-r", type=int, required=True)
    cmd.add_argument("--relint", action="store_true", help="sum over relative-interior points")
    cmd.add_argument("--moment", action="store_true", help="exact integral moment tensor instead")

    cmd = add_polytope_cmd("ehrhart", "expansion coefficients of the dilation polynomial")
    cmd.add_argument("--rank", "-r", type=int, required=True)

    cmd = add_polytope_cmd("reciprocity", "verify the interior reciprocity identities")
    cmd.add_argument("--rank", "-r", type=int, required=True)

    cmd = add_polytope_cmd("covariance", "verify the translation covariance identity")
    cmd.add_argument("--rank", "-r", type=int, required=True)
    cmd.add_argument("--translation", "-y", required=True, help="integer vector, e.g. \"1,-2\"")

    cmd = add_polytope_cmd("equivariance", "verify equivariance under a lattice map")
    cmd.add_argument("--rank", "-r", type=int, required=True)
    cmd.add_argument("--matrix", help="integer matrix as JSON rows, determinant +1")
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--steps", type=int, default=6)

    cmd = add_polytope_cmd("nval", "rank-9 triangulation valuation of a lattice polygon")
    cmd.add_argument(
        "--check-independence",
        type=int,
        default=0,
        metavar="N",
        help="also recompute over N flip-walked triangulations",
    )
    cmd.add_argument("--seed", type=int, default=0)

    cmd = sub.add_parser("rank", help="exact rank and kernel of the classification systems")
    cmd.add_argument("--dim", "-n", "--n", type=int, help="default 2")
    cmd.add_argument("--rank", "-r", "--r", type=int, help="default 3")
    cmd.add_argument("--parity", help="planar coordinate-swap parity (+1, the default, or -1)")
    cmd.add_argument("--filter", choices=classify.PRISM_FILTERS, help="default all")
    cmd.add_argument("--kernel", action="store_true", help="include a kernel basis")
    cmd.add_argument("--survey", action="store_true", help="emit the odd high-rank table; takes only --format")
    cmd.add_argument("--format", default="csv", choices=("json", "csv"))

    return parser


_POLYTOPE_HANDLERS = {
    "count": _cmd_count,
    "tensor": _cmd_tensor,
    "ehrhart": _cmd_ehrhart,
    "reciprocity": _cmd_reciprocity,
    "covariance": _cmd_covariance,
    "equivariance": _cmd_equivariance,
    "nval": _cmd_nval,
}


def main(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit status."""
    try:
        args = build_parser().parse_args(argv)
        sub = args.subcommand
        code = _cmd_rank(args) if sub == "rank" else _POLYTOPE_HANDLERS[sub](_read_polytope(args), args)
        sys.stdout.flush()  # a closed stdout fails here, inside the try, not in the interpreter's flush at exit
        return code
    except (ValueError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):  # the reader closed stdout: what is left in its buffer goes nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
