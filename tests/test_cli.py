import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import in_child
from lattens import cli, tri2d
from lattens.ehrhart import CheckReport, EhrhartTensorExpansion, discrete_moment
from lattens.polytope import dilate, from_points
from lattens.tensor import SymTensor, sym_power

T2_JSON = '{"vertices": [[0,0],[1,0],[0,1]]}'


def run_cli(monkeypatch, capsys, argv, stdin=T2_JSON):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_count(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["count"])
    assert code == 0
    assert json.loads(out) == {"closed": 3, "relint": 0}


def test_count_from_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "poly.json"
    path.write_text(T2_JSON)
    code, out, _ = run_cli(monkeypatch, capsys, ["count", "--input", str(path)], stdin="")
    assert code == 0
    assert json.loads(out)["closed"] == 3


def test_tensor_variants(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["tensor", "-r", "1"])
    assert code == 0
    assert json.loads(out)["coords"] == {"0,1": "1", "1,0": "1"}
    code, out, _ = run_cli(monkeypatch, capsys, ["tensor", "-r", "2", "--moment"])
    assert json.loads(out)["coords"]["1,1"] == "1/48"
    code, out, _ = run_cli(monkeypatch, capsys, ["tensor", "-r", "1", "--relint"])
    assert json.loads(out)["coords"] == {}
    code, _, err = run_cli(monkeypatch, capsys, ["tensor", "-r", "1", "--relint", "--moment"])
    assert code == 2 and "error" in err


def test_ehrhart_scalar_and_tensor(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["ehrhart", "-r", "0"])
    assert code == 0
    assert json.loads(out) == ["1", "3/2", "1/2"]
    code, out, _ = run_cli(monkeypatch, capsys, ["ehrhart", "-r", "1"])
    payload = json.loads(out)
    assert len(payload) == 4
    assert payload[0]["coords"] == {}


def test_verification_subcommands_pass(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["reciprocity", "-r", "1"])
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run_cli(monkeypatch, capsys, ["covariance", "-r", "2", "-y", "1,1"])
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run_cli(
        monkeypatch, capsys, ["equivariance", "-r", "2", "--matrix", "[[1,1],[0,1]]"]
    )
    assert code == 0 and json.loads(out)["pass"] is True


def test_failing_report_maps_to_exit_one():
    assert cli._report_exit(CheckReport("demo", False, ["bad"])) == 1


def test_nval(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["nval"])
    assert code == 0
    assert json.loads(out)["coords"]["9,0"] == "1/5832000"
    code, out, _ = run_cli(monkeypatch, capsys, ["nval", "--check-independence", "3"])
    payload = json.loads(out)
    assert code == 0
    assert payload["independence"] == {"trials": 3, "all_equal": True}


def test_rank_planar_and_prism(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["rank", "-n", "2", "-r", "3", "--parity", "+1"], stdin="")
    assert code == 0
    assert json.loads(out) == {"unknowns": 4, "rank": 3, "kernel_dim": 1}
    code, out, _ = run_cli(
        monkeypatch, capsys, ["rank", "-n", "2", "-r", "3", "--parity", "+1", "--kernel"], stdin=""
    )
    basis = json.loads(out)["kernel_basis"]
    assert len(basis) == 1 and basis[0]["rank"] == 3
    code, out, _ = run_cli(monkeypatch, capsys, ["rank", "-n", "3", "-r", "4"], stdin="")
    assert json.loads(out) == {"unknowns": 15, "rank": 15, "kernel_dim": 0}


def test_rank_survey_csv(monkeypatch, capsys):
    code, out, _ = run_cli(monkeypatch, capsys, ["rank", "--survey"], stdin="")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,assembly,unknowns,rank,kernel_dim,matches_expected"
    assert len(lines) == 1 + 6 * 3
    even9 = next(line for line in lines if line.startswith("9,even"))
    assert even9 == "9,even,10,8,2,True"


SURVEY_EXTRAS = {
    "dim": ["-n", "2"],
    "rank": ["-r", "3"],
    "parity": ["--parity", "+1"],
    "filter": ["--filter", "all"],
    "kernel": ["--kernel"],
    "refused-values": ["-r", "-7655179222832", "--parity", "2"],
}


@pytest.mark.parametrize("flags", SURVEY_EXTRAS.values(), ids=SURVEY_EXTRAS)
def test_rank_survey_refuses_the_other_options(monkeypatch, capsys, flags):
    # --survey ignored them and exited 0, even on values the other form of rank refuses; a given default counts too
    error = cli_error(monkeypatch, capsys, ["rank", "--survey", *flags, "--format", "json"], stdin="")
    assert error == "--survey takes none of -n, -r, --parity, --filter and --kernel"


def test_determinism(monkeypatch, capsys):
    a = run_cli(monkeypatch, capsys, ["equivariance", "-r", "2", "--seed", "5"])
    b = run_cli(monkeypatch, capsys, ["equivariance", "-r", "2", "--seed", "5"])
    assert a == b
    c = run_cli(monkeypatch, capsys, ["nval", "--check-independence", "2", "--seed", "3"])
    d = run_cli(monkeypatch, capsys, ["nval", "--check-independence", "2", "--seed", "3"])
    assert c == d


def test_consecutive_calls_share_no_state(monkeypatch, capsys):
    # the parser is built once per process; a call must not see an earlier call's arguments
    seeded = ["equivariance", "-r", "2", "--seed", "5"]
    default = ["equivariance", "-r", "2"]
    alone = []
    for argv in (seeded, default):
        cli.build_parser.cache_clear()
        alone.append(run_cli(monkeypatch, capsys, argv))
    cli.build_parser.cache_clear()
    assert [run_cli(monkeypatch, capsys, argv) for argv in (seeded, default)] == alone
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser().parse_args(seeded).seed == 5
    assert cli.build_parser().parse_args(default).seed == 0


def test_malformed_input_exits_two(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["count"], stdin="not json")
    assert code == 2
    assert "error" in json.loads(err)
    code, _, err = run_cli(monkeypatch, capsys, ["count"], stdin='{"vertices": "nope"}')
    assert code == 2
    code, _, err = run_cli(monkeypatch, capsys, ["count"], stdin='{"vertices": [[0,0],[1,"x"]]}')
    assert code == 2


@pytest.mark.parametrize(
    "argv", [["rank", "--filter", "bad"], ["count", "--bogus"], ["tensor", "-r", "x"], ["tensor"], ["frob"], []]
)
def test_usage_errors_exit_two_with_a_json_error(argv):
    # argparse printed its usage text and raised SystemExit(2) outside main's JSON contract
    done = in_child(argv, T2_JSON)
    assert done.returncode == 2 and done.stdout == ""
    assert "usage:" not in done.stderr and done.stderr.count("\n") == 1
    assert json.loads(done.stderr)["error"]


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: lattens")


def test_caps_exit_two(monkeypatch, capsys):
    code, _, err = run_cli(monkeypatch, capsys, ["ehrhart", "-r", "99"])
    assert code == 2 and "rank" in json.loads(err)["error"]
    code, _, err = run_cli(monkeypatch, capsys, ["rank", "-n", "9", "-r", "4"], stdin="")
    assert code == 2
    code, _, err = run_cli(monkeypatch, capsys, ["rank", "-n", "2", "-r", "3", "--parity", "2"], stdin="")
    assert code == 2
    seven = json.dumps({"vertices": [[0] * 7, [1] * 7]})
    code, _, err = run_cli(monkeypatch, capsys, ["count"], stdin=seven)
    assert code == 2


def test_nval_rejects_higher_dimension(monkeypatch, capsys):
    cube = json.dumps({"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    code, _, err = run_cli(monkeypatch, capsys, ["nval"], stdin=cube)
    assert code == 2


def cli_error(monkeypatch, capsys, argv, stdin=T2_JSON) -> str:
    """Run a refused invocation: exit 2, nothing on stdout, one JSON error on stderr."""
    code, out, err = run_cli(monkeypatch, capsys, argv, stdin)
    assert code == 2 and out == ""
    return json.loads(err)["error"]


def test_scan_cap_exits_two(monkeypatch, capsys):
    huge = json.dumps({"vertices": [[0, 0], [100000, 0], [0, 100000]]})
    assert "too large" in cli_error(monkeypatch, capsys, ["count"], stdin=huge)


def test_lower_dimensional_expansion_is_not_refused(monkeypatch, capsys):
    # a segment in Z^6: its dilates have at most 91 points, in boxes of up to 91^6 cells
    vertices = [[0] * 6, [5] * 6]
    start = time.perf_counter()
    code, out, _ = run_cli(monkeypatch, capsys, ["ehrhart", "-r", "12"], stdin=json.dumps({"vertices": vertices}))
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5
    expansion = EhrhartTensorExpansion(12, tuple(SymTensor.from_json_dict(c) for c in json.loads(out)))
    p = from_points(vertices)
    for k in (1, 2):
        assert expansion.evaluate_at(k) == discrete_moment(dilate(p, k), 12)


def faulhaber_coefficients(e):
    """[c_0..c_(e+1)] with sum_(x=1..t) x^e = sum_j c_j t^j, by Bernoulli's formula with B_1 = +1/2."""
    bernoulli = [Fraction(1)]
    for i in range(1, e + 1):
        bernoulli.append(-sum(comb(i + 1, j) * bernoulli[j] for j in range(i)) / (i + 1))
    if e >= 1:
        bernoulli[1] = -bernoulli[1]
    c = [Fraction(0)] * (e + 2)
    for j in range(e + 1):
        c[e + 1 - j] = comb(e + 1, j) * bernoulli[j] / (e + 1)
    return c


def test_faulhaber_oracle_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x, t = sympy.symbols("x t")
    for e in (0, 1, 2, 12):
        poly = sympy.Poly(sympy.summation(x**e, (x, 1, t)), t)
        assert [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())] == faulhaber_coefficients(e)


def test_ehrhart_scan_cap_sees_the_largest_closed_node():
    # L^12(k[0, N]) = (1/12!) sum_(x=1..kN) x^12; the nodes -6..7 walk 7P at most, 42,000,001 cells, inside the
    # cap, where the closed nodes 0..13 would walk 13P; 8,000,000 still takes 56,000,001 cells and is refused
    n = 6_000_000
    done = in_child(["ehrhart", "-r", "12"], stdin=json.dumps({"vertices": [[0], [n]]}))
    assert done.returncode == 0, done.stderr
    coefficients = [SymTensor.from_json_dict(c).coord((12,)) for c in json.loads(done.stdout)]
    assert coefficients == [c * n**j / factorial(12) for j, c in enumerate(faulhaber_coefficients(12))]
    assert "too large" in refused_at_once(["ehrhart", "-r", "12"], stdin=json.dumps({"vertices": [[0], [8_000_000]]}))


def test_cli_runs_without_numpy():
    # importing numpy fails in the child: the library must not need it
    script = (
        "import sys; sys.modules['numpy'] = None\n"
        "from lattens import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (["count"], ["ehrhart", "-r", "2"]):
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], input=T2_JSON, capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)


@pytest.mark.parametrize(
    "argv", [["rank", "-n", "2", "-r", "3"], ["rank", "--survey", "--format", "json"], ["count"]],
    ids=["rank", "survey", "count"],
)
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_two_with_a_json_error(argv, unbuffered):
    # the reader closes stdout before the child writes: with an unbuffered stdout each exited 1 with a
    # BrokenPipeError traceback, and with a buffered one 120, when the interpreter's flush at exit failed
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    child = subprocess.Popen(
        [sys.executable, "-m", "lattens.cli", *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    child.stdout.close()
    _, err = child.communicate(T2_JSON, timeout=10)
    assert child.returncode == 2 and err.count("\n") == 1
    assert "Broken pipe" in json.loads(err)["error"]


def test_non_object_json_exits_two(monkeypatch, capsys):
    assert "vertices" in cli_error(monkeypatch, capsys, ["count"], stdin="[1,2]")


def test_negative_steps_exit_two(monkeypatch, capsys):
    assert "steps" in cli_error(monkeypatch, capsys, ["equivariance", "-r", "2", "--steps", "-1"])


def refused_at_once(argv, stdin=T2_JSON) -> str:
    """Like cli_error, in a child process (see in_child)."""
    done = in_child(argv, stdin)
    assert done.returncode == 2 and done.stdout == ""
    return json.loads(done.stderr)["error"]


def test_too_many_steps_exit_two():
    assert "steps" in refused_at_once(["equivariance", "-r", "1", "--steps", "100000000"])


def test_too_many_independence_trials_exit_two():
    assert "independence" in refused_at_once(["nval", "--check-independence", "100000000"])


def test_nval_refuses_too_many_triangles_before_triangulating():
    # 4 million unimodular triangles; a tenth of this took over a minute without the cap
    big = json.dumps({"vertices": [[0, 0], [2000, 0], [0, 2000]]})
    assert "triangles" in refused_at_once(["nval"], stdin=big)


def test_nval_refuses_too_much_flip_walk_work_before_walking():
    # 1000 walks of 800 flips on 400 triangles, trials * T = 400,000, would take about a minute
    argv = ["nval", "--check-independence", "1000"]
    assert "check-independence" in refused_at_once(argv, stdin=json.dumps({"vertices": [[0, 0], [20, 0], [0, 20]]}))


def test_nval_caps_are_inclusive(monkeypatch, capsys):
    # NINE_TRIANGLES has T = 9: 2 trials need 2 * 9 = 18 trial triangles
    monkeypatch.setattr(cli, "NVAL_MAX_TRIANGLES", 9)
    monkeypatch.setattr(cli, "NVAL_MAX_WORK", 18)
    code, _, _ = run_cli(monkeypatch, capsys, ["nval", "--check-independence", "2"], stdin=NINE_TRIANGLES)
    assert code == 0
    error = cli_error(monkeypatch, capsys, ["nval", "--check-independence", "3"], stdin=NINE_TRIANGLES)
    assert "3 x 9 trial triangles, capped at 18" in error
    monkeypatch.setattr(cli, "NVAL_MAX_TRIANGLES", 8)
    assert "9 unimodular triangles" in cli_error(monkeypatch, capsys, ["nval"], stdin=NINE_TRIANGLES)


def test_nval_time_does_not_grow_with_triangle_width():
    # T = 1000 triangles up to 1000 wide, inside the cap; it took 10-15 s while each new
    # triangle shape was enumerated, and the digest is that code's output
    done = in_child(["nval"], stdin=json.dumps({"vertices": [[0, 0], [2000, 1], [1000, 1]]}))
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "29fe0e81be9d81fb41f5701872dd2822887eed921553bdbdb785c01a81dc0dbe"
    )


def test_high_rank_moment_of_few_points_in_a_dense_lattice():
    # a unimodular 5-simplex in Z^6 off the origin: its 6 points are summed one by one,
    # where a plan from its dense lattice rows would have up to 6188 x 6188 entries at rank 12
    o = (1, -2, 0, 3, 1, -1)
    edges = [(1, 0, 0, 0, 0, 2), (3, 1, 0, 0, 0, -1), (-2, 1, 1, 0, 0, 4), (1, -3, 2, 1, 0, 1), (2, 2, -1, 3, 1, -2)]
    vertices = [o] + [tuple(a + b for a, b in zip(o, e)) for e in edges]
    done = in_child(["tensor", "-r", "12"], stdin=json.dumps({"vertices": vertices}))
    assert done.returncode == 0, done.stderr
    expected = SymTensor.zero(6, 12)
    for v in vertices:
        expected = expected + sym_power(v, 12)
    assert SymTensor.from_json_dict(json.loads(done.stdout)) == expected * Fraction(1, factorial(12))


def test_hull_subset_cap_exits_two():
    cube = json.dumps({"vertices": [list(v) for v in itertools.product((0, 1), repeat=6)]})
    assert "subsets" in refused_at_once(["count"], stdin=cube)


def test_matrix_dimension_mismatch_exits_two(monkeypatch, capsys):
    argv = ["equivariance", "-r", "1", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]"]
    assert "matrix" in cli_error(monkeypatch, capsys, argv)


def test_bool_coordinates_exit_two(monkeypatch, capsys):
    bools = '{"vertices": [[true,false],[false,true],[false,false]]}'
    assert "integers" in cli_error(monkeypatch, capsys, ["count"], stdin=bools)


def test_nested_list_coordinates_exit_two(monkeypatch, capsys):
    nested = '{"vertices": [[[0],0],[1,0],[0,1]]}'
    assert "integers, not [0]" in cli_error(monkeypatch, capsys, ["count"], stdin=nested)


def test_string_coordinates_exit_two(monkeypatch, capsys):
    strings = '{"vertices": [["0",0],[1,0],[0,1]]}'
    assert "integers, not '0'" in cli_error(monkeypatch, capsys, ["count"], stdin=strings)


def test_float_coordinates_exit_two(monkeypatch, capsys):
    floats = '{"vertices": [[0.5,0],[1,0],[0,1]]}'
    assert "integers, not 0.5" in cli_error(monkeypatch, capsys, ["count"], stdin=floats)


def test_a_vertex_that_is_not_a_list_exits_two(monkeypatch, capsys):
    assert "lists" in cli_error(monkeypatch, capsys, ["count"], stdin='{"vertices": [[0,0],[1,0],3]}')


def test_negative_independence_trials_exit_two(monkeypatch, capsys):
    assert "independence" in cli_error(monkeypatch, capsys, ["nval", "--check-independence", "-3"])


def test_non_integer_matrix_exits_two(monkeypatch, capsys):
    argv = ["equivariance", "-r", "1", "--matrix", "[[1.7,0],[0,1]]"]
    assert "integers" in cli_error(monkeypatch, capsys, argv)


# stdout digests recorded before half-space mapping and integer interpolation
# replaced re-hulling and Fraction interpolation; outputs must stay byte-identical
FULL_3D = '{"vertices": [[0,0,0],[3,0,0],[0,2,0],[1,2,0],[0,0,2],[2,1,3]]}'
FLAT_3D = '{"vertices": [[0,0,0],[2,1,0],[1,0,1],[3,1,1]]}'
NINE_TRIANGLES = '{"vertices": [[0,0],[3,0],[0,3]]}'  # doubled area 9: nine unimodular triangles
PASS_REPORT = {
    "reciprocity": "9b87443f7924ef8ac754fee2a15e8afce8e741b3cb8bc85820d74588b8312765",
    "covariance": "67fd8e5935b9295dd38f42bd97008381eabaaa244d4889107af0beedac7fdbf2",
    "equivariance": "70383c76e8c27acf3f69f2f3d40c829ebbdc6005890f6ef52b9817506487902e",
}
GOLDEN = [
    (["ehrhart", "-r", "0"], FULL_3D, "7452d388e21fa2b1669370f93228ac6659ae01e88df0849fe20cbf8283459b00"),
    (["ehrhart", "-r", "3"], FULL_3D, "1bd6d0412745a0a9065daaddcb7583f2fd7b2d118d44dbcfe72a569740c10266"),
    (["reciprocity", "-r", "2"], FULL_3D, PASS_REPORT["reciprocity"]),
    (["covariance", "-r", "2", "--translation", "1,-2,3"], FULL_3D, PASS_REPORT["covariance"]),
    (["equivariance", "-r", "2", "--seed", "5"], FULL_3D, PASS_REPORT["equivariance"]),
    (["tensor", "--moment", "-r", "2"], FULL_3D, "fd60d0e70a5230ed589886a2605fcdb0c6701cb8a457469d752e2f3f93416b58"),
    (["count"], FULL_3D, "9483e2a9498da7564c77a67c1dba54d68439fe9e101126f9b3ae4a7f3411fe27"),
    (["ehrhart", "-r", "0"], FLAT_3D, "82813c8063164fe99ea312594ced5578ae22a52f4764273a7564fe498b3961c2"),
    (["ehrhart", "-r", "3"], FLAT_3D, "bb735dd6d27c2ecf24a518be8c6b5a48570a129eb425f7ed47ef894bf9949eec"),
    (["reciprocity", "-r", "2"], FLAT_3D, PASS_REPORT["reciprocity"]),
    # recorded before the classification rows were built as integer pull-backs
    (["rank", "--survey"], "", "9dc8c9d030fc60e6c367dfb64f15bb362c504c8e31472d064607d606cc7986b9"),
    (["rank", "--survey", "--format", "json"], "", "d82fb6283e4cc2a9d3a4486ecea9f02cffb320d0dcf9bda228c20734d8091402"),
    (["rank", "-n", "2", "-r", "9", "--kernel", "--parity", "+1"], "",
     "70dc12d371f1ed5767080ed2bb9596584d17c62bc2296c01f03cb09d47003072"),
    (["rank", "-n", "2", "-r", "4", "--parity", "-1", "--kernel"], "",
     "45f26d5fce6ce70bdf5d3549e1169890c96d78554301fdd36d8267fcd97f5c2d"),
    (["rank", "-n", "3", "-r", "5", "--filter", "en-odd"], "",
     "d1ee429236e3b52677e58d54ad0bea727bec67d34cdfcb91e922316255d86067"),
    (["nval", "--check-independence", "2", "--seed", "3"], NINE_TRIANGLES,
     "baf4a4965a35e8d92e480403f2ce5c7210a5aacdcd207734b277ed0a02215ca5"),
    # recorded before the prism rank streamed its rows
    (["rank", "-n", "7", "-r", "8"], "", "85efedc550eec3fe4d705974885b09abc0e37ceb5f764c82c1ca5d69341f34d2"),
    (["rank", "-n", "4", "-r", "8", "--kernel"], "",
     "847a673942e8d868688f0e898ceb6e2bd7a5f7f19afaf2f703016de3b98ef478"),
    (["rank", "-n", "3", "-r", "4", "--filter", "en-odd", "--kernel"], "",
     "fdbdc52342b568e6960ee6f210b4b1c40b435f246f8bb59ffe01aaba7862e0bb"),
]


@pytest.mark.parametrize("argv, stdin, digest", GOLDEN)
def test_golden_stdout_bytes(monkeypatch, capsys, argv, stdin, digest):
    code, out, _ = run_cli(monkeypatch, capsys, argv, stdin)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# undecodable input: each of these once exited 1 with a traceback, the code kept for a failing check
LONG_LITERAL = ('{"vertices": [[' + "9" * 5000 + ", 0], [1, 0], [0, 1]]}").encode()
DEEP_NESTING = "[" * 100_000 + "]" * 100_000
FILE = "<file>"  # replaced by the path of a file that holds the input bytes
UNDECODABLE = {
    "non-utf8-file": (["count", "--input", FILE], b"\xff\xfe", "cannot read polytope JSON"),
    "non-utf8-stdin": (["count"], b"\xff", "cannot read polytope JSON"),
    "long-literal-stdin": (["count"], LONG_LITERAL, "cannot read polytope JSON"),
    "long-literal-file": (["count", "--input", FILE], LONG_LITERAL, "cannot read polytope JSON"),
    "deep-polytope": (["count"], DEEP_NESTING.encode(), "cannot read polytope JSON"),
    "deep-matrix": (["equivariance", "-r", "1", "--matrix", DEEP_NESTING], T2_JSON.encode(), "bad matrix"),
}


def run_on_bytes(argv, data: bytes, path: Path):
    """main on data, read from a strict UTF-8 stdin or, in place of FILE, from path; (code, stdout, stderr)."""
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(path) if arg == FILE else arg for arg in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, data, prefix", UNDECODABLE.values(), ids=UNDECODABLE)
def test_undecodable_input_exits_two_with_a_json_error(tmp_path, argv, data, prefix):
    code, out, err = run_on_bytes(argv, data, tmp_path / "input.json")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"].startswith(prefix)


def test_undecodable_input_prints_no_traceback():
    for stdin in (DEEP_NESTING, LONG_LITERAL.decode()):
        done = in_child(["count"], stdin=stdin)
        assert done.returncode == 2 and done.stdout == "" and "Traceback" not in done.stderr
        assert json.loads(done.stderr)["error"].startswith("cannot read polytope JSON")


# -- contract fuzzer ------------------------------------------------------------------------
# Accepted work stays small: coordinates in [-3, 3], at most 8 points, drawn ranks, dimensions and
# steps at most 3 (--steps defaults to 6), nval trials x triangles at most 50. Larger ones are past a
# cap that refuses them before any work, and a huge coordinate leaves a box past the scan or triangle
# cap, or a polytope of few points; no coordinate lies in 4..10^12, so no thin wide polygon, whose
# walk pays for its width, is drawn. Nothing starts a process or a thread.
SMALL = st.integers(-3, 3)
HUGE = st.integers(10**12, 10**40) | st.integers(-(10**40), -(10**12))
# no token holds a decimal digit, so none reads as an accepted number, and none starts with "-"
# (MALFORMED_FLAGS has those), so none asks for --help
TEXT = st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=4).filter(lambda t: not t.startswith("-"))
TOKENS = TEXT | st.sampled_from(["", "1.5", "1e3", "0x1", " 2", "+1", "-0", "9" * 5000, "\udcff", "[", "[" * 2000])
MALFORMED_FLAGS = ["--bogus", "-", "--", "-r", "--rank=", "--input", "-i", "--seed", "--matrix", "-x", "---", "-r-1"]
JUNK = st.one_of(
    st.booleans(), st.none(), st.floats(), st.text(max_size=3), st.lists(SMALL, max_size=2), HUGE,
    st.dictionaries(st.text(max_size=2), SMALL, max_size=1),
)
POINTS = st.integers(1, 3).flatmap(lambda n: st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=1, max_size=8))


def mostly(usual, odd):
    """usual about seven times in eight, else odd."""
    return st.sampled_from([usual] * 7 + [odd]).flatmap(lambda s: s)


def numbers(lo: int, hi: int, refused_from: int):
    """Mostly decimal strings of [lo, hi], else of numbers from refused_from on, huge negative ones, or odd tokens."""
    refused = st.integers(refused_from, 10**40) | HUGE.filter(lambda x: x < 0)
    return mostly(st.integers(lo, hi).map(str), refused.map(str) | TOKENS)


@st.composite
def spoiled_points(draw):
    """A point list with one coordinate replaced by a value of another type, or by a huge one."""
    points = draw(POINTS)
    i = draw(st.integers(0, len(points) - 1))
    points[i][draw(st.integers(0, len(points[i]) - 1))] = draw(JUNK)
    return points


DEPTHS = st.sampled_from([2, 900, 990, 1000, 1100, 100_000])
POLYTOPE_TEXT = mostly(
    POINTS.map(lambda vertices: json.dumps({"vertices": vertices})),
    st.one_of(
        st.one_of(spoiled_points(), st.lists(st.lists(SMALL, max_size=7), max_size=4), JUNK)
        .map(lambda vertices: json.dumps({"vertices": vertices})),
        JUNK.map(json.dumps),
        DEPTHS.map(lambda d: '{"vertices": ' + "[" * d + "]" * d + "}"),
        DEPTHS.map(lambda d: "[" * d + "]" * d),
        st.sampled_from([4300, 4301, 5000]).map(lambda k: '{"vertices": [[' + "9" * k + "]]}"),
    ),
)
ODD_BYTES = st.binary(max_size=6) | POLYTOPE_TEXT.map(lambda t: b"\xff" + t.encode())
INPUT_BYTES = mostly(POLYTOPE_TEXT.map(str.encode), ODD_BYTES)
MATRICES = mostly(
    st.sampled_from([[[1, 1], [0, 1]], [[0, -1], [1, 0]], [[1]], [[1, 0, 2], [0, 1, -1], [0, 0, 1]]]).map(json.dumps),
    st.one_of(
        st.integers(1, 3).flatmap(lambda n: st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=n, max_size=n)),
        st.lists(JUNK, max_size=3),
        JUNK,
    ).map(json.dumps) | TOKENS | DEPTHS.map(lambda d: "[" * d + "]" * d),
)


def nval_triangles(data: bytes) -> int:
    """The unimodular triangles of the polygon in data, or 0 if data is no polygon nval accepts."""
    try:
        vertices = json.loads(data)["vertices"]
        return tri2d._hull_doubled_area([tuple(v) for v in vertices if len(v) == 2])
    except (ValueError, TypeError, KeyError, RecursionError):
        return 0


@st.composite
def invocations(draw):
    """(argv, input bytes): one subcommand, its options, and now and then a malformed flag."""
    name = draw(mostly(st.sampled_from([*cli._POLYTOPE_HANDLERS, "rank", "rank"]), TOKENS))
    argv, data = [name], draw(INPUT_BYTES)

    def option(flag, values, weight=1):
        if draw(st.sampled_from([True] * weight + [False])):
            argv.extend([flag, draw(values)])

    if name == "rank":
        option("-n", numbers(-3, 3, cli.PRISM_MAX_DIM + 1))
        option("-r", numbers(-3, 3, cli.PLANAR_MAX_RANK + 1))
        option("--parity", mostly(st.sampled_from(["+1", "-1", "1"]), st.sampled_from(["0", "2"]) | TOKENS))
        option("--filter", st.sampled_from(["all", "en-odd", "en-even", "bad"]))
        option("--format", st.sampled_from(["json", "csv", "xml"]))
        argv += draw(st.lists(st.sampled_from(["--kernel", "--survey"]), max_size=2))
    elif name in cli._POLYTOPE_HANDLERS:
        if name not in ("count", "nval"):
            option("-r", numbers(-3, 3, cli.EHRHART_MAX_RANK + 1), weight=4)
        if name == "tensor":
            argv += draw(st.lists(st.sampled_from(["--relint", "--moment"]), max_size=2))
        if name == "covariance":
            vectors = st.lists(SMALL, min_size=1, max_size=4).map(lambda v: ",".join(map(str, v)))
            option("-y", mostly(vectors, TOKENS), weight=4)
        if name == "equivariance":
            option("--matrix", MATRICES)
            option("--seed", numbers(-3, 3, 10**12))
            option("--steps", numbers(-3, 3, cli.EQUIVARIANCE_MAX_STEPS + 1))
        if name == "nval":
            option("--seed", numbers(-3, 3, 10**12))
            trials = 50 // max(nval_triangles(data), 1)
            option("--check-independence", numbers(0, trials, cli.NVAL_MAX_TRIALS + 1))
        if draw(st.booleans()):
            argv += ["--input", FILE]
    if draw(mostly(st.just(False), st.just(True))):
        for _ in range(draw(st.integers(1, 2))):
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(MALFORMED_FLAGS) | TOKENS))
    return argv, data


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(invocation=invocations())
@example(invocation=(["count", "--input", FILE], b"\xff\xfe"))
@example(invocation=(["count"], b"\xff"))
@example(invocation=(["count"], LONG_LITERAL))
@example(invocation=(["tensor", "-r", "1", "--input", FILE], LONG_LITERAL))
@example(invocation=(["count"], DEEP_NESTING.encode()))
@example(invocation=(["equivariance", "-r", "1", "--matrix", DEEP_NESTING], T2_JSON.encode()))
def test_every_invocation_keeps_the_exit_code_contract(fuzz_path, invocation):
    """In process, no exception leaves main, and it exits 0, 1 or 2; exit 2 prints one JSON error, nothing else."""
    code, out, err = run_on_bytes(*invocation, fuzz_path)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and isinstance(json.loads(err)["error"], str)
    else:
        assert out and err == ""
