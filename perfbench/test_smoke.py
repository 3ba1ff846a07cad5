"""Smoke test of the benchmark harness on the first few jobs of each list.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric of BENCHMARK.json prints with its unit, that a
corrupted recorded digest fails the run, that the recorded digests still
name the jobs the generators make, and that the benchmark refuses to run
without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_results" / "smoke"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# every workload the harness can run, listed in BENCHMARK.json or not
WORKLOADS = sorted(workloads.WORKLOADS)


def _run(workload, *extra, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "0", "--seconds", "0",
           "--size", "3", "--results", str(SCRATCH), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    code, result, err = _run(workload, "--trace", "0")
    assert code == 0, err
    assert result["correct"]
    _assert_metrics(result, BENCH["end_to_end"])
    for m in BENCH["end_to_end"]:
        assert m["name"] in err


def test_per_layer_metrics_print_with_units():
    code, result, err = _run("flips", "--trace", "1")
    assert code == 0, err
    assert result["correct"]
    _assert_metrics(result, BENCH["per_layer"])


def test_corrupted_digest_fails_the_run():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    expected = json.loads((HERE / "expected.json").read_text())
    first = workloads.WORKLOADS["identities"].make(0)[0]
    expected["identities"][f"0/{first.id}"] = "0" * 16
    corrupted = SCRATCH / "corrupted.json"
    corrupted.write_text(json.dumps(expected))
    code, result, err = _run("identities", "--expected", str(corrupted))
    assert code == 1
    assert result is not None and not result["correct"]
    assert "output digest" in err


def test_benchmark_lists_runnable_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


def test_recorded_digests_name_the_generated_jobs():
    expected = json.loads((HERE / "expected.json").read_text())
    for name in WORKLOADS:
        recorded = {key.split("/", 1)[1] for key in expected[name]}
        assert recorded == {job.id for job in workloads.WORKLOADS[name].make(0)}, name


def test_refuses_to_run_without_library_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = _run("flips", cwd=bare, script=bare / "perfbench" / "run.py")
    assert code != 0
    assert result is None
