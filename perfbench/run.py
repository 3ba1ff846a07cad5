"""lattens benchmark: seeded workloads, exact result checks, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/lattens; nothing is
installed.  Workloads (see BENCHMARK.json for why each exists):
identities, dilates, classify, flips.

Load is a closed loop: one worker process runs the whole job list back to
back in one thread, then exits.  Passes repeat, each in a fresh worker, for
about --seconds, so process-wide caches start cold every time.  With
--trace 0 the last stdout line carries the end-to-end metrics (medians over
passes), in calibrated time: each job's time and each set-up time is
divided by the reference time measured around it and scaled to a machine
where one reference slice takes reference.REF_NOMINAL_S (reference.py says
why).  The record and the stderr table also give the raw times.  With --trace 1 passes alternate between untraced ones and traced
ones, which put spans around every public library function; the line
carries the per-layer metrics (medians over traced passes) and the tracing
overhead.  A full record (machine, source, per-job times and
digests, and per-job layer times and counts when traced) goes to
.perfbench_results/ in the checkout.  Any wrong result makes the run exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_NOMINAL_S
from tracing import LAYERS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170
MIN_SETUPS = 9
# about how long one set-up-only worker takes, to plan the run
SETUP_ONLY_S = 0.35
# a job's speed is read from the reference slices that ran within this many
# seconds of it, and at least the nearest one on each side
REF_WINDOW_S = 0.5

END_TO_END = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "completed_share": "ratio",
    "setup_s": "s",
}

# every measured process gets the same interpreter and library settings
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class RunError(RuntimeError):
    pass


def _worker(args, deadline, *extra):
    cmd = [
        sys.executable, "-s", str(HERE / "worker.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    if args.size:
        cmd += ["--size", str(args.size)]
    if args.expected and Path(args.expected).exists():
        cmd += ["--expected", str(args.expected)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before a worker could start")
    env = {**os.environ, **WORKER_ENV}
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-ns", str(spawned)],
            capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _calibrated(report):
    """Each job's time scaled by REF_NOMINAL_S over the reference time around it."""
    refs = [(0.0, d) for d in report["setup_ref_s"]] + [tuple(r) for r in report["ref"]]
    out = []
    for job in report["jobs"]:
        lo, hi = job["t0"], job["t0"] + job["s"]
        before = max((r for r in refs if r[0] <= lo), key=lambda r: r[0])
        after = min((r for r in refs if r[0] >= hi), key=lambda r: r[0])
        near = {before, after} | {r for r in refs if lo - REF_WINDOW_S <= r[0] <= hi + REF_WINDOW_S}
        out.append(job["s"] * REF_NOMINAL_S / statistics.median(d for _, d in near))
    return out


def _list_s(times):
    """Time to run the job list, each job at its median over passes (times[pass][job])."""
    return sum(statistics.median(t[i] for t in times) for i in range(len(times[0])))


def _setup(report):
    """(raw, calibrated) set-up time of one worker."""
    return report["setup_s"], report["setup_s"] * REF_NOMINAL_S / statistics.median(report["setup_ref_s"])


def _machine(versions):
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model or platform.processor(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        **versions,
    }


def _source():
    """Commit (when the checkout is a git work tree) and a digest of src/."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("identities", "dilates", "classify", "flips"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, help="run only the first N jobs of the list (smoke runs)")
    ap.add_argument("--expected", default=str(HERE / "expected.json"), help="recorded output digests")
    ap.add_argument("--results", default=str(ROOT / ".perfbench_results"))
    args = ap.parse_args()

    if not (ROOT / "src" / "lattens" / "__init__.py").is_file():
        print(f"no lattens sources under {ROOT / 'src'}; run from a lattens checkout", file=sys.stderr)
        return 2

    # on SIGTERM, subprocess.run kills and reaps the running worker before exiting
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        # passes repeat while another one, and the set-up-only workers still
        # to come, would end no more than half a pass past --seconds; with
        # --trace 1 they alternate untraced and traced
        passes, traced, last = [], [], 0.0

        def room():
            setups_due = max(0, MIN_SETUPS - len(passes) - len(traced) - 1)
            return args.seconds - (time.monotonic() - start) - last / 2 - setups_due * SETUP_ONLY_S

        while not passes or (args.trace and not traced) or room() > 0:
            extra = ()
            if args.trace and len(traced) < len(passes):
                extra = ("--trace",) if traced else ("--trace", "--spans", str(results / f"{stem}-spans.jsonl.gz"))
            began = time.monotonic()
            report = _worker(args, deadline, *extra)
            last = time.monotonic() - began
            (traced if extra else passes).append(report)
            if report["problems"]:
                break
        setups = [_setup(p) for p in passes + traced]
        while len(setups) < MIN_SETUPS:
            setups.append(_setup(_worker(args, deadline, "--setup-only")))
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    every = passes + traced
    problems = sorted({p for run in every for p in run["problems"]})
    attempted = sum(len(run["jobs"]) for run in every)
    failed = sum(1 for run in every for job in run["jobs"] if "error" in job)
    calibrated = [_calibrated(p) for p in passes]
    # job percentiles are over every timed job run of every pass
    samples = [s for c in calibrated for s in c]
    raw_samples = [job["s"] for p in passes for job in p["jobs"]]
    raw = {
        "wall_s": _list_s([[job["s"] for job in p["jobs"]] for p in passes]),
        "job_p50_ms": 1e3 * statistics.median(raw_samples),
        "job_p90_ms": 1e3 * statistics.quantiles(raw_samples, n=10, method="inclusive")[8],
        "setup_s": statistics.median(raw_s for raw_s, _ in setups),
    }

    if traced:
        # counts repeat exactly; times are medians over the traced passes
        layers = {name: statistics.median(t["layers"][name] for t in traced) for name in traced[0]["layers"]}
        # calibrated like wall_s, so that drift in machine speed between
        # the untraced and the traced passes does not read as overhead
        layers["trace.untraced_wall_s"] = _list_s(calibrated)
        layers["trace.traced_wall_s"] = _list_s([_calibrated(t) for t in traced])
        layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
        self_s = {layer: layers["cli.s" if layer == "cli" else f"{layer}.self_s"] for layer in LAYERS}
        top_layer = max(self_s, key=self_s.get)
    else:
        values = {
            "wall_s": _list_s(calibrated),
            "job_p50_ms": 1e3 * statistics.median(samples),
            "job_p90_ms": 1e3 * statistics.quantiles(samples, n=10, method="inclusive")[8],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "completed_share": (attempted - failed) / attempted,
            "setup_s": statistics.median(cal_s for _, cal_s in setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        top_layer = None

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(passes[0]["versions"]),
        "source": _source(),
        "env": WORKER_ENV,
        "metrics": metrics,
        "raw": raw,
        "ref_nominal_s": REF_NOMINAL_S,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems,
        "jobs_per_pass": len(passes[0]["jobs"]),
        "job_samples": len(samples),
        "passes": [{k: p[k] for k in ("setup_s", "setup_ref_s", "wall_s", "peak_rss_mb", "ref")} for p in passes],
        "setup_samples": setups,
        "jobs": [
            {
                "id": job["id"],
                "input": job["input"],
                "output": job["output"],
                "ms": [round(1e3 * p["jobs"][i]["s"], 3) for p in passes],
                "t0": [round(p["jobs"][i]["t0"], 4) for p in passes],
                "calibrated_ms": [round(1e3 * c[i], 3) for c in calibrated],
                **({"error": job["error"]} if "error" in job else {}),
            }
            for i, job in enumerate(passes[0]["jobs"])
        ],
    }
    if traced:
        record["top_self_layer"] = top_layer
        record["layer_self_s"] = self_s
        record["traced_passes"] = [{k: t[k] for k in ("setup_s", "wall_s", "peak_rss_mb")} for t in traced]
        record["per_job_traced"] = traced[0]["per_job"]
        record["spans"] = f"{stem}-spans.jsonl.gz"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{args.workload:>10} {name:<36} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    if not traced:
        for name, value in raw.items():
            print(f"{args.workload:>10} {'raw ' + name:<36} {value:>14.6g} {END_TO_END[name]}", file=sys.stderr)
    print(f"{args.workload:>10} {'failed_share':<36} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} jobs)", file=sys.stderr)
    if top_layer:
        print(f"{args.workload:>10} largest self time: {top_layer}", file=sys.stderr)
    for p in problems[:20]:
        print(f"WRONG: {p}", file=sys.stderr)

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
