"""One measured pass in a fresh interpreter: set up, run the job list, report.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N --spawned-ns T
        [--trace] [--setup-only] [--size N] [--expected FILE] [--spans FILE]

Set-up is everything between the parent starting this process (monotonic
clock reading --spawned-ns) and the first job: interpreter start, imports
of numpy and lattens, and input generation.  A few reference slices follow
set-up, then jobs run back to back in this one thread, with a reference
slice between two jobs whenever REF_EVERY_NS has passed since the last one
(see reference.py).  Checks run after the last job.  The report is one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
import types
from pathlib import Path

# a reference slice runs between jobs at most this often
REF_EVERY_NS = 100_000_000
# slices right after set-up, the first of them a warm-up
SETUP_SLICES = 4


def _load_library(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (part of set-up: the library imports it)

    from lattens import classify, cli, ehrhart, linalg, points, polytope, tensor, tri2d

    if not Path(polytope.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"lattens was imported from {polytope.__file__}, not from {src}")
    return types.SimpleNamespace(
        classify=classify, cli=cli, ehrhart=ehrhart, linalg=linalg,
        points=points, polytope=polytope, tensor=tensor, tri2d=tri2d,
    )


def _pin_to_current_cpu() -> None:
    """Keep this process on the CPU it started on, so that the reference
    slices and the jobs they calibrate run on the same core."""
    try:
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
        if cpu in os.sched_getaffinity(0):
            os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        pass


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--size", type=int)
    ap.add_argument("--expected")
    ap.add_argument("--spans")
    args = ap.parse_args()

    _pin_to_current_cpu()
    root = Path(args.root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import reference
    import tracing
    import workloads

    lib = _load_library(root)
    workload = workloads.WORKLOADS[args.workload]
    jobs = workload.make(args.seed)[: args.size]
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    setup_ref_s = [reference.run_slice() / 1e9 for _ in range(SETUP_SLICES)][1:]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s, "jobs": len(jobs)}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, lib)

    outputs, seconds, starts, errors = [], [], [], {}
    refs = []  # (start, duration) of each reference slice, ns from the first job's start
    clock = time.perf_counter_ns
    start = last_ref = clock()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        if i and clock() - last_ref >= REF_EVERY_NS:
            t_ref = clock()
            refs.append((t_ref - start, reference.run_slice()))
            last_ref = clock()
        t0 = clock()
        starts.append(t0 - start)
        try:
            out = workload.run(lib, job)
        except Exception as exc:  # a job that raises or is refused counts as failed
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"[:300]
        seconds.append((clock() - t0) / 1e9)
        outputs.append(out)
        if tracer is not None and isinstance(out, str):
            tracer.count("cli.bytes_out", len(out.encode()))
    refs.append((clock() - start, reference.run_slice()))
    wall_ns = round(sum(seconds) * 1e9)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems = workload.check(jobs, outputs)
    expected = json.loads(Path(args.expected).read_text()).get(args.workload, {}) if args.expected else {}
    digests = [None if out is None else workloads.output_digest(out) for out in outputs]
    for job, got in zip(jobs, digests):
        want = expected.get(f"{args.seed}/{job.id}", expected.get(f"*/{job.id}"))
        if got is not None and want is not None and want != got:
            problems.append(f"{job.id}: output digest {got}, recorded {want}")

    report = {
        "versions": {"python": sys.version.split()[0], "numpy": sys.modules["numpy"].__version__},
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": wall_ns / 1e9,
        "ref": [[t / 1e9, d / 1e9] for t, d in refs],
        "peak_rss_mb": peak_kb / 1024,
        "problems": problems,
        "jobs": [
            {"id": job.id, "input": job.input_digest, "output": d, "t0": t0 / 1e9, "s": s,
             **({"error": errors[i]} if i in errors else {})}
            for i, (job, d, t0, s) in enumerate(zip(jobs, digests, starts, seconds))
        ],
    }
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer, wall_ns, tracing.shape_cache(lib))
        report["per_job"] = {jobs[j].id: rec for j, rec in tracer.per_job().items() if j >= 0}
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
