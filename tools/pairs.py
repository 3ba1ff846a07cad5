"""Alternating benchmark pairs: a parent checkout against a change, end-to-end metric by metric.

    python tools/pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K]

PARENT and CHANGE are the roots of two checkouts (they may be the same).
Each pair runs perfbench/run.py --trace 0 once in each of them, the parent
first in even pairs and the change first in odd ones, so that a drift in
machine speed weighs on both sides alike.  Every run writes its record to
a temporary directory, so neither checkout changes.  The table gives, per
end-to-end metric of BENCHMARK.json, the median and the quartiles of the
parent's runs and of the change's, and the number of pairs in which the
change is better (a tie is not).  The run exits 1 if any run fails or
reports a result that is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run(checkout: Path, args, results: Path) -> dict | None:
    """The last stdout line of one perfbench run in checkout, or None when the run fails."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--results", str(results),
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"run in {checkout} exited {done.returncode}: {done.stderr.strip()[-2000:]}", file=sys.stderr)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=("identities", "dilates", "classify", "flips"))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    records = {side: [] for side in SIDES}
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                record = run(getattr(args, side).resolve(), args, Path(tmp) / side)
                if not record or record.get("correct") is not True:
                    print(f"pair {i + 1}, {side}: not correct", file=sys.stderr)
                    wrong += 1
                    continue
                records[side].append(record["metrics"])
            print(f"pair {i + 1} of {args.pairs} done", file=sys.stderr, flush=True)
    if wrong:
        return 1

    print(f"{args.workload}, seed {args.seed}, --seconds {args.seconds:g}, pairs: {args.pairs}; "
          "median [q1, q3], parent -> change")
    for metric in metrics:
        name = metric["name"]
        values = {side: [m[name]["value"] for m in records[side]] for side in SIDES}
        (p1, p2, p3), (c1, c2, c3) = (quartiles(values[side]) for side in SIDES)
        sign = 1 if metric["better"] == "higher" else -1
        better = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        change = f"{100 * (c2 - p2) / p2:+.1f}%" if p2 else "n/a"
        print(f"  {name:<16} {p2:.4g} [{p1:.4g}, {p3:.4g}] -> {c2:.4g} [{c1:.4g}, {c3:.4g}] {metric['unit']}"
              f"  ({change}), change {metric['better']} in {better} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
