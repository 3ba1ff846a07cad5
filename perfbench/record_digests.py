"""Record output digests of the default seed into perfbench/expected.json.

    python3 perfbench/record_digests.py

Run once on the commit whose outputs are the reference; later runs of the
benchmark on seed 0 must reproduce every digest.  Classification outputs do
not depend on the seed (the seed only orders the jobs), so they are stored
under "*" and checked on every seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import HARD_LIMIT_S, HERE, _worker

SEED = 0
SEED_FREE = {"classify"}


def main() -> int:
    out = {}
    for workload in ("identities", "dilates", "classify", "flips"):
        args = argparse.Namespace(workload=workload, seed=SEED, size=None, expected=None)
        report = _worker(args, time.monotonic() + HARD_LIMIT_S)
        if report["problems"] or any("error" in job for job in report["jobs"]):
            print(f"{workload}: not recording a run with problems or failed jobs", file=sys.stderr)
            return 1
        key = "*" if workload in SEED_FREE else str(SEED)
        out[workload] = {f"{key}/{job['id']}": job["output"] for job in report["jobs"]}
        print(f"{workload}: {len(out[workload])} digests", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
