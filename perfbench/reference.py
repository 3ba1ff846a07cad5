"""A fixed slice of reference work that tracks how fast the machine runs now.

On a shared host the speed of one core drifts by a fifth or more within
seconds and across minutes, and a job's time drifts with it.  The worker
runs a reference slice between jobs (never inside one) and the runner
divides each job's time by the reference time measured around it, then
scales by REF_NOMINAL_S: calibrated times read as if on a machine where one
slice takes REF_NOMINAL_S.  Library changes cannot move the slice: it calls
nothing in lattens.  Its mix follows the library's: exact Fraction
elimination in Python (as in linalg) and a numpy box scan (as in points).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

# one slice takes about this long on a 2-vCPU Xeon VM at its median speed
REF_NOMINAL_S = 0.006

_rng = random.Random("perfbench-reference")
_MATRIX = [[_rng.randint(-9, 9) for _ in range(12)] for _ in range(10)]
_ROWS = np.array([[_rng.randint(-3, 3) for _ in range(4)] for _ in range(8)], dtype=np.int64)
_SIDE = 14


def _eliminate(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _scan() -> int:
    axes = [np.arange(_SIDE, dtype=np.int64)] * 4
    pts = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    mask = np.ones(len(pts), dtype=bool)
    for a in _ROWS:
        mask &= (pts @ a) <= 2 * _SIDE
    return int(mask.sum())


def run_slice() -> int:
    """Run one slice; returns its duration in ns."""
    t0 = time.perf_counter_ns()
    _eliminate(_MATRIX)
    _scan()
    return time.perf_counter_ns() - t0
