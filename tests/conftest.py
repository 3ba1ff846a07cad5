import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

from hypothesis import strategies as st

from lattens import polytope


def random_polytope(rng: random.Random, ambient: int, coord_bound: int = 4, dim: int | None = None):
    """Seeded random lattice polytope, optionally of prescribed dimension.

    Lower-dimensional instances are built in fewer coordinates and embedded
    on a random axis subset with a random small translation, so affine-hull
    handling gets exercised.
    """
    target = dim if dim is not None else rng.choice([ambient] * 3 + list(range(1, ambient + 1)))
    base_bound = max(1, coord_bound - 2)  # leave room for the final shift
    for _ in range(200):
        npels = rng.randint(target + 1, target + 4)
        pts = [
            tuple(rng.randint(0, base_bound) for _ in range(target)) for _ in range(npels)
        ]
        base = polytope.from_points(pts, ambient_dim=target)
        if base.dim != target:
            continue
        if target == ambient:
            embedded = base
        else:
            axes = sorted(rng.sample(range(ambient), target))
            lifted = []
            for v in base.vertices:
                w = [0] * ambient
                for axis, value in zip(axes, v):
                    w[axis] = value
                lifted.append(tuple(w))
            embedded = polytope.from_points(lifted)
        shift = tuple(rng.randint(-2, 2) for _ in range(ambient))
        return polytope.translate(embedded, shift)
    raise RuntimeError("could not sample a polytope of the requested dimension")


def contains_relint(p, x) -> bool:
    """Whether x lies in the relative interior of p: hull equalities kept, facets strict."""
    return all(polytope._dot(a, x) == b for a, b in p.hull_equalities) and all(
        polytope._dot(a, x) < b for a, b in p.facet_inequalities
    )


def brute_force_points(p, relint=False):
    """The box scan enumeration used to run: every cell of the bounding box, tested."""
    if p.is_empty:
        return []
    inside = (lambda x: contains_relint(p, x)) if relint and p.dim > 0 else p.contains
    lo, hi = p.bounding_box()
    return [
        x
        for x in product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        if inside(x)
    ]


def random_point(rng: random.Random, ambient: int, bound: int = 3):
    return tuple(rng.randint(-bound, bound) for _ in range(ambient))


@st.composite
def polytopes(draw):
    """Lattice polytopes in Z^1..Z^4; one in three spans a lower-dimensional
    affine subspace along drawn directions, not necessarily axis-parallel."""
    n = draw(st.integers(1, 4))
    if draw(st.integers(0, 2)):
        grid = st.tuples(*[st.integers(0, 2)] * n)
        full = st.lists(grid, min_size=n + 1, max_size=n + 5).map(polytope.from_points)
        return draw(full.filter(lambda p: p.dim == n))
    d = draw(st.integers(0, n - 1))
    origin = draw(st.tuples(*[st.integers(-2, 2)] * n))
    directions = [draw(st.tuples(*[st.integers(-1, 1)] * n)) for _ in range(d)]
    corners = [tuple(int(i == j) for j in range(d)) for i in range(-1, d)]
    steps = corners + draw(st.lists(st.tuples(*[st.integers(0, 1)] * d), max_size=3))
    return polytope.from_points(
        [tuple(o + sum(c * u[j] for c, u in zip(cs, directions)) for j, o in enumerate(origin))
         for cs in steps]
    )


def sample_polytopes():
    """The 3-cube, the 3-cross-polytope and a prism over a pentagon."""
    cube = polytope.from_points([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    cross = polytope.from_points([tuple(s * int(i == j) for j in range(3)) for i in range(3) for s in (1, -1)])
    pentagon = polytope.from_points([(0, 0, 0), (2, 0, 0), (3, 2, 0), (1, 3, 0), (-1, 1, 0)])
    return {"cube": cube, "cross-polytope": cross, "pentagon prism": polytope.prism(pentagon)}


def in_child(argv, stdin="", script=None) -> subprocess.CompletedProcess:
    """The CLI, or script if given, in a child process that must end within seconds: a blow-up fails, not hangs."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    program = ["-c", script] if script else ["-m", "lattens.cli"]
    return subprocess.run(
        [sys.executable, *program, *argv], input=stdin, capture_output=True, text=True, env=env, timeout=10
    )
