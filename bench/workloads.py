"""Seeded inputs and timed operations of the three benchmark workloads.

Every workload's inputs follow from the workload seed; the same seed
gives the same discs bit for bit.  At seed 0 the ``fans`` workload is exactly the
acceptance-c4 set.

fans
    The 20 acceptance-c4 fans ``random_instance(8 + s % 9,
    nonplanarity=0.3, seed=s)``, s = 0..19, each moved by a seeded rigid
    motion (the identity at seed 0) and solved with the default
    ``OptimizerConfig``: the users' main case, time to a certified
    saddle.  Star degrees 8-16 stress the hinge scan and high-degree
    ``cutting_direction``.
grid
    A ladder of multi-vertex discs, n = 4, 6, 8: an (n+1) x (n+1) grid on
    [-1, 1]^2 with z = 0.3 (x^2 - y^2) plus seeded interior noise of
    +-0.1, and six seeded triangles stellar-subdivided with a lifted
    centre (44, 84 and 140 triangles; 15, 31 and 55 interior vertices),
    generated at seed 0 and moved by a seeded rigid motion (the identity
    at seed 0).
    Each subdivision leaves an empty triangle for the fan-reduction
    move.  ``minimize`` is capped at 12 outer iterations, because the
    current optimizer does not converge on grids.  This workload carries
    long hinge scans, flips that rebuild the complex, ``reduce_fan`` and
    disc re-validation per line-search trial.
certify
    40 seeded wheels.  A wheel is a centre of degree d, d cycling
    through 12, 16, 20, 24, and three rings of d vertices at radii 1/3,
    2/3 and 1 with random heights; the outer ring is the boundary, so a
    wheel has 1 + 2d interior vertices (25 to 49, 1480 in all) of
    degree 5, 6 or d.  Set-up serialises every wheel with ``dumps_obj``;
    the timed operation is ``loads_obj`` followed by ``certify_saddle``,
    the path of ``discmin certify``.  It tests every vertex once, with no
    flips or line searches.

Why the seed moves the fans and grids rather than drawing new ones: the
work of ``minimize`` varies widely between draws.  The outer iteration
count of ``random_instance`` fans is heavy-tailed (s = 94 needs 2574
iterations against a median of 46), and grid draws differ by about 10%
in hinge scans and line-search trials, so a run's time would depend on
which discs it drew.  A rigid motion keeps each problem's geometry, and
so its work, while changing its coordinates, and with them the roundoff
and the optimizer's jitter relative to the disc.  A wheel's work
depends only on its vertex degrees, so ``certify`` draws new wheels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import discmin as dm

FAN_COUNT = 20
GRID_SIZES = (4, 6, 8)
GRID_SUBDIVISIONS = 6
GRID_NOISE = 0.1
GRID_MAX_ITERATIONS = 12
WHEEL_COUNT = 40
WHEEL_DEGREES = (12, 16, 20, 24)
WHEEL_HEIGHT = 0.3


@dataclass(frozen=True, eq=False)
class Instance:
    """One input of a workload.  ``text`` is the serialised disc for
    workloads whose timed operation starts from a file's contents."""

    name: str
    disc: Any
    text: str | None = None


@dataclass(frozen=True)
class Workload:
    """``setup(seed)`` builds the instances; ``solve(instance)`` is the
    timed operation and returns (output disc, trace or certificate)."""

    name: str
    setup: Callable[[int], list[Instance]]
    solve: Callable[[Instance], tuple[Any, Any]]
    minimizes: bool


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


# ---------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------


def grid_disc(n: int, rng: np.random.Generator):
    """Saddle-shaped (n+1) x (n+1) grid disc with six lifted stellar
    subdivisions; vertex i * (n+1) + j sits at grid row i, column j."""
    xs = np.linspace(-1.0, 1.0, n + 1)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    z = 0.3 * (x * x - y * y)
    z[1:-1, 1:-1] += rng.uniform(-GRID_NOISE, GRID_NOISE, (n - 1, n - 1))
    positions = [p for p in np.stack([x, y, z], axis=-1).reshape(-1, 3)]

    triangles = []
    for i in range(n):
        for j in range(n):
            v00 = i * (n + 1) + j
            v10 = v00 + n + 1
            triangles.append((v00, v10, v10 + 1))
            triangles.append((v00, v10 + 1, v00 + 1))

    cell = 2.0 / n
    for t in sorted(rng.choice(len(triangles), GRID_SUBDIVISIONS, replace=False)):
        a, b, c = triangles[t]
        centre = (positions[a] + positions[b] + positions[c]) / 3.0
        centre[2] += rng.uniform(0.5, 1.0) * cell
        m = len(positions)
        positions.append(centre)
        triangles[t] = (a, b, m)
        triangles += [(b, c, m), (c, a, m)]
    return dm.PolyhedralDisc(dm.build_from_triangles(triangles), np.array(positions))


def wheel_disc(degree: int, rng: np.random.Generator):
    """Centre vertex 0 of the given degree and three rings of ``degree``
    vertices; ring r (0-based) holds ids 1 + r*degree ... and is rotated
    by half a step against ring r - 1."""
    d = degree
    points = [(0.0, 0.0, rng.uniform(-WHEEL_HEIGHT, WHEEL_HEIGHT))]
    for r in range(3):
        theta = 2.0 * np.pi * (np.arange(d) + 0.5 * r) / d
        radius = (r + 1) / 3.0
        heights = rng.uniform(-WHEEL_HEIGHT, WHEEL_HEIGHT, d)
        points += zip(radius * np.cos(theta), radius * np.sin(theta), heights)

    def ring(r: int, k: int) -> int:
        return 1 + r * d + k % d

    triangles = [(0, ring(0, k), ring(0, k + 1)) for k in range(d)]
    for r in range(2):
        for k in range(d):
            triangles.append((ring(r, k), ring(r + 1, k), ring(r, k + 1)))
            triangles.append((ring(r, k + 1), ring(r + 1, k), ring(r + 1, k + 1)))
    return dm.PolyhedralDisc(dm.build_from_triangles(triangles), np.array(points))


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------


def rigid_motion(disc, rng: np.random.Generator):
    """``disc`` under a uniformly random rotation and a translation in
    [-1, 1]^3."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    positions = disc.positions @ q.T + rng.uniform(-1.0, 1.0, 3)
    return dm.PolyhedralDisc(disc.complex, positions, disc.eps_deg)


def _fans_setup(seed: int) -> list[Instance]:
    out = []
    for s in range(FAN_COUNT):
        disc = dm.random_instance(8 + s % 9, nonplanarity=0.3, seed=s)
        if seed != 0:
            disc = rigid_motion(disc, _rng(seed, s))
        out.append(Instance(f"fan{s}", disc))
    return out


def _grid_setup(seed: int) -> list[Instance]:
    out = []
    for n in GRID_SIZES:
        disc = grid_disc(n, _rng(0, n))
        if seed != 0:
            disc = rigid_motion(disc, _rng(seed, n))
        out.append(Instance(f"grid-n{n}", disc))
    return out


def _certify_setup(seed: int) -> list[Instance]:
    out = []
    for i in range(WHEEL_COUNT):
        degree = WHEEL_DEGREES[i % len(WHEEL_DEGREES)]
        disc = wheel_disc(degree, _rng(seed, i))
        out.append(Instance(f"wheel{i}-d{degree}", disc, dm.dumps_obj(disc)))
    return out


_FANS_CONFIG = dm.OptimizerConfig()
_GRID_CONFIG = dm.OptimizerConfig(max_outer_iterations=GRID_MAX_ITERATIONS)


def _certify_solve(instance: Instance):
    disc = dm.loads_obj(instance.text)
    return disc, dm.certify_saddle(disc)


WORKLOADS = {
    "fans": Workload(
        "fans", _fans_setup, lambda inst: dm.minimize(inst.disc, _FANS_CONFIG), True
    ),
    "grid": Workload(
        "grid", _grid_setup, lambda inst: dm.minimize(inst.disc, _GRID_CONFIG), True
    ),
    "certify": Workload("certify", _certify_setup, _certify_solve, False),
}
