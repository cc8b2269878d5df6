"""Saddle certification of vertex stars.

An interior vertex v with star neighbors w_1 .. w_k is *non-saddle*
when some unit vector n has positive inner product with every edge
direction w_i - v: the star then fits strictly inside an open
half-space and the plane orthogonal to n cuts it.  Otherwise the
origin lies in the convex hull of the normalized directions and the
vertex is a *saddle*; the hull coefficients are the certificate.

Both cases reduce to the minimum-norm point p* of the convex hull of
the unit directions:

    max over unit n of (min_i <n, e_i>)  =  |p*|,

with the optimal n equal to p*/|p*| when p* is nonzero.
``cutting_direction`` finds p* with Wolfe's nearest-point algorithm
(P. Wolfe, "Finding the nearest point in a polytope", Math.
Programming 11, 1976).  It keeps an active set of at most four
directions (Caratheodory in R^3) with convex weights.  A major cycle
adds the direction least aligned with the current point x; a minor
cycle moves x to the affine min-norm point of the active set and, when
a weight would turn non-positive, stops at the boundary and drops that
direction.  Each major cycle strictly shortens x, so no active set
repeats and the loop is finite; it costs O(k) per cycle instead of a
solve for each of the C(k, 4) support sets, and needs no external QP
dependency.  ``brute_force_cutting_direction`` is the independent
check: it scans a Fibonacci lattice on the sphere and can only
undershoot the true margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyStar, InvariantViolation
from .mesh import PolyhedralDisc, row_norms

SADDLE = "saddle"
NON_SADDLE = "non_saddle"

# Wolfe's stopping rule: |x|^2 - min_j <x, u_j> <= _WOLFE_GAP * max_j |u_j|^2.
_WOLFE_GAP = 1e-12
# Major cycles allowed per point before the solver gives up; the random,
# wheel and degenerate stars of the tests need at most 6 in all.
_MAJOR_CYCLES_PER_POINT = 10


@dataclass(frozen=True, eq=False)
class StarVerdict:
    """Outcome of the cutting-plane test for one star.

    Non-saddle verdicts carry the cutting direction and its margin
    (the smallest inner product with a unit edge direction).  Saddle
    verdicts carry convex coefficients over the star's unit directions
    and the norm of the combined vector, which certifies how close to
    the origin the hull comes.  Both witnesses are recomputed from
    their definitions before being stored.
    """

    status: str
    cut_normal: np.ndarray | None
    margin: float
    coefficients: np.ndarray | None
    residual: float | None

    @property
    def is_saddle(self) -> bool:
        return self.status == SADDLE


@dataclass(frozen=True, eq=False)
class VertexVerdict(StarVerdict):
    """A star verdict bound to a vertex; ``star`` lists the neighbor
    ids in the order the coefficients refer to."""

    vertex: int = -1
    star: tuple[int, ...] = ()


def _affine_weights(points: np.ndarray) -> np.ndarray:
    """Weights, summing to one, of the min-norm point of the affine hull
    of ``points``: x = p_0 + sum_i a_i (p_i - p_0) with ``a`` the least
    squares solution.  Working on the differences rather than the Gram
    matrix keeps the condition number unsquared; ``lstsq`` returns the
    least-norm ``a`` when repeated points make the differences
    rank-deficient."""
    base = points[0]
    a = np.linalg.lstsq((points[1:] - base).T, -base, rcond=None)[0]
    return np.concatenate(([1.0 - a.sum()], a))


def _min_norm_point(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm point of the convex hull of ``points`` (k x 3) and
    the convex coefficients realizing it (length k), by Wolfe's
    algorithm.  Ties go to the lowest index."""
    k = len(points)
    sq_norms = np.einsum("ij,ij->i", points, points)
    tol = _WOLFE_GAP * float(sq_norms.max())
    active = [int(np.argmin(sq_norms))]
    weights = np.ones(1)
    x = points[active[0]]
    for _ in range(_MAJOR_CYCLES_PER_POINT * k):
        dots = points @ x
        j = int(np.argmin(dots))
        xx = float(x @ x)
        if xx - dots[j] <= tol or xx <= 1e-30:
            break
        active.append(j)
        weights = np.append(weights, 0.0)
        for _ in range(len(active)):  # each pass but the last drops a point
            affine = _affine_weights(points[active])
            if affine.min() > 0.0:
                weights = affine
                break
            # Step from the weights toward the affine point until the
            # first weight reaches zero, and drop that point.  There
            # w >= 0 >= a, so w - a vanishes only where the step is 0.
            blocking = np.flatnonzero(affine <= 0.0)
            w, a = weights[blocking], affine[blocking]
            steps = np.divide(w, w - a, out=np.zeros(len(blocking)), where=w > a)
            i = int(np.argmin(steps))
            weights = np.maximum(weights + steps[i] * (affine - weights), 0.0)
            weights = np.delete(weights, blocking[i])
            del active[blocking[i]]
        else:
            raise InvariantViolation("a minor cycle of Wolfe's algorithm dropped no point")
        x = weights @ points[active]
    else:
        raise InvariantViolation(
            f"Wolfe's algorithm did not converge in {_MAJOR_CYCLES_PER_POINT * k} "
            f"major cycles on {k} points"
        )
    lam = np.zeros(k)
    np.add.at(lam, active, weights)
    lam /= lam.sum()
    return lam @ points, lam


def cutting_direction(directions, eps_saddle: float = 1e-7) -> StarVerdict:
    """Classify a star given its edge direction vectors (k x 3).

    Directions need not be normalized.  The verdict is decided by the
    recomputed margin: above ``eps_saddle`` the star is non-saddle and
    the cutting normal is returned; otherwise the hull coefficients
    and their residual certify the saddle.
    """
    e = np.asarray(directions, dtype=float)
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError(f"expected (k, 3) directions, got shape {e.shape}")
    if len(e) == 0:
        raise EmptyStar("no edge directions")
    norms = row_norms(e)
    if np.any(norms == 0.0):
        raise ValueError("zero-length edge direction")
    unit = e / norms[:, None]
    point, lam = _min_norm_point(unit)
    t = float(np.linalg.norm(point))
    normal = point / t if t > 0.0 else None
    margin = 0.0 if normal is None else float((unit @ normal).min())
    if normal is not None and margin > eps_saddle:
        return StarVerdict(
            status=NON_SADDLE,
            cut_normal=normal,
            margin=margin,
            coefficients=None,
            residual=None,
        )
    return StarVerdict(
        status=SADDLE,
        cut_normal=None,
        margin=margin,
        coefficients=lam,
        residual=float(np.linalg.norm(lam @ unit)),
    )


def brute_force_cutting_direction(
    directions, samples: int = 10000
) -> tuple[np.ndarray, float]:
    """Best cutting normal among ``samples`` Fibonacci-lattice points.

    Returns (normal, margin).  The margin can only fall short of the
    exact optimum, never exceed it.
    """
    e = np.asarray(directions, dtype=float)
    if len(e) == 0:
        raise EmptyStar("no edge directions")
    unit = e / row_norms(e)[:, None]
    i = np.arange(samples)
    z = 1.0 - 2.0 * (i + 0.5) / samples
    rho = np.sqrt(1.0 - z * z)
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    lattice = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    margins = (unit @ lattice.T).min(axis=0)
    best = int(np.argmax(margins))
    return lattice[best], float(margins[best])


def _vertex_verdict(disc: PolyhedralDisc, v: int, eps_saddle: float) -> VertexVerdict:
    """The cutting-plane test at vertex ``v`` of ``disc``: the one place
    a star becomes a verdict, for the certificate and the vertex sweep
    alike."""
    star = disc.complex.vertex_star(v)
    p = disc.positions
    verdict = cutting_direction(p[list(star)] - p[v], eps_saddle)
    return VertexVerdict(**vars(verdict), vertex=v, star=star)


@dataclass(frozen=True, eq=False)
class SaddleCertificate:
    """Per-vertex verdicts for every interior vertex of a disc."""

    verdicts: tuple[VertexVerdict, ...]
    saddle: bool
    eps_saddle: float

    def to_dict(self) -> dict:
        vertices = []
        for v in self.verdicts:
            vertices.append(
                {
                    "id": v.vertex,
                    "status": v.status,
                    "star": list(v.star),
                    "normal": None if v.cut_normal is None else [float(x) for x in v.cut_normal],
                    "margin": v.margin,
                    "lambda": None if v.coefficients is None else [float(x) for x in v.coefficients],
                    "residual": v.residual,
                }
            )
        return {
            "saddle": self.saddle,
            "eps_saddle": self.eps_saddle,
            "vertices": vertices,
        }


def certify_saddle(disc: PolyhedralDisc, eps_saddle: float = 1e-7) -> SaddleCertificate:
    """Run the cutting-plane test at every interior vertex.

    ``saddle`` is True when no interior vertex admits a cutting plane
    with margin above ``eps_saddle``; a disc without interior vertices
    is vacuously saddle.
    """
    interior = disc.complex.interior_vertices()
    verdicts = tuple(_vertex_verdict(disc, v, eps_saddle) for v in interior)
    return SaddleCertificate(
        verdicts=verdicts,
        saddle=all(v.is_saddle for v in verdicts),
        eps_saddle=eps_saddle,
    )
