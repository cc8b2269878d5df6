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

with the optimal n equal to p*/|p*| when p* is nonzero.  The hull
lives in R^3, so by Caratheodory p* is a convex combination of at most
four of the points; ``cutting_direction`` enumerates every support set
of size one to four, solves the equality-constrained least-norm system
on each, and keeps the best feasible candidate.  That is exact up to
roundoff, cheap for the vertex degrees a disc produces, and avoids an
external QP dependency.  ``brute_force_cutting_direction`` is the
independent check: it scans a Fibonacci lattice on the sphere and can
only undershoot the true margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import EmptyStar
from .mesh import PolyhedralDisc

SADDLE = "saddle"
NON_SADDLE = "non_saddle"

_FEASIBILITY_SLACK = -1e-12
_KKT_RESIDUAL_TOL = 1e-8


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


def _min_norm_point(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm point of the convex hull of ``points`` (k x 3) and
    the convex coefficients realizing it (length k)."""
    k = len(points)
    gram = points @ points.T
    best_sq = np.inf
    best_lam = None
    for size in range(1, min(4, k) + 1):
        subsets = np.array(list(combinations(range(k), size)), dtype=np.intp)
        g = gram[subsets[:, :, None], subsets[:, None, :]]
        kkt = np.zeros((len(subsets), size + 1, size + 1))
        kkt[:, :size, :size] = g
        kkt[:, size, :size] = 1.0
        kkt[:, :size, size] = 1.0
        rhs = np.zeros(size + 1)
        rhs[size] = 1.0
        # pinv tolerates the singular systems duplicate directions
        # produce; inconsistent solutions are filtered by the residual.
        solutions = np.linalg.pinv(kkt) @ rhs
        residuals = np.linalg.norm(kkt @ solutions[..., None] - rhs[:, None], axis=(1, 2))
        lams = solutions[:, :size]
        feasible = (
            (residuals <= _KKT_RESIDUAL_TOL)
            & np.all(lams >= _FEASIBILITY_SLACK, axis=1)
        )
        if not np.any(feasible):
            continue
        norms_sq = np.einsum("ni,nij,nj->n", lams, g, lams)
        norms_sq = np.where(feasible, norms_sq, np.inf)
        i = int(np.argmin(norms_sq))
        if norms_sq[i] < best_sq:
            best_sq = norms_sq[i]
            lam = np.zeros(k)
            lam[subsets[i]] = lams[i]
            best_lam = lam
        if best_sq < 1e-30:
            break
    assert best_lam is not None  # size-1 subsets are always feasible
    best_lam = np.clip(best_lam, 0.0, None)
    best_lam /= best_lam.sum()
    return best_lam @ points, best_lam


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
    norms = np.linalg.norm(e, axis=1)
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
    unit = e / np.linalg.norm(e, axis=1)[:, None]
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
