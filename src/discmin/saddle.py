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
dependency.  Four active directions with positive weights hold the
origin, which ends the search.

The affine min-norm point has closed-form barycentric weights for each
size of active set, from the edge vectors of the simplex: a point, a
projection onto a segment's line, the triangle's n.(b x c)/|n|^2 and
its cyclic forms, and ratios of signed volumes for a tetrahedron (the
signed-volumes sub-algorithm of Montanari, Petrinic and Barbieri,
"Improving the GJK algorithm for faster and more reliable distance
queries between convex objects", ACM TOG 36(3), 2017, without its
search over faces, which the minor cycle does), all written out in
components.  A flat simplex takes the weights of its largest facet.
The directions are 3-tuples of Python floats and the active set, its
points, weights and coefficients Python lists, from which a minor
cycle deletes the point it drops: with at most four points in play,
numpy's per-call cost would exceed the arithmetic.
``brute_force_cutting_direction`` is the independent check: it scans a
Fibonacci lattice on the sphere and can only undershoot the true margin.

``certify_saddle`` and the optimizer's vertex sweep share one verdict
function, which reads the stars it is given off the complex's ring
table, forms all their edge directions in one gather of the positions
and tests each star on its slice: one gather per certificate, and one
per vertex the sweep tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyStar, InvalidInput, InvariantViolation, _check, _check_tolerance, _is_number
from .mesh import PolyhedralDisc, _check_disc, _real_array

SADDLE = "saddle"
NON_SADDLE = "non_saddle"

# The default margin of the certificate: a star is non-saddle when a
# cutting plane clears every unit edge direction by more than this.
EPS_SADDLE = 1e-7

# Wolfe's optimality gap: |x|^2 - min_j <x, u_j> <= _WOLFE_GAP * max_j |u_j|^2.
_WOLFE_GAP = 1e-12
# Major cycles allowed per point before the solver gives up; the random,
# wheel, degenerate and nearly flat ring stars of the tests, 3,000 random
# stars of degree 3 to 24 and the certify benchmark's stars at seeds 0-3
# need at most 6 in all, and at most 1.2 per point.
_MAJOR_CYCLES_PER_POINT = 10
# A simplex is flat when its length, area or volume is at most this
# fraction of the product of its edge lengths: an angle lost in roundoff.
_FLAT = 1e-14


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


def _combination(weights, points) -> tuple[float, float, float]:
    """sum_i weights[i] * points[i], summed in order."""
    x0 = x1 = x2 = 0.0
    for w, (p0, p1, p2) in zip(weights, points):
        x0 += w * p0
        x1 += w * p1
        x2 += w * p2
    return (x0, x1, x2)


def _content(points) -> float:
    """The squared length of a segment, the squared doubled area of a
    triangle, and 0 for a point."""
    if len(points) == 1:
        return 0.0
    a0, a1, a2 = points[0]
    b0, b1, b2 = points[1]
    u0, u1, u2 = b0 - a0, b1 - a1, b2 - a2
    if len(points) == 2:
        return u0 * u0 + u1 * u1 + u2 * u2
    c0, c1, c2 = points[2]
    w0, w1, w2 = c0 - a0, c1 - a1, c2 - a2
    n0, n1, n2 = u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0
    return n0 * n0 + n1 * n1 + n2 * n2


def _affine_weights(simplex) -> list[float]:
    """Weights, summing to one, of the min-norm point of the affine hull
    of ``simplex`` (one to four 3-vectors), in closed form on the edge
    vectors d_i = p_i - a from its first point a:

    * a point: the point itself;
    * a segment: the origin projected onto its line, a + t d_1 with
      t = -<a, d_1> / |d_1|^2;
    * a triangle: with n = d_1 x d_2, the weight n.(b x c) / |n|^2 and
      its cyclic forms, where c x a = d_2 x a and a x b = a x d_1;
    * a tetrahedron: the origin itself, with ratios of signed volumes
      det(d_1, d_2, -a) / det(d_1, d_2, d_3) and their cyclic forms.

    Working on the edge vectors keeps a short edge from losing its
    precision to cancellation.  A flat simplex (a repeated point, or
    collinear or coplanar points) spans the affine hull of its largest
    facet, whose weights it takes, with 0 for the point left out."""
    m = len(simplex)
    if m == 1:
        return [1.0]
    a0, a1, a2 = simplex[0]
    b0, b1, b2 = simplex[1]
    u0, u1, u2 = b0 - a0, b1 - a1, b2 - a2
    uu = u0 * u0 + u1 * u1 + u2 * u2
    if m == 2:
        if uu > 0.0:
            t = -(a0 * u0 + a1 * u1 + a2 * u2) / uu
            return [1.0 - t, t]
    else:
        c0, c1, c2 = simplex[2]
        w0, w1, w2 = c0 - a0, c1 - a1, c2 - a2
        ww = w0 * w0 + w1 * w1 + w2 * w2
        n0, n1, n2 = u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0  # d_1 x d_2
        if m == 3:
            nn = n0 * n0 + n1 * n1 + n2 * n2
            if nn > _FLAT**2 * uu * ww:
                # n.(d_2 x a) and n.(a x d_1)
                wb = (n0 * (w1 * a2 - w2 * a1) + n1 * (w2 * a0 - w0 * a2)
                      + n2 * (w0 * a1 - w1 * a0)) / nn
                wc = (n0 * (a1 * u2 - a2 * u1) + n1 * (a2 * u0 - a0 * u2)
                      + n2 * (a0 * u1 - a1 * u0)) / nn
                return [1.0 - wb - wc, wb, wc]
        else:
            e0, e1, e2 = simplex[3]
            v0, v1, v2 = e0 - a0, e1 - a1, e2 - a2
            x0, x1, x2 = w1 * v2 - w2 * v1, w2 * v0 - w0 * v2, w0 * v1 - w1 * v0  # d_2 x d_3
            det = u0 * x0 + u1 * x1 + u2 * x2
            if det * det > _FLAT**2 * uu * ww * (v0 * v0 + v1 * v1 + v2 * v2):
                # -a.(d_2 x d_3), -a.(d_3 x d_1) and -a.(d_1 x d_2)
                b1 = -(a0 * x0 + a1 * x1 + a2 * x2) / det
                b2 = -(a0 * (v1 * u2 - v2 * u1) + a1 * (v2 * u0 - v0 * u2)
                       + a2 * (v0 * u1 - v1 * u0)) / det
                b3 = -(a0 * n0 + a1 * n1 + a2 * n2) / det
                return [1.0 - b1 - b2 - b3, b1, b2, b3]
    facets = [simplex[:i] + simplex[i + 1 :] for i in range(m)]
    i = max(range(m), key=lambda i: _content(facets[i]))
    weights = _affine_weights(facets[i])
    weights.insert(i, 0.0)
    return weights


def _min_norm_point(
    points, eps_saddle: float = EPS_SADDLE
) -> tuple[tuple[float, float, float], list[float]]:
    """Minimum-norm point of the convex hull of ``points`` (k 3-vectors)
    and the convex coefficients realizing it (a list of k floats), by
    Wolfe's algorithm on Python floats.  Ties go to the lowest index.
    The search stops within the gap ``_WOLFE_GAP`` of optimal once x
    decides the verdict: |x| <= eps_saddle, or min_j <x, u_j> >
    eps_saddle |x|, which puts the whole hull farther than eps_saddle
    from the origin."""
    k = len(points)
    sq_norms = [p0 * p0 + p1 * p1 + p2 * p2 for p0, p1, p2 in points]
    tol = _WOLFE_GAP * max(sq_norms)
    active = [sq_norms.index(min(sq_norms))]
    simplex = [points[active[0]]]  # the active points, in step with ``active``
    weights = [1.0]
    x = simplex[0]
    for _ in range(_MAJOR_CYCLES_PER_POINT * k):
        # four active points with positive affine weights hold the origin
        if len(active) == 4:
            break
        x0, x1, x2 = x
        dots = [x0 * p0 + x1 * p1 + x2 * p2 for p0, p1, p2 in points]
        low = min(dots)
        xx = x0 * x0 + x1 * x1 + x2 * x2
        decided = xx <= eps_saddle * eps_saddle or low > eps_saddle * math.sqrt(xx)
        if xx <= 1e-30 or (xx - low <= tol and decided):
            break
        j = dots.index(low)
        active.append(j)
        simplex.append(points[j])
        weights.append(0.0)
        for _ in range(len(active)):  # each pass but the last drops a point
            affine = _affine_weights(simplex)
            if min(affine) > 0.0:
                weights = affine
                break
            # Step from the weights toward the affine point until the
            # first weight reaches zero, and drop that point.  There
            # w >= 0 >= a, so w - a vanishes only where the step is 0.
            step, drop = min(
                (w / (w - a) if w > a else 0.0, i)
                for i, (w, a) in enumerate(zip(weights, affine))
                if a <= 0.0
            )
            weights = [max(w + step * (a - w), 0.0) for w, a in zip(weights, affine)]
            del weights[drop], active[drop], simplex[drop]
        else:
            raise InvariantViolation("a minor cycle of Wolfe's algorithm dropped no point")
        x = _combination(weights, simplex)
    else:
        raise InvariantViolation(
            f"Wolfe's algorithm did not converge in {_MAJOR_CYCLES_PER_POINT * k} "
            f"major cycles on {k} points"
        )
    total = math.fsum(weights)
    weights = [w / total for w in weights]
    lam = [0.0] * k
    for i, w in zip(active, weights):
        lam[i] += w
    return _combination(weights, simplex), lam


def _unit_directions(directions) -> list[tuple[float, float, float]]:
    """The rows of ``directions`` (k x 3) scaled to unit length, as
    Python floats.  ``math.hypot`` measures each row without squaring
    it, so lengths from 1e-300 to 1e300 neither underflow nor overflow.
    A float array is read in place, not copied."""
    e = _real_array(directions, copy=False)
    if e is None:
        raise InvalidInput("edge directions must be real numbers")
    if e.ndim != 2 or e.shape[1] != 3:
        raise InvalidInput(f"expected (k, 3) directions, got shape {e.shape}")
    if len(e) == 0:
        raise EmptyStar("no edge directions")
    unit = []
    for x, y, z in e.tolist():
        length = math.hypot(x, y, z)
        if length == 0.0:
            raise InvalidInput("zero-length edge direction")
        if not math.isfinite(length):
            raise InvalidInput(f"edge direction {[x, y, z]} has no finite length")
        unit.append((x / length, y / length, z / length))
    return unit


def cutting_direction(directions, eps_saddle: float = EPS_SADDLE) -> StarVerdict:
    """Classify a star given its edge direction vectors (k x 3).

    Directions need not be normalized.  The verdict is decided by the
    recomputed margin: above ``eps_saddle`` the star is non-saddle and
    the cutting normal is returned; otherwise the hull coefficients and
    their residual certify the saddle.  ``eps_saddle`` must be a finite
    number >= 0.  ``_vertex_verdicts`` calls this once per star.
    """
    _check_tolerance("eps_saddle", eps_saddle)
    unit = _unit_directions(directions)
    point, lam = _min_norm_point(unit, eps_saddle)
    t = math.hypot(*point)
    margin = 0.0
    if t > 0.0:
        n0, n1, n2 = point[0] / t, point[1] / t, point[2] / t
        margin = min([n0 * u0 + n1 * u1 + n2 * u2 for u0, u1, u2 in unit])
        if margin > eps_saddle:
            return StarVerdict(NON_SADDLE, np.array([n0, n1, n2]), margin, None, None)
    return StarVerdict(SADDLE, None, margin, np.array(lam), math.hypot(*_combination(lam, unit)))


def brute_force_cutting_direction(
    directions, samples: int = 10000
) -> tuple[np.ndarray, float]:
    """Best cutting normal among ``samples`` Fibonacci-lattice points.

    Returns (normal, margin).  The margin can only fall short of the
    exact optimum, never exceed it.  ``samples`` must be an integer >= 1.
    """
    _check("samples", samples, _is_number(samples, integer=True) and samples >= 1,
           "an integer >= 1")
    unit = np.array(_unit_directions(directions))
    i = np.arange(samples)
    z = 1.0 - 2.0 * (i + 0.5) / samples
    rho = np.sqrt(1.0 - z * z)
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    lattice = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    margins = (unit @ lattice.T).min(axis=0)
    best = int(np.argmax(margins))
    return lattice[best], float(margins[best])


def _vertex_verdicts(state, vertices, eps_saddle: float) -> tuple[VertexVerdict, ...]:
    """The cutting-plane test at each of ``vertices`` of ``state``, a
    PolyhedralDisc or the vertex sweep's working state (only its complex
    and positions are read): the one place stars become verdicts, for
    the certificate and the vertex sweep alike.  The stars are slices of
    the complex's ring table, every edge direction w - v of every star
    is formed in one gather, and each star is tested on its slice of
    them.  The vertex ids are not checked."""
    if not len(vertices):
        return ()
    cx, p = state.complex, state.positions
    centres = np.array(vertices, dtype=np.intp)
    spans = list(zip(cx.ring_offsets[centres].tolist(), cx.ring_offsets[centres + 1].tolist()))
    ends = np.concatenate([cx.ring_vertices[lo:hi] for lo, hi in spans])
    directions = p[ends] - p[centres.repeat([hi - lo for lo, hi in spans])]
    ring = ends.tolist()
    verdicts = []
    stop = 0
    for v, (lo, hi) in zip(vertices, spans):
        start, stop = stop, stop + hi - lo
        verdict = cutting_direction(directions[start:stop], eps_saddle)
        verdicts.append(VertexVerdict(verdict.status, verdict.cut_normal, verdict.margin,
                                      verdict.coefficients, verdict.residual, v,
                                      tuple(ring[start:stop])))
    return tuple(verdicts)


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


def certify_saddle(disc: PolyhedralDisc, eps_saddle: float = EPS_SADDLE) -> SaddleCertificate:
    """Run the cutting-plane test at every interior vertex.

    ``saddle`` is True when no interior vertex admits a cutting plane
    with margin above ``eps_saddle``; a disc without interior vertices
    is vacuously saddle, but its ``eps_saddle`` is checked all the same.
    """
    _check_disc(disc)
    _check_tolerance("eps_saddle", eps_saddle)
    verdicts = _vertex_verdicts(disc, disc.complex.interior_vertices(), eps_saddle)
    return SaddleCertificate(
        verdicts=verdicts,
        saddle=all(v.is_saddle for v in verdicts),
        eps_saddle=eps_saddle,
    )
