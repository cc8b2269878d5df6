"""Hinge measurements and the two combinatorial moves.

A hinge is an interior edge [a, b] together with the opposite vertices
x, y of its two triangles.  The quantity steering everything is the
adjacent angle sum

    sigma = angle(abx) + angle(aby) + angle(bax) + angle(bay)

(the four angles at the hinge endpoints; apex is the middle letter).
Since each triangle's angles sum to pi, sigma + angle(axb) + angle(ayb)
is exactly 2 pi, so sigma < pi forces the opposite angles to be large.
Flipping such a hinge, replacing triangles abx, aby by axy, bxy, never
increases area; ``HingeMeasurement.gain`` records the decrease.

The second move, ``reduce_fan``, cuts along an empty triangle: three
pairwise adjacent vertices spanning no face.  The region the cycle
encloses is deleted and the flat triangle put in its place, which
never increases area either (project the region onto the triangle's
plane).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BoundaryEdge,
    CycleBoundsBoundary,
    DegenerateTriangle,
    FlipForbidden,
    InvariantViolation,
    NotAViolation,
)
from .mesh import DiscComplex, Edge, PolyhedralDisc, Triangle, build_from_triangles, edge_key
from .mesh import _directed_edges, angle_rows, area_rows, row_norms


# =====================================================================
# Measurement
# =====================================================================


@dataclass(frozen=True)
class HingeMeasurement:
    """Angles and flip gain of one hinge.

    ``angles`` holds (angle(abx), angle(aby), angle(bax), angle(bay));
    ``sigma`` is their sum.  ``gain`` is current area minus flipped
    area for the two triangles involved, so a nonnegative gain means
    the flip does not hurt.
    """

    edge: Edge
    opposite: tuple[int, int]
    angles: tuple[float, float, float, float]
    sigma: float
    gain: float


def _hinge_rows(a, b, x, y):
    """The four angles (abx, aby, bax, bay) and the flip gain of stacked
    hinges; the single implementation behind every sigma and gain."""
    corners = ((a, b, x), (a, b, y), (b, a, x), (b, a, y))  # apex in the middle
    angles = tuple(angle_rows(u - apex, w - apex) for u, apex, w in corners)
    gain = area_rows(a, b, x) + area_rows(a, b, y) - area_rows(a, x, y) - area_rows(b, x, y)
    return angles, gain


def bulk_hinges(a, b, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sigma and gain for stacked hinge coordinates.

    Each argument is an (n, 3) array; row i holds one hinge [a_i, b_i]
    with opposite vertices x_i, y_i.  Returns (sigma, gain) arrays.
    No degeneracy checking.
    """
    angles, gain = _hinge_rows(*(np.asarray(m, dtype=float) for m in (a, b, x, y)))
    return sum(angles), gain


def hinge_from_points(a, b, x, y) -> HingeMeasurement:
    """Measure the hinge [a, b] with opposite points x, y.

    Raises DegenerateTriangle if either current triangle has zero area
    or the hinge has zero length.  The flipped triangles may be
    degenerate; the gain is still defined.
    """
    a, b, x, y = (np.asarray(p, dtype=float).reshape(1, 3) for p in (a, b, x, y))
    if row_norms(b - a)[0] == 0.0:
        raise DegenerateTriangle("hinge endpoints coincide")
    if area_rows(a, b, x)[0] == 0.0 or area_rows(a, b, y)[0] == 0.0:
        raise DegenerateTriangle("hinge triangle has zero area")
    rows, gain = _hinge_rows(a, b, x, y)
    angles = tuple(float(t[0]) for t in rows)
    return HingeMeasurement(
        edge=(0, 1),
        opposite=(2, 3),
        angles=angles,
        sigma=float(sum(angles)),
        gain=float(gain[0]),
    )


def _opposite_vertices(cx: DiscComplex, edge) -> tuple[Edge, tuple[int, ...]]:
    """The sorted edge and the vertex opposite it in each incident face,
    in face-index order: one vertex for a boundary edge, two otherwise."""
    e = edge_key(*edge)
    if e not in cx.edge_faces:
        raise ValueError(f"{e} is not an edge of the complex")
    return e, tuple(next(v for v in cx.triangles[f] if v not in e) for f in cx.edge_faces[e])


def _hinge_vertices(disc: PolyhedralDisc, edge) -> tuple[int, int, int, int]:
    e, opposite = _opposite_vertices(disc.complex, edge)
    if len(opposite) == 1:
        raise BoundaryEdge(f"edge {e} lies on the boundary")
    return (*e, *opposite)


def measure_hinge(disc: PolyhedralDisc, edge) -> HingeMeasurement:
    """Measurement of an interior edge of ``disc``.

    Opposite vertices are reported in the order of the two face
    indices; sigma and gain do not depend on that order.
    """
    a, b, x, y = _hinge_vertices(disc, edge)
    p = disc.positions
    m = hinge_from_points(p[a], p[b], p[x], p[y])
    return replace(m, edge=(a, b), opposite=(x, y))


# =====================================================================
# Edge flip
# =====================================================================


@dataclass(frozen=True)
class FlipCheck:
    """Verdict of the combinatorial flip precondition."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def can_flip(disc: PolyhedralDisc, edge) -> FlipCheck:
    """Whether ``edge`` admits a flip: interior, and the opposite
    vertices not already joined by an edge (a flip would double it)."""
    e, opposite = _opposite_vertices(disc.complex, edge)
    if len(opposite) == 1:
        return FlipCheck(False, "BoundaryEdge")
    if edge_key(*opposite) in disc.complex.edge_faces:
        return FlipCheck(False, "OppositeVerticesAdjacent")
    return FlipCheck(True, None)


def flip(disc: PolyhedralDisc, edge) -> PolyhedralDisc:
    """Replace the hinge triangles abx, aby by axy, bxy.

    The two new triangles occupy the old face slots, every other
    triangle is untouched, and the boundary cycle is preserved.

    Raises BoundaryEdge or FlipForbidden when the combinatorial
    precondition fails, DegenerateTriangle when the flipped geometry
    falls below the area floor, and InvariantViolation if the rebuilt
    complex has another boundary cycle (a defect, never expected).
    """
    check = can_flip(disc, edge)
    if not check:
        if check.reason == "BoundaryEdge":
            raise BoundaryEdge(f"cannot flip boundary edge {edge_key(*edge)}")
        raise FlipForbidden(f"flip of {edge_key(*edge)}: {check.reason}")
    cx = disc.complex
    (a, b), (x, y) = _opposite_vertices(cx, edge)
    forward, backward = cx.edge_faces[(a, b)]
    # The face traversing a -> b contributes x, the other one y; that
    # choice makes the replacements (x, a, y), (y, b, x) match the
    # orientation of the surrounding complex.
    if (a, b) not in _directed_edges(cx.triangles[forward]):
        forward, backward, x, y = backward, forward, y, x
    new_tris = list(cx.triangles)
    new_tris[forward] = (x, a, y)
    new_tris[backward] = (y, b, x)
    new_complex = build_from_triangles(new_tris)
    if new_complex.boundary_cycle != cx.boundary_cycle:
        raise InvariantViolation(f"flip of {(a, b)} changed the boundary cycle")
    return PolyhedralDisc(new_complex, disc.positions, disc.eps_deg)


def flat_convex_quad(a, b, x, y, tol: float = 1e-6) -> bool:
    """Whether the hinge quadrilateral a, x, b, y is coplanar and convex.

    Coplanarity compares the tetrahedron determinant against
    ``tol * L**3`` with L the largest pairwise distance; convexity
    requires every corner turn of the projected polygon to agree with
    the Newell normal up to ``-tol``.
    """
    pts = np.array([a, x, b, y], dtype=float)
    diffs = pts[:, None, :] - pts[None, :, :]
    scale = float(row_norms(diffs).max())
    if scale == 0.0:
        return False
    det = float(np.linalg.det(np.stack([pts[2] - pts[0], pts[1] - pts[0], pts[3] - pts[0]])))
    if abs(det) > tol * scale**3:
        return False
    normal = np.cross(pts, np.roll(pts, -1, axis=0)).sum(axis=0)
    norm = float(row_norms(normal))
    if norm == 0.0:
        return False
    sides = np.roll(pts, -1, axis=0) - pts
    lengths = row_norms(sides)
    if np.any(lengths == 0.0):
        return False
    unit = sides / lengths[:, None]
    turns = np.cross(unit, np.roll(unit, -1, axis=0)) @ (normal / norm)
    return not np.any(turns < -tol)


def flat_convex_check(disc: PolyhedralDisc, edge, tol: float = 1e-6) -> bool:
    """Apply :func:`flat_convex_quad` to a hinge of ``disc``."""
    a, b, x, y = _hinge_vertices(disc, edge)
    p = disc.positions
    return flat_convex_quad(p[a], p[b], p[x], p[y], tol=tol)


# =====================================================================
# Fan reduction
# =====================================================================


@dataclass(frozen=True)
class FanReduction:
    """Record of one empty-triangle cut.

    ``vertex_map`` sends surviving old vertex ids to their ids in the
    reduced complex (kept ids stay in ascending order).
    """

    triple: Triangle
    removed_triangles: int
    removed_vertices: int
    area_before: float
    area_after: float
    area_decrease: float
    vertex_map: dict[int, int]


def reduce_fan(disc: PolyhedralDisc, triple) -> tuple[PolyhedralDisc, FanReduction]:
    """Cut along the empty triangle ``triple``.

    The cycle's interior edges separate the disc.  The faces on the
    two sides of one interior cycle edge are flooded without crossing
    the cycle; the bounded domain is the side whose faces carry no
    boundary edge off the cycle.  (The outside may fall apart into
    several pieces that meet the cycle only at vertices, but each keeps
    a boundary edge of its own, and only the flooded one matters.)  The
    domain is replaced by the flat triangle on the cycle's vertices.
    When the cycle is the entire boundary the bounded domain is the
    whole disc.  Surviving vertices are renumbered compactly,
    preserving their relative order.

    Raises
    ------
    NotAViolation
        ``triple`` is not an empty triangle of the complex.
    CycleBoundsBoundary
        No unique bounded domain exists: the two floods fill the same
        faces, or not exactly one side qualifies.  Unreachable for
        genuine violations of a valid disc; kept as a defensive check.
    InvariantViolation
        The reduced disc has more area than the input (a defect, never
        expected).
    """
    t = tuple(int(v) for v in triple)
    if len(t) != 3 or len(set(t)) != 3:
        raise ValueError(f"{triple!r} is not a triple of distinct vertices")
    t = tuple(sorted(t))
    cx = disc.complex
    if max(t) >= cx.vertex_count:
        raise NotAViolation(f"{t} contains ids outside the complex")
    cycle_edges = [edge_key(t[0], t[1]), edge_key(t[0], t[2]), edge_key(t[1], t[2])]
    for e in cycle_edges:
        if e not in cx.edge_faces:
            raise NotAViolation(f"{t} is missing edge {e}")
    if frozenset(t) in {frozenset(tri) for tri in cx.triangles}:
        raise NotAViolation(f"{t} spans a face")

    cycle_boundary = {e for e in cycle_edges if len(cx.edge_faces[e]) == 1}
    area_before = disc.total_area()

    if len(cycle_boundary) == 3:
        # The cycle is the whole boundary; everything gets replaced.
        # Reusing the stored cycle keeps its direction.
        new_tris = [cx.boundary_cycle]
        keep = sorted(t)
        removed_faces = len(cx.triangles)
    else:
        cut = set(cycle_edges) - cycle_boundary
        inner = []
        for seed in cx.edge_faces[min(cut)]:
            side, stack, outer = {seed}, [seed], False
            while stack:
                for a, b in _directed_edges(cx.triangles[stack.pop()]):
                    e = edge_key(a, b)
                    faces = cx.edge_faces[e]
                    outer = outer or (len(faces) == 1 and e not in cycle_boundary)
                    if e in cut:
                        continue
                    for g in faces:
                        if g not in side:
                            side.add(g)
                            stack.append(g)
            if not outer:
                inner.append(side)
        # Floods that meet fill the same faces and count twice or not at all.
        if len(inner) != 1:
            raise CycleBoundsBoundary(
                f"cycle {t} does not bound a unique sub-disc "
                f"({len(inner)} of the two sides of {min(cut)} qualify)"
            )
        (enclosed,) = inner
        new_tris = [tri for i, tri in enumerate(cx.triangles) if i not in enclosed]
        removed_faces = len(cx.triangles) - len(new_tris)
        new_tris.append(t)
        keep = sorted({v for tri in new_tris for v in tri})

    vertex_map = {old: new for new, old in enumerate(keep)}
    renumbered = [tuple(vertex_map[v] for v in tri) for tri in new_tris]
    new_complex = build_from_triangles(renumbered)
    new_disc = PolyhedralDisc(new_complex, disc.positions[keep], disc.eps_deg)

    area_after = new_disc.total_area()
    decrease = area_before - area_after
    # Replacing a region by the flat triangle over its boundary cannot
    # raise area (orthogonal projection onto the triangle's plane).
    if decrease < -1e-9 * max(area_before, 1.0):
        raise InvariantViolation(f"fan reduction along {t} increased area by {-decrease}")

    record = FanReduction(
        triple=t,
        removed_triangles=removed_faces,
        removed_vertices=cx.vertex_count - len(keep),
        area_before=area_before,
        area_after=area_after,
        area_decrease=decrease,
        vertex_map=vertex_map,
    )
    return new_disc, record
