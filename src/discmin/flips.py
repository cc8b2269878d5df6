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

Every edit of the triangle list lives here, and none rebuilds the
complex.  ``flip`` and ``flip_pass`` share one edit of a mutable edge
table and assemble the flipped disc from it (see ``_assembled``);
``reduce_fan`` renumbers the old complex's arrays and patches the cut.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import (
    BoundaryEdge,
    CycleBoundsBoundary,
    DegenerateTriangle,
    FlipForbidden,
    InvalidInput,
    InvariantViolation,
    NotAViolation,
    _check,
    _check_tolerance,
    _is_number,
)
from .mesh import DiscComplex, Edge, PolyhedralDisc, Triangle, edge_key
from .mesh import _MAX_COORDINATE, _ZERO, _areas, _directed_edges, _real_array, _triangle, area_rows
from .mesh import _check_disc, canonical_triangle, cross_rows, row_norms


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


# the default margin of flip_pass: it flips the hinges with sigma < pi - EPS_FLIP
EPS_FLIP = 1e-9
# the relative tolerance of flat_convex_quad's coplanarity and convexity tests
_FLAT_TOL = 1e-6
# for each cross of ``_hinge_rows``, the rows of q at its sides' ends and apex
_HINGE_CORNERS = np.array([[0, 0, 1, 1, 2, 2], [2, 3, 2, 3, 3, 3], [1, 1, 0, 0, 0, 1]])


def _hinge_rows(q):
    """The four angles (abx, aby, bax, bay), their sum sigma and the flip
    gain of stacked hinges whose points a, b, x, y are the (4, n, 3)
    array ``q``; the single implementation behind every sigma and gain.

    Six cross products serve both: the corner crosses at b, of the
    angles abx and aby, and at a, of bax and bay, then the area crosses
    of the flipped triangles axy and bxy.  The two at a,
    (b - a) x (x - a) and (b - a) x (y - a), are also the area crosses
    of the current triangles abx and aby.  The sides are one gather
    through ``_HINGE_CORNERS`` less the apexes, and sigma sums the angles
    in order.  Each angle and area is the same float operations as
    ``angle_rows`` and ``area_rows`` give it: the cross lengths are the
    products and sums of ``cross_rows`` and ``row_norms``, in components.
    """
    corners = q[_HINGE_CORNERS]
    u, w = corners[:2] - corners[2]
    (u0, u1, u2), (w0, w1, w2) = u.T, w.T
    c0, c1, c2 = u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0
    norms = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2).T
    angles = np.arctan2(norms[:4], np.einsum("...i,...i->...", u[:4], w[:4]))
    areas = 0.5 * norms
    gain = areas[2] + areas[3] - areas[4] - areas[5]
    return angles, angles.sum(axis=0), gain


def _hinge_points(points, ndim: int) -> np.ndarray:
    """The points a, b, x, y stacked into one float array; InvalidInput
    unless they are four real arrays of one shape, (n, 3) when ``ndim``
    is 2 and (3,) when it is 1, with no coordinate past the bound that
    ``PolyhedralDisc`` puts on positions, so no cross product overflows."""
    q = _real_array(points)
    if (q is None or q.ndim != ndim + 1 or q.shape[-1] != 3
            or not (np.abs(q) <= _MAX_COORDINATE).all()):
        shape = "(n, 3)" if ndim == 2 else "(3,)"
        raise InvalidInput(
            f"hinge points must be four real arrays of shape {shape} "
            f"with finite coordinates at most {_MAX_COORDINATE:g} in size"
        )
    return q


def bulk_hinges(a, b, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sigma and gain for stacked hinge coordinates.

    Each argument is an (n, 3) array; row i holds one hinge [a_i, b_i]
    with opposite vertices x_i, y_i.  Returns (sigma, gain) arrays.
    No degeneracy checking; raises InvalidInput unless the arguments are
    real arrays of one shape (n, 3) with finite coordinates of at most
    1e75 in size.
    """
    _, sigma, gain = _hinge_rows(_hinge_points((a, b, x, y), 2))
    return sigma, gain


def hinge_from_points(a, b, x, y) -> HingeMeasurement:
    """Measure the hinge [a, b] with opposite points x, y.

    Raises DegenerateTriangle if either current triangle has zero area
    or the hinge has zero length.  The flipped triangles may be
    degenerate; the gain is still defined.  Raises InvalidInput unless
    each point is three finite real coordinates of at most 1e75 in size.
    """
    q = _hinge_points((a, b, x, y), 1).reshape(4, 1, 3)
    a, b, x, y = q
    if row_norms(b - a)[0] == 0.0:
        raise DegenerateTriangle("hinge endpoints coincide")
    if area_rows(a, b, x)[0] == 0.0 or area_rows(a, b, y)[0] == 0.0:
        raise DegenerateTriangle("hinge triangle has zero area")
    angles, sigma, gain = _hinge_rows(q)
    return HingeMeasurement(
        edge=(0, 1),
        opposite=(2, 3),
        angles=tuple(angles[:, 0].tolist()),
        sigma=float(sigma[0]),
        gain=float(gain[0]),
    )


def _edge_table(cx: DiscComplex) -> dict[Edge, tuple[tuple[int, int], tuple[int, int]]]:
    """The rows of ``edge_face_array`` and ``opposite_array`` as a mutable
    dict: each sorted edge to its two (face, opposite vertex) pairs, faces
    ascending, (-1, -1) second on the boundary; the layout ``_flip_edit`` keeps."""
    faces, opposite = cx.edge_face_array.T.tolist(), cx.opposite_array.T.tolist()
    return dict(zip(cx.edges, zip(zip(faces[0], opposite[0]), zip(faces[1], opposite[1]))))


def _hinge_vertices(disc: PolyhedralDisc, edge) -> tuple[int, int, int, int]:
    _check_disc(disc)
    e, opposite = disc.complex.opposite_vertices(edge)
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
    _check_disc(disc)
    e, opposite = disc.complex.opposite_vertices(edge)
    if len(opposite) == 1:
        return FlipCheck(False, "BoundaryEdge")
    try:
        disc.complex.opposite_vertices(opposite)
    except InvalidInput:
        return FlipCheck(True, None)
    return FlipCheck(False, "OppositeVerticesAdjacent")


def _flip_edit(triangles: list[Triangle], table: dict, edge: Edge, points: list, floor: float,
               areas: np.ndarray | None = None, anchors: dict | None = None) -> tuple[int, int]:
    """Flip the interior hinge ``edge`` (a sorted key) in mutable tables.

    The triangles abx, aby become axy, bxy in the same two slots,
    oriented like the surrounding complex and rotated the way
    ``build_from_triangles`` stores them.  ``table`` (``_edge_table``'s
    layout) loses the hinge, gains the diagonal, and gives each quad side
    its new face and opposite vertex; ``areas``, if given, takes the two
    new areas, from ``points``, the positions as Python floats, and
    ``anchors`` each of the four vertices' ``_ring`` start.  Returns the
    opposite vertices (x, y) in face-index order.

    Raises FlipForbidden when x and y are already joined, and
    DegenerateTriangle when a new triangle's area falls below
    ``floor``; a refused flip edits nothing.
    """
    a, b = edge
    (f, x), (g, y) = table[edge]
    if edge_key(x, y) in table:
        raise FlipForbidden(f"flip of {edge}: OppositeVerticesAdjacent")
    # The face traversing a -> b contributes p, the other one q; that
    # choice makes the replacements (p, a, q), (q, b, p) match the
    # orientation of the surrounding complex.
    t = triangles[f]
    forward, backward, p, q = (f, g, x, y) if t[t.index(a) - 2] == b else (g, f, y, x)
    new = (canonical_triangle((p, a, q)), canonical_triangle((q, b, p)))
    new_areas = _areas(points, new)
    for t, area in zip(new, new_areas):
        if area < floor:
            raise DegenerateTriangle(
                f"flip of {edge}: triangle {t} has area {area:.6e}, below the floor {floor:.6e}"
            )
    triangles[forward], triangles[backward] = new
    if areas is not None:
        areas[forward], areas[backward] = new_areas
    del table[edge]
    table[edge_key(x, y)] = ((f, a), (g, b)) if f == forward else ((f, b), (g, a))
    # the side (u, w) trades the old face opposite w for the new face at u
    for u, w, old, pair in ((a, p, forward, (forward, q)), (a, q, backward, (forward, p)),
                            (b, p, forward, (backward, q)), (b, q, backward, (backward, p))):
        first, second = table[side := edge_key(u, w)]
        first, second = (pair, second) if first[0] == old else (first, pair)
        table[side] = (first, second) if second[0] < 0 or first[0] < second[0] else (second, first)
    if anchors is not None:
        anchors.update({a: (p, forward), b: (q, backward), p: (q, forward), q: (p, backward)})
    return x, y


def _ring(table: dict, v: int, start: tuple[int, int], degree: int) -> tuple[list, list]:
    """The ``degree`` neighbours of ``v`` and faces of its ring (see
    ``mesh``) read off ``table`` from ``start``: a neighbour w and the
    face right of v -> w, -1 for the boundary successor.  The face left
    of v -> w is the other face of its edge, and its opposite vertex is
    next.  InvariantViolation (a defect) unless the ring closes: each
    edge holds the face it is reached through, and ``degree`` distinct
    neighbours end back at w or, on the boundary, at face -1."""
    (w, right), ring, faces = start, [], []
    for _ in range(degree):
        (f, x), (g, y) = table.get((v, w) if v < w else (w, v), ((-1, -1), (-1, -1)))
        if f == right:
            f, x = g, y
        elif g != right:
            break
        ring.append(w)
        faces.append(f)
        if f < 0:
            break
        w, right = x, f
    boundary = start[1] < 0
    if not (0 < len(set(ring)) == len(ring) == degree and (faces[-1] < 0) == boundary
            and (boundary or w == ring[0])):
        raise InvariantViolation(f"the flipped ring of vertex {v} does not close")
    k = 0 if boundary else ring.index(min(ring))
    return ring[k:] + ring[:k], faces[k:] + faces[:k]


def _assembled(disc: PolyhedralDisc, triangles: list[Triangle], table: dict, anchors: dict,
               areas: np.ndarray) -> PolyhedralDisc:
    """``disc`` flipped into the edited ``triangles`` and ``table``,
    without a rebuild: flips keep V, E, F and the boundary cycle, so the
    edge, opposite and face arrays come from the sorted table, and only
    the rings of the flipped vertices, the keys of ``anchors``, are walked
    again by ``_ring``; every other ring slice is copied.  The positions
    and the floor carry over (``PolyhedralDisc._derived``), with the
    ``areas`` the edits checked."""
    cx = disc.complex
    edges = sorted(table)
    pairs = chain.from_iterable(chain.from_iterable(map(table.__getitem__, edges)))
    pairs = np.fromiter(pairs, np.intp, 4 * len(edges)).reshape(-1, 2, 2)
    edge_array = np.fromiter(chain.from_iterable(edges), np.intp, 2 * len(edges)).reshape(-1, 2)
    ring_offsets = np.concatenate((_ZERO, np.add.accumulate(np.bincount(edge_array.ravel()))))
    old, new = cx.ring_offsets.tolist(), ring_offsets.tolist()
    vertices, faces = cx.ring_vertices.tolist(), cx.ring_faces.tolist()
    ring_vertices, ring_faces, copied = [], [], 0
    for v in sorted(anchors):
        ring_vertices += vertices[old[copied]:old[v]]
        ring_faces += faces[old[copied]:old[v]]
        start = (vertices[old[v]], -1) if v in cx.boundary_vertices else anchors[v]
        ring, left = _ring(table, v, start, new[v + 1] - new[v])
        ring_vertices += ring
        ring_faces += left
        copied = v + 1
    ring_vertices += vertices[old[copied]:]
    ring_faces += faces[old[copied]:]
    triangle_array = np.fromiter(chain.from_iterable(triangles), np.intp, 3 * len(triangles))
    arrays = (triangle_array.reshape(-1, 3), edge_array, pairs[..., 1].copy(), pairs[..., 0].copy(),
              ring_offsets, np.fromiter(ring_vertices, np.intp), np.fromiter(ring_faces, np.intp))
    for array in arrays:
        array.setflags(write=False)
    flipped = DiscComplex(cx.vertex_count, tuple(triangles), tuple(edges), cx.boundary_cycle,
                          cx.boundary_vertices, *arrays)
    return disc._derived(flipped, disc.positions, areas)


def flip(disc: PolyhedralDisc, edge) -> PolyhedralDisc:
    """Replace the hinge triangles abx, aby by axy, bxy.

    The two new triangles occupy the old face slots, every other
    triangle is untouched, and the boundary cycle is preserved.  The
    complex is assembled from the edited edge table, not rebuilt.

    Raises BoundaryEdge or FlipForbidden when the combinatorial
    precondition fails, DegenerateTriangle when the flipped geometry
    falls below the area floor, and InvariantViolation if a flipped
    vertex's ring does not close (a defect, never expected).
    """
    a, b, _, _ = _hinge_vertices(disc, edge)
    cx = disc.complex
    triangles, table, anchors, areas = list(cx.triangles), _edge_table(cx), {}, disc._areas.copy()
    _flip_edit(triangles, table, (a, b), disc.positions.tolist(), disc._floor, areas, anchors)
    return _assembled(disc, triangles, table, anchors, areas)


@dataclass(frozen=True)
class FlipRecord:
    """One flip of a pass: the hinge ``edge``, its sigma and area decrease
    before the flip, and the ``diagonal`` that replaced it, both sorted."""

    edge: tuple[int, int]
    sigma: float
    area_decrease: float
    diagonal: tuple[int, int]


@dataclass(frozen=True, eq=False)
class FlipPassResult:
    disc: PolyhedralDisc
    flips: tuple[FlipRecord, ...]
    cap_exceeded: bool


def flip_pass(
    disc: PolyhedralDisc, eps_flip: float = EPS_FLIP, cap: int | None = None
) -> FlipPassResult:
    """Flip hinges with sigma < pi - eps_flip until none remain.

    Works on plain tables: the triangle list, ``_edge_table``'s edge ->
    (face, opposite vertex) pairs and the sigma and gain of each eligible
    hinge.  The first scan measures the interior rows of the complex's
    ``edge_array`` and ``opposite_array`` by one gather and kernel call
    and keeps the eligible ones by one mask; with none, ``disc`` is
    returned and no table built.  After each flip the hinges it touched,
    the new diagonal and the interior quad sides, are re-measured from
    their rows of the edge table, by one more gather and call, and join
    or leave the eligible ones.  The first eligible edge in sorted order is flipped
    each time.  Each flip strictly decreases area, so the pass
    terminates; ``cap`` (default 100 edges' worth) is a safety stop,
    and ``cap_exceeded`` says that it left a flip the pass would have
    made.  Flips that ``flip`` would refuse (opposite vertices already
    joined, or a new triangle below the area floor) are skipped.  The
    returned disc is assembled once, at the end, from the edited tables
    by ``_assembled``, and carries over the geometry the pass checked.
    ``eps_flip`` must be a finite number >= 0, ``cap`` an integer >= 0.
    """
    _check_disc(disc)
    _check_tolerance("eps_flip", eps_flip)
    _check("cap", cap, cap is None or _is_number(cap, integer=True) and cap >= 0,
           "None or an integer >= 0")
    cx, p = disc.complex, disc.positions
    threshold = np.pi - eps_flip
    # the first scan gathers the interior rows of the complex's edge table
    interior = (cx.opposite_array[:, 1] >= 0).nonzero()[0]
    rows = np.concatenate((cx.edge_array, cx.opposite_array), axis=1)[interior]
    _, sigma, gain = _hinge_rows(p[rows.T])
    kept = (sigma < threshold).nonzero()[0]
    if not len(kept):
        return FlipPassResult(disc=disc, flips=(), cap_exceeded=False)
    eligible = dict(zip(map(cx.edges.__getitem__, interior[kept].tolist()),
                        zip(sigma[kept].tolist(), gain[kept].tolist())))
    if cap is None:
        cap = 100 * len(cx.edges)
    triangles, table, anchors, areas = list(cx.triangles), _edge_table(cx), {}, disc._areas.copy()
    points, floor = p.tolist(), disc._floor
    records: list[FlipRecord] = []
    cap_exceeded = False
    while not cap_exceeded:
        for e in sorted(eligible):
            # at the cap, a flip is only tried, on shallow copies of the tables, writing no area
            at_cap = len(records) >= cap
            edit = ((list(triangles), dict(table), e, points, floor) if at_cap
                    else (triangles, table, e, points, floor, areas, anchors))
            try:
                x, y = _flip_edit(*edit)
            except (FlipForbidden, DegenerateTriangle):
                continue
            if at_cap:
                cap_exceeded = True
            else:
                diagonal, (a, b) = edge_key(x, y), e
                records.append(FlipRecord(e, *eligible.pop(e), diagonal))
                touched = [diagonal, *(edge_key(u, w) for u in (a, b) for w in (x, y))]
                rows = [(*h, o1, o2) for h in touched for (_, o1), (g, o2) in [table[h]] if g >= 0]
                _, sigma, gain = _hinge_rows(p[np.array(rows, dtype=np.intp).T])
                for row, s, g in zip(rows, sigma.tolist(), gain.tolist()):
                    eligible.pop(row[:2], None)
                    if s < threshold:
                        eligible[row[:2]] = (s, g)
            break
        else:
            break
    if records:
        disc = _assembled(disc, triangles, table, anchors, areas)
    return FlipPassResult(disc=disc, flips=tuple(records), cap_exceeded=cap_exceeded)


def flat_convex_quad(a, b, x, y) -> bool:
    """Whether the hinge quadrilateral a, x, b, y is coplanar and convex.

    Coplanarity compares the tetrahedron determinant against
    ``_FLAT_TOL * L**3`` with L the largest pairwise distance; convexity
    requires every corner turn of the projected polygon to agree with
    the Newell normal up to ``-_FLAT_TOL``.  Both tests are scale-free, so they
    run on the quad moved to put a at the origin and scaled by the power
    of two that brings its largest coordinate near 1: the scaling is
    exact, and no product over- or underflows at any scale.  Raises
    InvalidInput unless each point is three finite real coordinates of at
    most 1e75 in size.
    """
    pts = _hinge_points((a, x, b, y), 1)
    pts = pts - pts[0]
    pts = np.ldexp(pts, -np.frexp(np.abs(pts).max())[1])
    diffs = pts[:, None, :] - pts[None, :, :]
    scale = float(row_norms(diffs).max())
    det = float(np.linalg.det(np.stack([pts[2] - pts[0], pts[1] - pts[0], pts[3] - pts[0]])))
    if abs(det) > _FLAT_TOL * scale**3:
        return False
    normal = cross_rows(pts, np.roll(pts, -1, axis=0)).sum(axis=0)
    norm = float(row_norms(normal))
    if norm == 0.0:
        return False
    sides = np.roll(pts, -1, axis=0) - pts
    lengths = row_norms(sides)
    if np.any(lengths == 0.0):
        return False
    unit = sides / lengths[:, None]
    turns = cross_rows(unit, np.roll(unit, -1, axis=0)) @ (normal / norm)
    return not np.any(turns < -_FLAT_TOL)


def flat_convex_check(disc: PolyhedralDisc, edge) -> bool:
    """Apply :func:`flat_convex_quad` to a hinge of ``disc``."""
    a, b, x, y = _hinge_vertices(disc, edge)
    p = disc.positions
    return flat_convex_quad(p[a], p[b], p[x], p[y])


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


def _enclosed(cx: DiscComplex, t: Triangle, sides: tuple[list, list]) -> tuple[int, set]:
    """The side that the cycle ``t`` bounds, as its index into ``sides``
    (the faces along the cycle on either side) and its faces.  The sides
    are flooded a face at a time in turn, never across the cycle; one that
    meets a boundary edge, or has no face, lies outside, and the first to
    close is the bounded one, so no more faces outside the cycle are
    visited than inside it.  CycleBoundsBoundary when both sides meet one."""
    a, b, c = t
    cut, edges, edge_faces = ((a, b), (a, c), (b, c)), cx.edges, cx.edge_face_array.tolist()
    floods = [(set(seeds), list(seeds)) for seeds in sides]
    open_sides = [k for k in (0, 1) if sides[k]]
    while open_sides:
        for k in tuple(open_sides):
            seen, stack = floods[k]
            if not stack:
                return k, seen
            f = stack.pop()
            for u, w in _directed_edges(cx.triangles[f]):
                if (e := edge_key(u, w)) not in cut:
                    g = sum(edge_faces[bisect_left(edges, e)]) - f  # the face across, or -1
                    if g < 0:
                        open_sides.remove(k)
                        break
                    if g not in seen:
                        seen.add(g)
                        stack.append(g)
    raise CycleBoundsBoundary(f"cycle {t} bounds no face the boundary cannot reach")


def reduce_fan(disc: PolyhedralDisc, triple) -> tuple[PolyhedralDisc, FanReduction]:
    """Cut along the empty triangle ``triple``.

    The cycle separates the disc.  The faces on the side it bounds
    (``_enclosed``) are replaced by the flat triangle on the cycle's
    vertices, running the cycle as they do; when the other side has no
    face, the cycle is the whole boundary.  Surviving vertices and faces
    are renumbered compactly in their order, the flat triangle last.
    That keeps the edge rows sorted and each triangle's rotation and
    untouched ring's start, so the reduced complex is assembled from the
    old one's arrays, not rebuilt: only the cycle's edges, which take the
    flat face, and its vertices' rings, which lose their arc inside it,
    are patched.  The kept faces keep their areas and the floor carries
    over (``PolyhedralDisc._derived``): only the flat triangle is checked.

    Raises
    ------
    InvalidInput
        ``disc`` is not a PolyhedralDisc, or ``triple`` not three distinct integer vertex ids.
    NotAViolation
        ``triple`` is not an empty triangle of the complex.
    CycleBoundsBoundary
        Both sides of the cycle meet the boundary, so it bounds nothing.
        Unreachable for genuine violations of a valid disc; kept as a
        defensive check.
    DegenerateTriangle
        The flat triangle's area is below the disc's floor.
    InvariantViolation
        The cut would remove a boundary vertex, or add area (a defect,
        never expected).
    """
    _check_disc(disc)
    t = a, b, c = tuple(sorted(_triangle(triple)))
    cx = disc.complex
    cut = ((a, b), (a, c), (b, c))
    rows = [bisect_left(cx.edges, e) for e in cut]
    for e, i in zip(cut, rows):
        if cx.edges[i:i + 1] != (e,):
            raise NotAViolation(f"{t} is missing edge {e}")
        if a + b + c - sum(e) in cx.opposite_array[i].tolist():
            raise NotAViolation(f"{t} spans a face")
    face_pairs, opposite_pairs = cx.edge_face_array.copy(), cx.opposite_array.copy()
    sides = ([], [])  # the faces along the cycle that run it a -> b -> c, and the others
    for (u, w), faces in zip(((a, b), (c, a), (b, c)), face_pairs[rows].tolist()):
        for f in faces:
            if f >= 0:
                tri = cx.triangles[f]
                sides[tri[tri.index(u) - 2] != w].append(f)
    side, inside = _enclosed(cx, t, sides)
    flat, inside, count = [a, b, c] if side == 0 else [a, c, b], list(inside), len(cx.triangles)
    keep, kept = np.ones(cx.vertex_count, bool), np.ones(count, bool)
    keep[cx.triangle_array[inside]] = kept[inside] = False
    keep[flat] = True
    if not keep[list(cx.boundary_cycle)].all():
        raise InvariantViolation(f"fan reduction along {t} changed the boundary cycle")
    # old ids to new and -1 to -1; the flat face is numbered ``count`` until renumbered last
    vertex_ids = np.append(np.cumsum(keep) - 1, -1)
    face_ids = np.append(np.cumsum(kept) - 1, (count - len(inside), -1))
    (area,) = _areas(disc.positions[flat].tolist(), ((0, 1, 2),))
    if area < disc._floor:
        raise DegenerateTriangle(f"triangle {tuple(vertex_ids[flat].tolist())} has area "
                                 f"{area:.6e}, below the floor {disc._floor:.6e}")

    # each cycle edge trades its inside face for the flat one, last in face order
    for i, e in zip(rows, cut):
        (f, g), (x, y) = face_pairs[i].tolist(), opposite_pairs[i].tolist()
        f, x = (f, x) if kept[f] else (g, y)  # the outside face, or -1
        order = 1 if f >= 0 else -1  # -1 second
        face_pairs[i], opposite_pairs[i] = (f, count)[::order], (x, a + b + c - sum(e))[::order]
    # a cycle vertex keeps its ring from its predecessor p on the flat triangle to its
    # successor s, whose slot takes the flat face, and loses the arc from s to p
    ring_vertices, ring_faces = cx.ring_vertices.copy(), cx.ring_faces.copy()
    slots = np.repeat(keep, np.diff(cx.ring_offsets))
    for v, s, p in zip(flat, flat[1:] + flat[:1], flat[2:] + flat[:2]):
        lo, hi = cx.ring_offsets[v:v + 2].tolist()
        old, faces = ring_vertices[lo:hi].tolist(), ring_faces[lo:hi].tolist()
        m = (old.index(s) - (j := old.index(p))) % (hi - lo) + 1
        ring, faces = (old[j:] + old[:j])[:m], (faces[j:] + faces[:j])[:m - 1] + [count]
        j = ring.index(old[0] if v in cx.boundary_vertices else min(ring))
        ring_vertices[lo:lo + m], ring_faces[lo:lo + m] = ring[j:] + ring[:j], faces[j:] + faces[:j]
        slots[lo + m:hi] = False
    edge_rows = keep[cx.edge_array].all(axis=1)
    edge_array = vertex_ids[cx.edge_array[edge_rows]]
    triangle_array = vertex_ids[np.append(cx.triangle_array[kept], [flat], axis=0)]
    arrays = (triangle_array, edge_array, vertex_ids[opposite_pairs[edge_rows]],
              face_ids[face_pairs[edge_rows]],
              np.concatenate((_ZERO, np.add.accumulate(np.bincount(edge_array.ravel())))),
              vertex_ids[ring_vertices[slots]], face_ids[ring_faces[slots]])
    for array in arrays:
        array.setflags(write=False)
    survivors = np.flatnonzero(keep).tolist()
    cycle = tuple(vertex_ids[list(cx.boundary_cycle)].tolist())
    reduced = DiscComplex(len(survivors), tuple(map(tuple, triangle_array.tolist())),
                          tuple(map(tuple, edge_array.tolist())), cycle, frozenset(cycle), *arrays)
    area_before = disc.total_area()
    new_disc = disc._derived(reduced, disc.positions[keep], np.append(disc._areas[kept], area))

    area_after = new_disc.total_area()
    decrease = area_before - area_after
    # Replacing a region by the flat triangle over its boundary cannot
    # raise area (orthogonal projection onto the triangle's plane).
    if decrease < -1e-9 * area_before:
        raise InvariantViolation(f"fan reduction along {t} increased area by {-decrease}")
    return new_disc, FanReduction(t, len(inside), cx.vertex_count - len(survivors), area_before,
                                  area_after, decrease, dict(zip(survivors, range(len(survivors)))))
