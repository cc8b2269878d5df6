"""Shared geometry builders and independent oracles.

The oracles recompute quantities through routes deliberately different
from the library's (textbook Heron vs the sorted Kahan form, arccos vs
atan2, shoelace vs cross products) so that agreement means something.
"""

import contextlib
import itertools
import math
import re
from collections import deque
from itertools import combinations
from unittest import mock

import numpy as np

from discmin import PolyhedralDisc, build_from_triangles, edge_key
from discmin.errors import (
    CycleBoundsBoundary,
    DegenerateTriangle,
    DisconnectedComplex,
    FlipForbidden,
    InvalidInput,
    MultipleBoundaryComponents,
    NonManifoldEdge,
    ParseError,
    WrongEuler,
)
from discmin.flips import FlipPassResult, FlipRecord, bulk_hinges, can_flip
from discmin.mesh import (
    DiscComplex,
    _areas,
    _directed_edges,
    _triangle,
    angle_rows,
    area_rows,
    canonical_triangle,
    cross_rows,
    row_norms,
)


# ---------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------


def heron(a: float, b: float, c: float) -> float:
    s = 0.5 * (a + b + c)
    return math.sqrt(max(0.0, s * (s - a) * (s - b) * (s - c)))


def shoelace(points) -> float:
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def angle_between(u, w) -> float:
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    c = float(np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w)))
    return math.acos(min(1.0, max(-1.0, c)))


def cross_area(p0, p1, p2) -> float:
    p0, p1, p2 = (np.asarray(p, dtype=float) for p in (p0, p1, p2))
    return 0.5 * float(np.linalg.norm(np.cross(p1 - p0, p2 - p0)))


def faces_of(cx: DiscComplex, v: int) -> list:
    """The faces of ``cx`` around vertex ``v``, ascending, read off
    ``cx.triangles``."""
    return [i for i, t in enumerate(cx.triangles) if v in t]


def vertex_star_by_succ_walk(triangles, boundary, v: int) -> tuple:
    """Oracle for the rings: the successor walk ``DiscComplex.vertex_star``
    once made over the faces of ``v``.  Each face (v, a, b), turned to
    start at ``v``, sends a to b; an interior star starts at the smallest
    neighbour, a boundary star (``v`` in ``boundary``) at the neighbour no
    face sends to.  Returns the star and, for each of its neighbours u,
    the face (v, u, next) or -1 after the last neighbour of a boundary
    star."""
    succ, face = {}, {}
    for i, t in enumerate(triangles):
        if v in t:
            k = t.index(v)
            succ[t[(k + 1) % 3]] = t[(k + 2) % 3]
            face[t[(k + 1) % 3]] = i
    if v in boundary:
        (cur,) = set(succ) - set(succ.values())
    else:
        cur = min(succ)
    order = [cur]
    while cur in succ and len(order) <= len(succ):
        cur = succ[cur]
        if cur == order[0]:
            break
        order.append(cur)
    return tuple(order), tuple(face.get(u, -1) for u in order)


def assert_rings(cx: DiscComplex) -> None:
    """``ring_offsets``, ``ring_vertices`` and ``ring_faces`` of ``cx``
    against ``vertex_star_by_succ_walk`` at every vertex, -1 exactly in
    each boundary vertex's last slot; the arrays read-only intp, and
    ``vertex_star`` the ring's vertices."""
    offsets = cx.ring_offsets.tolist()
    assert offsets[0] == 0 and len(offsets) == cx.vertex_count + 1
    assert offsets[-1] == 2 * len(cx.edges) == len(cx.ring_vertices) == len(cx.ring_faces)
    for v in range(cx.vertex_count):
        star, faces = vertex_star_by_succ_walk(cx.triangles, cx.boundary_vertices, v)
        lo, hi = offsets[v], offsets[v + 1]
        assert tuple(cx.ring_vertices[lo:hi].tolist()) == star == cx.vertex_star(v)
        assert tuple(cx.ring_faces[lo:hi].tolist()) == faces
        assert (faces[-1] == -1) == (v in cx.boundary_vertices)
        assert -1 not in faces[:-1]
    for array in (cx.ring_offsets, cx.ring_vertices, cx.ring_faces):
        assert array.dtype == np.intp and array.ndim == 1
        assert not array.flags.writeable


def position_gradient_by_faces(disc: PolyhedralDisc, v: int) -> np.ndarray:
    """Oracle for ``position_area_gradient``: one incident face at a
    time, each adding (a - b) x n / 2 with n its unit normal."""
    gradient = np.zeros(3)
    p = disc.positions
    for i in faces_of(disc.complex, v):
        t = disc.complex.triangles[i]
        k = t.index(v)
        a, b = p[t[(k + 1) % 3]], p[t[(k + 2) % 3]]
        n = np.cross(a - p[v], b - p[v])
        norm = float(np.linalg.norm(n))
        if norm == 0.0:
            raise DegenerateTriangle(f"triangle {t} has zero area")
        gradient += 0.5 * np.cross(a - b, n / norm)
    return gradient


def star_area_by_arrays(disc, v: int):
    """Oracle for ``optimize._star_terms``: the star's area, gradient and
    Hessian in the position of ``v`` on numpy rows, one array per
    quantity and one star at a time, as the sweep computed them before
    it moved to Python floats.  Only ``disc.complex`` and
    ``disc.positions`` are read."""
    cx, p = disc.complex, disc.positions
    faces = [cx.triangles[i] for i in faces_of(cx, v)]
    rotated = np.array([t[t.index(v):] + t[:t.index(v)] for t in faces], dtype=np.intp)
    a, b = p[rotated[:, 1]], p[rotated[:, 2]]
    n = cross_rows(a - p[v], b - p[v])
    norms = row_norms(n)
    if np.any(norms == 0.0):
        raise DegenerateTriangle(f"triangle {faces[int(np.argmin(norms))]} has zero area")
    d = a - b
    unit = n / norms[:, None]
    gradient = 0.5 * cross_rows(d, unit).sum(axis=0)
    hessian = 0.5 * (unit.T * (np.einsum("ij,ij->i", d, d) / norms)) @ unit
    return 0.5 * float(norms.sum()), gradient, hessian


def trial_by_rebuild(disc: PolyhedralDisc, v: int, point):
    """Oracle for ``optimize._Sweep.trial``: build and validate the whole
    moved disc through ``disc.moved``, as every line-search trial once
    did.  Returns the star's areas in the moved disc, the decrease of
    the star area, and the moved disc; raises what ``moved`` raises."""
    moved = disc.moved(v, point)
    faces = faces_of(disc.complex, v)
    areas = [moved.triangle_area(f) for f in faces]
    return areas, sum(disc.triangle_area(f) for f in faces) - sum(areas), moved


def edge_faces_of(cx: DiscComplex) -> dict:
    """The edge -> faces table of ``cx``, read off ``cx.triangles`` one
    face at a time: each sorted edge with its faces, ascending."""
    table = {}
    for i, t in enumerate(cx.triangles):
        for a, b in _directed_edges(t):
            table.setdefault(edge_key(a, b), []).append(i)
    return {e: tuple(faces) for e, faces in table.items()}


def assert_edge_table(cx: DiscComplex) -> None:
    """``edges``, ``edge_array``, ``edge_face_array`` and
    ``opposite_array`` of ``cx`` against ``edge_faces_of``: the sorted
    edges row for row, each edge's faces in ascending order and the
    vertex opposite it in each, padded with -1 on the boundary; the
    arrays read-only intp.  ``opposite_vertices`` must answer each edge
    with the same opposite vertices, unpadded."""
    table = edge_faces_of(cx)
    edges = sorted(table)
    opposite = [[sum(cx.triangles[f]) - sum(e) for f in table[e]] for e in edges]
    assert cx.edges == tuple(edges)
    assert cx.edge_array.tolist() == [list(e) for e in edges]
    assert cx.edge_face_array.tolist() == [[*table[e], -1][:2] for e in edges]
    assert cx.opposite_array.tolist() == [[*o, -1][:2] for o in opposite]
    assert [cx.opposite_vertices(e[::-1]) for e in edges] == [
        (e, tuple(o)) for e, o in zip(edges, opposite)
    ]
    for array in (cx.edge_array, cx.edge_face_array, cx.opposite_array):
        assert array.dtype == np.intp and array.shape == (len(edges), 2)
        assert not array.flags.writeable


def build_from_triangles_by_conflict_walk(triples) -> DiscComplex:
    """Oracle for ``build_from_triangles``: the same checks in the same
    order, except that the face walk also records any face whose
    neighbour already runs the shared edge its way and reports that
    orientation conflict last, the edge, face and opposite-vertex arrays
    are read off its own edge -> faces dict, and the ring arrays are
    filled vertex by vertex by ``vertex_star_by_succ_walk``."""
    tris = []
    for t in triples:
        t = _triangle(t)
        if min(t) < 0:
            raise InvalidInput(f"negative vertex index in {t!r}")
        tris.append(t)
    if not tris:
        raise InvalidInput("empty triangle list")

    edge_faces = {}
    for i, t in enumerate(tris):
        for a, b in _directed_edges(t):
            edge_faces.setdefault(edge_key(a, b), []).append(i)
    for e, faces in edge_faces.items():
        if len(faces) > 2:
            raise NonManifoldEdge(f"edge {e} lies in {len(faces)} triangles")

    oriented = [None] * len(tris)
    oriented[0] = tris[0]
    queue = deque([0])
    boundary = []
    conflict = None
    while queue:
        i = queue.popleft()
        for a, b in _directed_edges(oriented[i]):
            faces = edge_faces[edge_key(a, b)]
            if len(faces) == 1:
                boundary.append((a, b))
            for j in faces:
                if j == i:
                    continue
                if oriented[j] is None:
                    s = tris[j]
                    if (a, b) in _directed_edges(s):
                        s = (s[0], s[2], s[1])
                    oriented[j] = s
                    queue.append(j)
                elif (a, b) in _directed_edges(oriented[j]):
                    conflict = conflict or edge_key(a, b)
    missing = oriented.count(None)
    if missing:
        raise DisconnectedComplex(f"{missing} triangles unreachable through shared edges")

    used = {v for t in tris for v in t}
    vertex_count = max(used) + 1
    if len(used) != vertex_count:
        unused = list(itertools.islice((v for v in range(vertex_count) if v not in used), 10))
        raise DisconnectedComplex(
            f"{vertex_count - len(used)} vertex ids appear in no triangle, the first {unused}"
        )

    euler = vertex_count - len(edge_faces) + len(tris)
    if euler != 1:
        raise WrongEuler(f"V - E + F = {euler}, expected 1")

    if not boundary:
        raise MultipleBoundaryComponents("complex has no boundary edges")
    succ = dict(boundary)
    start = cur = min(succ)
    cycle = []
    while cur in succ:
        cycle.append(cur)
        cur = succ.pop(cur)
    if cur != start or len(cycle) != len(boundary):
        raise MultipleBoundaryComponents(
            f"boundary edges do not form one cycle (the walk from vertex "
            f"{start} covers {len(cycle)} of {len(boundary)})"
        )
    if conflict is not None:
        raise NonManifoldEdge(f"orientation conflict across edge {conflict}")

    triangles = tuple(canonical_triangle(t) for t in oriented)
    rings = [vertex_star_by_succ_walk(triangles, cycle, v) for v in range(vertex_count)]
    edges = tuple(sorted(edge_faces))
    arrays = (
        triangles,
        edges,
        [[sum(triangles[f]) - sum(e) for f in edge_faces[e]] + [-1] * (2 - len(edge_faces[e]))
         for e in edges],
        [edge_faces[e] + [-1] * (2 - len(edge_faces[e])) for e in edges],
    )
    triangle_array, edge_array, opposite_array, edge_face_array = (
        np.array(a, dtype=np.intp).reshape(len(a), -1) for a in arrays
    )
    ring_offsets, ring_vertices, ring_faces = (
        np.array(a, dtype=np.intp)
        for a in (
            [0, *itertools.accumulate(len(star) for star, _ in rings)],
            [u for star, _ in rings for u in star],
            [f for _, faces in rings for f in faces],
        )
    )
    for array in (triangle_array, edge_array, opposite_array, edge_face_array,
                  ring_offsets, ring_vertices, ring_faces):
        array.setflags(write=False)
    return DiscComplex(
        vertex_count=vertex_count,
        triangles=triangles,
        edges=edges,
        boundary_cycle=tuple(cycle),
        boundary_vertices=frozenset(cycle),
        triangle_array=triangle_array,
        edge_array=edge_array,
        opposite_array=opposite_array,
        edge_face_array=edge_face_array,
        ring_offsets=ring_offsets,
        ring_vertices=ring_vertices,
        ring_faces=ring_faces,
    )


def loads_obj_by_token_columns(text: str) -> PolyhedralDisc:
    """Oracle for ``loads_obj``: every line cut into (token, column)
    pairs by ``\\S+`` up front, the vertex and face branches checking
    their field counts each on their own, and the triangles built by
    ``build_from_triangles_by_conflict_walk``.  A face that repeats an
    index is not a parse error here; it fails in the builder."""
    vertices, faces, face_lines = [], [], []
    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", raw)]
        if not tokens or tokens[0][0].startswith("#"):
            continue
        head, head_col = tokens[0]
        if head == "v":
            if len(tokens) != 4:
                raise ParseError(
                    f"vertex line has {len(tokens) - 1} fields, expected 3", number, head_col
                )
            coords = []
            for tok, col in tokens[1:]:
                # float() also reads "1_0" and non-ASCII digits, which C's strtod does not
                if not re.fullmatch(r"[\x21-\x7e]+", tok) or "_" in tok:
                    raise ParseError(f"bad coordinate {tok!r}", number, col)
                try:
                    coords.append(float(tok))
                except ValueError:
                    raise ParseError(f"bad coordinate {tok!r}", number, col) from None
            vertices.append(tuple(coords))
        elif head == "f":
            if len(tokens) != 4:
                raise ParseError(
                    f"face line has {len(tokens) - 1} fields, expected 3", number, head_col
                )
            ids = []
            for tok, col in tokens[1:]:
                if not re.match(r"[0-9]+\Z", tok):
                    raise ParseError(f"bad vertex index {tok!r}", number, col)
                try:
                    i = int(tok)
                except ValueError:  # past the interpreter's digit limit for int()
                    raise ParseError(f"vertex index has {len(tok)} digits", number, col) from None
                if i < 1:
                    raise ParseError("vertex indices are 1-based", number, col)
                ids.append(i - 1)
            faces.append(tuple(ids))
            face_lines.append(number)
        else:
            raise ParseError(f"unsupported directive {head!r}", number, head_col)
    for tri, number in zip(faces, face_lines):
        if max(tri) >= len(vertices):
            raise ParseError(f"face references vertex {max(tri) + 1} of {len(vertices)}", number)
    if not faces:
        raise ParseError("no faces in file", max(1, len(text.splitlines())))
    used_count = max(max(tri) for tri in faces) + 1
    if used_count < len(vertices):
        raise DisconnectedComplex(
            f"{len(vertices) - used_count} trailing vertices appear in no face"
        )
    complex_ = build_from_triangles_by_conflict_walk(faces)
    return PolyhedralDisc(complex_, np.array(vertices, dtype=float))


def flat_convex_quad_by_corners(a, b, x, y, tol: float = 1e-6) -> bool:
    """Oracle for ``flat_convex_quad``: the Newell normal summed and the
    corner turns tested one corner at a time."""
    pts = np.array([a, x, b, y], dtype=float)
    diffs = pts[:, None, :] - pts[None, :, :]
    scale = float(row_norms(diffs).max())
    if scale == 0.0:
        return False
    det = float(np.linalg.det(np.stack([pts[2] - pts[0], pts[1] - pts[0], pts[3] - pts[0]])))
    if abs(det) > tol * scale**3:
        return False
    normal = np.zeros(3)
    for k in range(4):
        normal += np.cross(pts[k], pts[(k + 1) % 4])
    norm = float(row_norms(normal))
    if norm == 0.0:
        return False
    normal /= norm
    for k in range(4):
        u = pts[(k + 1) % 4] - pts[k]
        w = pts[(k + 2) % 4] - pts[(k + 1) % 4]
        nu, nw = float(row_norms(u)), float(row_norms(w))
        if nu == 0.0 or nw == 0.0:
            return False
        if float(np.cross(u / nu, w / nw) @ normal) < -tol:
            return False
    return True


def hinge_rows_by_corners(a, b, x, y):
    """Oracle for ``flips._hinge_rows``: the four angles (abx, aby, bax,
    bay), their sum sigma and the flip gain of stacked hinges, one
    ``angle_rows`` call per corner and one ``area_rows`` call per
    triangle, eight cross products where the kernel forms six."""
    corners = ((a, b, x), (a, b, y), (b, a, x), (b, a, y))  # apex in the middle
    angles = tuple(angle_rows(u - apex, w - apex) for u, apex, w in corners)
    gain = area_rows(a, b, x) + area_rows(a, b, y) - area_rows(a, x, y) - area_rows(b, x, y)
    return angles, sum(angles), gain


def flip_by_rebuild(disc: PolyhedralDisc, edge) -> PolyhedralDisc:
    """Oracle for ``flip``: the two hinge faces replaced in their slots,
    each turned like the face it replaces, and the whole disc rebuilt by
    ``build_from_triangles`` and validated, instead of assembled from
    edited tables.  Raises FlipForbidden when the opposite vertices are
    joined, and DegenerateTriangle below the area floor."""
    cx = disc.complex
    (a, b), (x, y) = cx.opposite_vertices(edge)
    if not can_flip(disc, (a, b)):
        raise FlipForbidden(f"flip of {(a, b)}: OppositeVerticesAdjacent")
    f, g = cx.edge_face_array[cx.edges.index((a, b))].tolist()
    if (a, b) not in _directed_edges(cx.triangles[f]):
        f, g, x, y = g, f, y, x
    triangles = list(cx.triangles)
    triangles[f], triangles[g] = canonical_triangle((x, a, y)), canonical_triangle((y, b, x))
    return PolyhedralDisc(build_from_triangles(triangles), disc.positions, disc.eps_deg)


def assert_same_complex(got: DiscComplex, expected: DiscComplex) -> None:
    """``got`` equals ``expected`` in all twelve fields of a complex: the
    vertex count, triangles, edges, boundary cycle and boundary vertices,
    and each of the seven index arrays, read-only and of the same dtype,
    shape and entries."""
    for name in ("vertex_count", "triangles", "edges", "boundary_cycle", "boundary_vertices"):
        assert getattr(got, name) == getattr(expected, name), name
    for name in ("triangle_array", "edge_array", "opposite_array", "edge_face_array",
                 "ring_offsets", "ring_vertices", "ring_faces"):
        g, e = getattr(got, name), getattr(expected, name)
        assert g.dtype == e.dtype and g.shape == e.shape and np.array_equal(g, e), name
        assert not g.flags.writeable, name


def assert_assembled_as_rebuilt(disc: PolyhedralDisc) -> None:
    """The complex of ``disc``, which a flip or fan reduction assembled from
    edited arrays, equals ``build_from_triangles`` of its triangles, field
    for field."""
    assert_same_complex(disc.complex, build_from_triangles(list(disc.complex.triangles)))


def flip_pass_by_rebuild(disc: PolyhedralDisc, eps_flip: float = 1e-9, cap=None) -> FlipPassResult:
    """Oracle for ``flip_pass``: rescan every interior hinge with one
    ``bulk_hinges`` call and rebuild and validate the whole disc through
    ``flip_by_rebuild`` after each flip, instead of editing tables in
    place.  At the cap, the flip that would come next is made and
    dropped, and the cap counts as exceeded only if there is one."""
    if cap is None:
        cap = 100 * len(disc.complex.edges)
    records = []
    cap_exceeded = False
    while not cap_exceeded:
        cx, p = disc.complex, disc.positions
        edges = cx.interior_edges()
        hinges = [(*e, *cx.opposite_vertices(e)[1]) for e in edges]
        hinges = np.array(hinges, dtype=np.intp).reshape(-1, 4)
        sigma, gain = bulk_hinges(*(p[hinges[:, k]] for k in range(4)))
        progressed = False
        for k in np.flatnonzero(sigma < np.pi - eps_flip):
            e = edges[k]
            try:
                flipped = flip_by_rebuild(disc, e)
            except (FlipForbidden, DegenerateTriangle):
                continue
            if len(records) >= cap:
                cap_exceeded = True
                break
            disc = flipped
            records.append(FlipRecord(e, float(sigma[k]), float(gain[k]),
                                      edge_key(*cx.opposite_vertices(e)[1])))
            progressed = True
            break
        if not progressed:
            break
    return FlipPassResult(disc=disc, flips=tuple(records), cap_exceeded=cap_exceeded)


# The minimize loop's kernels in their earlier numpy forms.  The library
# forms make fewer numpy calls but must reproduce every float of these
# bit for bit.


def hinge_rows_three_gathers(q):
    """Bitwise reference for ``flips._hinge_rows``: the apexes and both
    sides of the six crosses gathered one by one, each side its own
    subtraction, and sigma the four-term sum."""
    apex = q[[1, 1, 0, 0, 0, 1]]
    u = q[[0, 0, 1, 1, 2, 2]] - apex
    w = q[[2, 3, 2, 3, 3, 3]] - apex
    norms = row_norms(cross_rows(u, w))
    angles = np.arctan2(norms[:4], np.einsum("...i,...i->...", u[:4], w[:4]))
    areas = 0.5 * norms
    gain = areas[2] + areas[3] - areas[4] - areas[5]
    return angles, angles[0] + angles[1] + angles[2] + angles[3], gain


def triangle_areas_by_columns(positions, triangles):
    """Bitwise reference for ``mesh.triangle_areas``: one gather per
    corner column, then ``area_rows``."""
    return area_rows(*(positions[triangles[:, k]] for k in range(3)))


def newton_step_reference(hessian, gradient):
    """Bitwise reference for the step of ``optimize._Sweep.newton``: a
    fresh identity damped by ``np.trace``, and None where ``np.any``
    finds the gradient zero."""
    if not np.any(gradient):
        return None
    return -np.linalg.solve(hessian + 1e-8 * np.trace(hessian) * np.eye(3), gradient)


def same_bits(got, expected) -> bool:
    """Equal arrays with equal bytes, so that -0.0 and 0.0 differ."""
    got, expected = np.asarray(got), np.asarray(expected)
    return np.array_equal(got, expected) and got.tobytes() == expected.tobytes()


def stalled_at_rest(trace) -> bool:
    """Whether ``trace`` stalled in an iteration that made no flip and
    no fan reduction and whose flip pass stopped short of the cap: the
    stall of a run that came to rest, read from its last record.  Such
    a run has not converged all the same; only a stationary stop has."""
    last = trace.iterations[-1]
    return (trace.stop_reason == "stalled" and not last.flips and not last.reductions
            and not last.flip_cap_exceeded)


@contextlib.contextmanager
def checked_discs_match_validation():
    """Within the block, every disc that ``PolyhedralDisc._derived`` builds
    from carried-over state must equal, bit for bit in its positions,
    triangle areas, diameter and floor, the disc that full validation of
    the same complex and positions builds, and its positions must be
    read-only.  Yields the list of the discs so checked."""
    derived = PolyhedralDisc._derived
    discs = []

    def compared(source, complex, positions, areas):
        disc = derived(source, complex, positions, areas)
        expected = PolyhedralDisc(complex, positions, source.eps_deg)
        assert same_bits(disc.positions, expected.positions)
        assert same_bits(disc._areas, expected._areas)
        assert same_bits(disc.diameter, expected.diameter)
        assert same_bits(disc._floor, expected._floor)
        assert not disc.positions.flags.writeable
        discs.append(disc)
        return disc

    with mock.patch.object(PolyhedralDisc, "_derived", compared):
        yield discs


def edge_faces_by_rows(cx: DiscComplex) -> dict:
    """Bitwise reference for ``flips._edge_table``'s faces: the edge ->
    faces table of ``cx`` as a mutable dict, each edge's one or two faces
    ascending."""
    return {e: (f, g) if g >= 0 else (f,)
            for e, (f, g) in zip(cx.edges, cx.edge_face_array.tolist())}


def opposite_by_sums(triangles, edge_faces, edge) -> tuple:
    """The vertex opposite the sorted ``edge`` in each of its faces, in
    face-index order, from the vertex sums of the faces."""
    return tuple(sum(triangles[f]) - sum(edge) for f in edge_faces[edge])


def flip_edit_by_gather(triangles, edge_faces, edge, positions, floor):
    """Bitwise reference for ``flips._flip_edit`` on the tables of
    ``edge_faces_by_rows``: the opposite vertices from the face sums and
    the two new areas from one numpy gather of their corners.  Returns
    (x, y) in face-index order; a refused flip edits nothing."""
    a, b = edge
    faces = edge_faces[edge]
    x, y = opposite_by_sums(triangles, edge_faces, edge)
    if edge_key(x, y) in edge_faces:
        raise FlipForbidden(f"flip of {edge}: OppositeVerticesAdjacent")
    forward, backward = faces
    p, q = x, y
    if (a, b) not in _directed_edges(triangles[forward]):
        forward, backward, p, q = backward, forward, y, x
    new = (canonical_triangle((p, a, q)), canonical_triangle((q, b, p)))
    corners = positions[np.array(new, dtype=np.intp)].reshape(6, 3).tolist()
    for t, area in zip(new, _areas(corners, ((0, 1, 2), (3, 4, 5)))):
        if area < floor:
            raise DegenerateTriangle(f"flip of {edge}: triangle {t} has area {area:.6e}")
    triangles[forward], triangles[backward] = new
    del edge_faces[edge]
    edge_faces[edge_key(x, y)] = faces
    # (b, p) leaves the forward face for the backward one, (a, q) the reverse.
    for side, left, joined in ((edge_key(b, p), forward, backward),
                               (edge_key(a, q), backward, forward)):
        edge_faces[side] = tuple(sorted(joined if f == left else f for f in edge_faces[side]))
    return x, y


def flip_pass_sorting_every_hinge(disc: PolyhedralDisc, eps_flip: float = 1e-9, cap=None):
    """Bitwise reference for ``flip_pass``: the tables and edits of
    ``edge_faces_by_rows`` and ``flip_edit_by_gather``, built up front,
    every interior hinge kept with its sigma and gain from
    ``hinge_rows_three_gathers``, each flip chosen by sorting all of
    them, and the disc rebuilt and validated at the end."""
    cx, p = disc.complex, disc.positions
    if cap is None:
        cap = 100 * len(cx.edges)
    triangles = list(cx.triangles)
    edge_faces = edge_faces_by_rows(cx)
    floor = disc._floor
    threshold = np.pi - eps_flip
    hinges = {}

    def measure(edges, rows):
        _, sigma, gain = hinge_rows_three_gathers(p[rows.T])
        hinges.update(zip(edges, zip(sigma.tolist(), gain.tolist())))

    interior = cx.opposite_array[:, 1] >= 0
    measure(itertools.compress(cx.edges, interior.tolist()),
            np.concatenate((cx.edge_array, cx.opposite_array), axis=1)[interior])
    records = []
    cap_exceeded = False
    while not cap_exceeded:
        for e in sorted(h for h, (sigma, _) in hinges.items() if sigma < threshold):
            at_cap = len(records) >= cap
            tables = (list(triangles), dict(edge_faces)) if at_cap else (triangles, edge_faces)
            try:
                x, y = flip_edit_by_gather(*tables, e, p, floor)
            except (FlipForbidden, DegenerateTriangle):
                continue
            if at_cap:
                cap_exceeded = True
            else:
                records.append(FlipRecord(e, *hinges.pop(e), edge_key(x, y)))
                a, b = e
                touched = [edge_key(x, y), *(edge_key(u, w) for u in (a, b) for w in (x, y))]
                rows = [(*h, *opposite_by_sums(triangles, edge_faces, h))
                        for h in touched if len(edge_faces[h]) == 2]
                measure([r[:2] for r in rows], np.array(rows, dtype=np.intp))
            break
        else:
            break
    if records:
        disc = PolyhedralDisc(build_from_triangles(triangles), disc.positions, disc.eps_deg)
    return FlipPassResult(disc=disc, flips=tuple(records), cap_exceeded=cap_exceeded)


def min_norm_point_by_enumeration(
    points: np.ndarray, eps_saddle: float = 1e-7
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for ``saddle._min_norm_point``: by Caratheodory the
    min-norm point of the hull is supported on at most four points, so
    solve the equality-constrained least-norm system on every support
    set of one to four points and keep the best feasible candidate.
    The search is exact, so ``eps_saddle`` plays no part."""
    points = np.asarray(points, dtype=float)
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
        feasible = (residuals <= 1e-8) & np.all(lams >= -1e-12, axis=1)
        if not np.any(feasible):
            continue
        norms_sq = np.einsum("ni,nij,nj->n", lams, g, lams)
        norms_sq = np.where(feasible, norms_sq, np.inf)
        i = int(np.argmin(norms_sq))
        if norms_sq[i] < best_sq:
            best_sq = norms_sq[i]
            best_lam = np.zeros(k)
            best_lam[subsets[i]] = lams[i]
        if best_sq < 1e-30:
            break
    best_lam = np.clip(best_lam, 0.0, None)
    best_lam /= best_lam.sum()
    return best_lam @ points, best_lam


def affine_weights_by_lstsq(points: np.ndarray) -> np.ndarray:
    """Oracle for ``saddle._affine_weights``: weights, summing to one, of
    the min-norm point of the affine hull of ``points``, as x = p_0 +
    sum_i a_i (p_i - p_0) with ``a`` the least squares solution (the
    least-norm one when repeated points make it rank-deficient)."""
    points = np.asarray(points, dtype=float)
    base = points[0]
    a = np.linalg.lstsq((points[1:] - base).T, -base, rcond=None)[0]
    return np.concatenate(([1.0 - a.sum()], a))


def min_norm_point_by_lstsq(
    points: np.ndarray, eps_saddle: float = 1e-7
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for ``saddle._min_norm_point``: Wolfe's algorithm on numpy
    arrays, with each minor cycle's affine step solved by ``lstsq``."""
    points = np.asarray(points, dtype=float)
    k = len(points)
    sq_norms = np.einsum("ij,ij->i", points, points)
    tol = 1e-12 * float(sq_norms.max())
    active = [int(np.argmin(sq_norms))]
    weights = np.ones(1)
    x = points[active[0]]
    for _ in range(10 * k):
        dots = points @ x
        j = int(np.argmin(dots))
        xx = float(x @ x)
        if xx <= 1e-30 or xx - dots[j] <= tol and (
            xx <= eps_saddle**2 or dots[j] > eps_saddle * np.sqrt(xx)
        ):
            break
        active.append(j)
        weights = np.append(weights, 0.0)
        for _ in range(len(active)):
            affine = affine_weights_by_lstsq(points[active])
            if affine.min() > 0.0:
                weights = affine
                break
            blocking = np.flatnonzero(affine <= 0.0)
            w, a = weights[blocking], affine[blocking]
            steps = np.divide(w, w - a, out=np.zeros(len(blocking)), where=w > a)
            i = int(np.argmin(steps))
            weights = np.maximum(weights + steps[i] * (affine - weights), 0.0)
            weights = np.delete(weights, blocking[i])
            del active[blocking[i]]
        else:
            raise AssertionError("a minor cycle dropped no point")
        x = weights @ points[active]
    else:
        raise AssertionError(f"no convergence in {10 * k} major cycles")
    lam = np.zeros(k)
    np.add.at(lam, active, weights)
    lam /= lam.sum()
    return lam @ points, lam


# The star solver and per-vertex certificate in their first Python-float
# form: each star gathered on its own, the minor cycle re-reading the
# active points by index, the closed forms through tuple helpers.  The
# library must reproduce every float of them bit for bit.


def _sub_ref(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _dot_ref(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _cross_ref(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _combination_ref(weights, points):
    x0 = x1 = x2 = 0.0
    for w, (p0, p1, p2) in zip(weights, points):
        x0 += w * p0
        x1 += w * p1
        x2 += w * p2
    return (x0, x1, x2)


def _content_ref(points):
    if len(points) == 1:
        return 0.0
    d1 = _sub_ref(points[1], points[0])
    if len(points) == 2:
        return _dot_ref(d1, d1)
    n = _cross_ref(d1, _sub_ref(points[2], points[0]))
    return _dot_ref(n, n)


def affine_weights_reference(simplex) -> list:
    """Bitwise oracle for ``saddle._affine_weights``."""
    flat = 1e-14
    m = len(simplex)
    if m == 1:
        return [1.0]
    a = simplex[0]
    d = [_sub_ref(p, a) for p in simplex[1:]]
    if m == 2:
        dd = _dot_ref(d[0], d[0])
        if dd > 0.0:
            t = -_dot_ref(a, d[0]) / dd
            return [1.0 - t, t]
    elif m == 3:
        n = _cross_ref(d[0], d[1])
        nn = _dot_ref(n, n)
        if nn > flat**2 * _dot_ref(d[0], d[0]) * _dot_ref(d[1], d[1]):
            wb = _dot_ref(n, _cross_ref(d[1], a)) / nn
            wc = _dot_ref(n, _cross_ref(a, d[0])) / nn
            return [1.0 - wb - wc, wb, wc]
    else:
        c23 = _cross_ref(d[1], d[2])
        det = _dot_ref(d[0], c23)
        if det * det > flat**2 * _dot_ref(d[0], d[0]) * _dot_ref(d[1], d[1]) * _dot_ref(d[2], d[2]):
            b1 = -_dot_ref(a, c23) / det
            b2 = -_dot_ref(a, _cross_ref(d[2], d[0])) / det
            b3 = -_dot_ref(a, _cross_ref(d[0], d[1])) / det
            return [1.0 - b1 - b2 - b3, b1, b2, b3]
    facets = [simplex[:i] + simplex[i + 1 :] for i in range(m)]
    i = max(range(m), key=lambda i: _content_ref(facets[i]))
    weights = affine_weights_reference(facets[i])
    weights.insert(i, 0.0)
    return weights


def min_norm_point_reference(points, eps_saddle: float = 1e-7):
    """Bitwise oracle for ``saddle._min_norm_point`` (``points`` a list
    of 3-tuples of floats)."""
    k = len(points)
    sq_norms = [p0 * p0 + p1 * p1 + p2 * p2 for p0, p1, p2 in points]
    tol = 1e-12 * max(sq_norms)
    active = [sq_norms.index(min(sq_norms))]
    weights = [1.0]
    x = points[active[0]]
    for _ in range(10 * k):
        if len(active) == 4:
            break
        x0, x1, x2 = x
        dots = [x0 * p0 + x1 * p1 + x2 * p2 for p0, p1, p2 in points]
        low = min(dots)
        xx = x0 * x0 + x1 * x1 + x2 * x2
        decided = xx <= eps_saddle * eps_saddle or low > eps_saddle * math.sqrt(xx)
        if xx <= 1e-30 or (xx - low <= tol and decided):
            break
        active.append(dots.index(low))
        weights.append(0.0)
        for _ in range(len(active)):
            affine = affine_weights_reference([points[i] for i in active])
            if min(affine) > 0.0:
                weights = affine
                break
            step, drop = min(
                (w / (w - a) if w > a else 0.0, i)
                for i, (w, a) in enumerate(zip(weights, affine))
                if a <= 0.0
            )
            weights = [max(w + step * (a - w), 0.0) for w, a in zip(weights, affine)]
            del weights[drop], active[drop]
        else:
            raise AssertionError("a minor cycle dropped no point")
        x = _combination_ref(weights, [points[i] for i in active])
    else:
        raise AssertionError(f"no convergence in {10 * k} major cycles")
    total = math.fsum(weights)
    weights = [w / total for w in weights]
    lam = [0.0] * k
    for i, w in zip(active, weights):
        lam[i] += w
    return _combination_ref(weights, [points[i] for i in active]), np.array(lam)


def cutting_direction_reference(directions, eps_saddle: float = 1e-7):
    """Bitwise oracle for ``cutting_direction``: the verdict as a tuple
    (status, margin, normal, coefficients, residual)."""
    unit = []
    for x, y, z in np.asarray(directions, dtype=float).tolist():
        length = math.hypot(x, y, z)
        if length == 0.0:
            raise InvalidInput("zero-length edge direction")
        unit.append((x / length, y / length, z / length))
    point, lam = min_norm_point_reference(unit, eps_saddle)
    t = math.hypot(*point)
    margin = 0.0
    if t > 0.0:
        n0, n1, n2 = point[0] / t, point[1] / t, point[2] / t
        margin = min(n0 * u0 + n1 * u1 + n2 * u2 for u0, u1, u2 in unit)
        if margin > eps_saddle:
            return ("non_saddle", margin, np.array([n0, n1, n2]), None, None)
    residual = math.hypot(*_combination_ref(lam.tolist(), unit))
    return ("saddle", margin, None, lam, residual)


def certificate_reference(disc: PolyhedralDisc, eps_saddle: float = 1e-7) -> list:
    """Bitwise oracle for ``certify_saddle``: per interior vertex, its
    star's directions gathered on their own, p[star] - p[v], and tested;
    each verdict as (vertex, star, status, margin, normal, coefficients,
    residual)."""
    p = disc.positions
    verdicts = []
    for v in disc.complex.interior_vertices():
        star = disc.complex.vertex_star(v)
        verdicts.append((v, star, *cutting_direction_reference(p[list(star)] - p[v], eps_saddle)))
    return verdicts


def verdict_bits(verdict) -> tuple:
    """A verdict tuple with every float as its bytes, so that -0.0 and
    0.0 differ and equality is bitwise."""
    return tuple(
        None if x is None
        else np.asarray(x, dtype=float).tobytes() if isinstance(x, (float, np.ndarray))
        else x
        for x in verdict
    )


def random_rotation(rng) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# ---------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------


def regular_polygon(m: int, radius: float = 1.0, z: float = 0.0) -> np.ndarray:
    th = 2.0 * np.pi * np.arange(m) / m
    return np.column_stack(
        [radius * np.cos(th), radius * np.sin(th), np.full(m, z)]
    )


def fan_disc(m: int = 12, apex=(0.0, 0.0, 0.5), radius: float = 1.0) -> PolyhedralDisc:
    """Fan over a regular m-gon rim with one interior apex (id m)."""
    positions = np.vstack([regular_polygon(m, radius), np.asarray(apex, float)])
    cx = build_from_triangles([(i, (i + 1) % m, m) for i in range(m)])
    return PolyhedralDisc(cx, positions)


def hinge_disc(a, b, x, y) -> PolyhedralDisc:
    """Two triangles abx, aby sharing the interior edge (0, 1)."""
    positions = np.array([a, b, x, y], dtype=float)
    cx = build_from_triangles([(0, 1, 2), (1, 0, 3)])
    return PolyhedralDisc(cx, positions)


def hexagon_with_violation(lift: float = 0.5) -> PolyhedralDisc:
    """Hexagon whose chords (0,2),(2,4),(4,0) form an empty triangle
    around a lifted center vertex 6."""
    tris = [(0, 1, 2), (2, 3, 4), (4, 5, 0), (0, 2, 6), (2, 4, 6), (4, 0, 6)]
    positions = np.vstack([regular_polygon(6), [[0.0, 0.0, lift]]])
    return PolyhedralDisc(build_from_triangles(tris), positions)


def tetra_cap(z: float = 0.7) -> PolyhedralDisc:
    """Triangle rim subdivided by one interior vertex at height z; the
    rim itself is the whole-boundary empty triangle (0, 1, 2)."""
    positions = np.array(
        [[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, 1 / 3, z]], dtype=float
    )
    cx = build_from_triangles([(0, 1, 3), (1, 2, 3), (2, 0, 3)])
    return PolyhedralDisc(cx, positions)


def double_interior_disc(lift: float = 0.3) -> PolyhedralDisc:
    """Hexagon fan whose triangle (0, 1, 6) is subdivided by vertex 7.

    Has two interior vertices (6, 7) and one lobe-style empty triangle
    (0, 1, 6) whose cycle contains the boundary edge (0, 1).
    """
    tris = [
        (0, 1, 7),
        (1, 6, 7),
        (6, 0, 7),
        (1, 2, 6),
        (2, 3, 6),
        (3, 4, 6),
        (4, 5, 6),
        (5, 0, 6),
    ]
    positions = np.zeros((8, 3))
    positions[:6] = regular_polygon(6)
    positions[6] = [0.0, 0.0, lift]
    positions[7] = (positions[0] + positions[1] + positions[6]) / 3.0
    positions[7, 2] += 0.2
    return PolyhedralDisc(build_from_triangles(tris), positions)


def perturbed_grid_disc(
    n: int = 4, seed: int = 0, noise: float = 0.35, subdivisions: int = 0
) -> PolyhedralDisc:
    """(n+1) x (n+1) grid on [-1, 1]^2 with (n-1)^2 interior vertices.

    Interior vertices are shifted by up to ``noise`` cells in x and y
    and lifted by up to one cell, seeded, so many hinges close below pi;
    the boundary stays on the plane z = 0.  Each of ``subdivisions``
    seeded stellar subdivisions puts a new vertex, lifted half a cell
    to a cell above the centroid, into a triangle drawn from the
    current list (earlier subdivisions included), so the old triangle
    becomes an empty triangle, nested in an earlier one or running
    along the rim.
    """
    rng = np.random.default_rng(seed)
    cell = 2.0 / n
    xs = np.linspace(-1.0, 1.0, n + 1)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    positions = np.stack([x, y, np.zeros_like(x)], axis=-1)
    inner = positions[1:-1, 1:-1]
    inner[..., :2] += rng.uniform(-noise, noise, inner[..., :2].shape) * cell
    inner[..., 2] = rng.uniform(-1.0, 1.0, inner[..., 2].shape) * cell
    triangles = []
    for i in range(n):
        for j in range(n):
            v00 = i * (n + 1) + j
            v10 = v00 + n + 1
            triangles += [(v00, v10, v10 + 1), (v00, v10 + 1, v00 + 1)]
    positions = positions.reshape(-1, 3)
    for _ in range(subdivisions):
        k = int(rng.integers(len(triangles)))
        a, b, c = triangles[k]
        centre = positions[[a, b, c]].mean(axis=0)
        centre[2] += rng.uniform(0.5, 1.0) * cell
        m = len(positions)
        positions = np.vstack([positions, centre])
        triangles[k] = (a, b, m)
        triangles += [(b, c, m), (c, a, m)]
    return PolyhedralDisc(build_from_triangles(triangles), positions)


def reduce_fan_by_components(disc: PolyhedralDisc, triple):
    """Oracle for ``reduce_fan``: label every face component left after
    cutting the cycle's interior edges, and take the one component whose
    boundary edges all lie on the cycle.  Returns the reduced triangle
    list (before validation), the kept positions and the vertex map;
    raises CycleBoundsBoundary when no unique component qualifies."""
    t = tuple(sorted(triple))
    cx = disc.complex
    edge_faces = edge_faces_of(cx)
    cycle_edges = [edge_key(t[0], t[1]), edge_key(t[0], t[2]), edge_key(t[1], t[2])]
    cycle_boundary = {e for e in cycle_edges if len(edge_faces[e]) == 1}
    if len(cycle_boundary) == 3:
        new_tris = [cx.boundary_cycle]
        keep = list(t)
    else:
        cut = set(cycle_edges) - cycle_boundary
        adjacency = {i: [] for i in range(len(cx.triangles))}
        for e, faces in edge_faces.items():
            if len(faces) == 2 and e not in cut:
                adjacency[faces[0]].append(faces[1])
                adjacency[faces[1]].append(faces[0])
        component = [-1] * len(cx.triangles)
        n_comp = 0
        for seed in range(len(cx.triangles)):
            if component[seed] != -1:
                continue
            stack = [seed]
            component[seed] = n_comp
            while stack:
                for g in adjacency[stack.pop()]:
                    if component[g] == -1:
                        component[g] = n_comp
                        stack.append(g)
            n_comp += 1
        carried = [set() for _ in range(n_comp)]
        for e, faces in edge_faces.items():
            if len(faces) == 1:
                carried[component[faces[0]]].add(e)
        inner = [c for c in range(n_comp) if carried[c] <= cycle_boundary]
        if len(inner) != 1 or n_comp == 1:
            raise CycleBoundsBoundary(f"{len(inner)} of {n_comp} components qualify")
        new_tris = [tri for i, tri in enumerate(cx.triangles) if component[i] != inner[0]]
        new_tris.append(t)
        keep = sorted({v for tri in new_tris for v in tri})
    vertex_map = {old: new for new, old in enumerate(keep)}
    renumbered = [tuple(vertex_map[v] for v in tri) for tri in new_tris]
    return renumbered, disc.positions[keep], vertex_map
