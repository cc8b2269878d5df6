"""Triangulated disc complexes and their embeddings.

Combinatorics and geometry live in separate types.  ``DiscComplex``
stores a validated triangulation of a topological disc and answers
purely combinatorial queries (stars, boundary cycle, empty triangles).
``PolyhedralDisc`` pairs a complex with vertex positions in R^3 and
enforces a uniform nondegeneracy floor on triangle areas, scaled by the
boundary polygon's bounding box: every move of the library pins the
boundary, so a moved interior vertex leaves the floor as it was, and
only the faces of its star need checking again.

``build_from_triangles`` validates every input triangle list into a
``DiscComplex``; the moves of ``flips`` edit theirs.  It runs the checks
in a fixed order so the raised error names the first property that fails:

1. well-formed input              -> InvalidInput
2. every edge in at most 2 faces  -> NonManifoldEdge
3. edge-connectivity, no gaps in
   the vertex id range            -> DisconnectedComplex
4. V - E + F == 1                 -> WrongEuler
5. boundary edges form one cycle  -> MultipleBoundaryComponents
6. orientation is repaired

The builder works on half-edges: half-edge 3i + k of triangle i runs
from its corner k to corner k + 1.  One stable sort of their keys
lo * 3F + hi (lo < hi the endpoints, F the triangle count) puts the
half-edges of each edge side by side, first in face order, so
consecutive equal keys are one edge, and a run of three or more is the
step-2 failure.  A pair of equal keys makes the two half-edges each
other's partner; a boundary half-edge has none.

Step 6 happens inside the step-3 walk: one breadth-first walk from
triangle 0 through the partner half-edges keeps that triangle's input
orientation and turns every other face that runs its shared edge the
way the face that reached it does, so inconsistent input is repaired.
Each boundary edge is then directed as its oriented face runs it, and
step 5 is one directed walk around them.

The sorted table stays on the complex as three read-only (E, 2)
arrays: ``edge_array``, the edges in sorted order, ``opposite_array``,
the vertex opposite each edge in each of its faces in face order, and
``edge_face_array``, those faces; the last two hold -1 where a
boundary edge has no second face.  Every edge query reads this one
table, through ``DiscComplex.opposite_vertices``.

Each star is decided once, in a read-only CSR ring table: slots
``ring_offsets[v]`` to ``ring_offsets[v + 1]`` of ``ring_vertices`` and
``ring_faces`` hold w and the face left of each edge v -> w, in cyclic
order from v's smallest neighbour, or from its boundary successor to its
predecessor, whose face is -1.  Pointer doubling places every slot at once.

No orientation check is needed: a connected, edge-manifold complex
that cannot be oriented fails step 4 or 5.  Splitting its pinched
vertices gives a non-orientable surface with k >= 1 crosscaps and b
boundary circles, and splitting only raises the characteristic, so
V - E + F <= 2 - k - b.  With b >= 1 that is at most 0 and step 4
fails; with b = 0 there is no boundary edge and step 5 fails.

Together these checks are complete: an edge-connected complex with
manifold edges, Euler characteristic 1 and a single boundary cycle is a
disc (resolving any pinched vertex would raise the characteristic
above 1).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateTriangle,
    DisconnectedComplex,
    InvalidInput,
    InvariantViolation,
    MultipleBoundaryComponents,
    NonManifoldEdge,
    WrongEuler,
    _check,
    _check_tolerance,
    _is_number,
)

# Triangles whose area falls below eps_deg * diameter^2 are refused, the
# diameter being the boundary polygon's (``PolyhedralDisc._floor``).
DEGENERACY_EPS = 1e-12

# Areas square the cross products of coordinate differences, which
# overflows once coordinates pass about 1e76; larger ones are refused.
_MAX_COORDINATE = 1e75

Triangle = tuple[int, int, int]
Edge = tuple[int, int]

# Half-edge k of a triangle runs from its corner k to corner k + 1: the
# corners where each half-edge starts and ends.
_ENDS = np.array([0, 1, 1, 2, 2, 0])
_NO_VERTEX, _ZERO = np.array([-1]), np.array([0])
# [role][turned][k] for half-edge k as its face runs it: tail, head, third corner, half-edge before
_ORIENTED = np.array([[[0, 1, 2], [1, 2, 0]], [[1, 2, 0], [0, 1, 2]],
                      [[2, 0, 1], [2, 0, 1]], [[2, 0, 1], [1, 2, 0]]])


def edge_key(u: int, v: int) -> Edge:
    """Undirected edge as a sorted vertex pair."""
    return (u, v) if u < v else (v, u)


def canonical_triangle(tri: Sequence[int]) -> Triangle:
    """Rotate a triangle so its smallest vertex comes first.

    Cyclic order, and hence orientation, is preserved.
    """
    a, b, c = tri
    if a < b and a < c:
        return (a, b, c)
    if b < a and b < c:
        return (b, c, a)
    return (c, a, b)


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, the way ``np.linalg.norm`` computes them."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def cross_rows(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cross products of stacked float 3-vectors (last axis), broadcast.

    Written out in components with the products and differences
    ``np.cross`` forms, into a C-ordered array as ``np.cross`` returns,
    so the two agree bit for bit, sums over rows included; this form
    takes a dozen numpy calls where ``np.cross`` spends most of its
    time handling axes.
    """
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    first = u1 * w2 - u2 * w1
    out = np.empty(np.shape(first) + (3,))
    out[..., 0] = first
    out[..., 1] = u2 * w0 - u0 * w2
    out[..., 2] = u0 * w1 - u1 * w0
    return out


def angle_rows(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Angles between stacked vectors ``u`` and ``w`` (last axis)."""
    # Numerically stable for tiny and near-pi angles alike.
    return np.arctan2(row_norms(cross_rows(u, w)), np.einsum("...i,...i->...", u, w))


def area_rows(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Areas of the stacked triangles with corners ``p0``, ``p1``, ``p2``."""
    return 0.5 * row_norms(cross_rows(p1 - p0, p2 - p0))


def _areas(points, triangles) -> list[float]:
    """Areas of ``triangles`` (vertex id triples) at ``points``, the
    positions as Python floats, in one loop and the operations
    ``area_rows`` performs."""
    areas = []
    for i, j, k in triangles:
        (x0, x1, x2), (a0, a1, a2), (b0, b1, b2) = points[i], points[j], points[k]
        u0, u1, u2 = a0 - x0, a1 - x1, a2 - x2
        w0, w1, w2 = b0 - x0, b1 - x1, b2 - x2
        c0, c1, c2 = u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0
        areas.append(0.5 * math.sqrt(c0 * c0 + c1 * c1 + c2 * c2))
    return areas


def _triangle_areas(positions: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """``triangle_areas`` without its checks, from one gather of the corners."""
    corners = positions[triangles]
    return area_rows(corners[:, 0], corners[:, 1], corners[:, 2])


def triangle_areas(positions, triangles) -> np.ndarray:
    """Areas of the triangles ``triangles`` (integer vertex ids of shape
    (F, 3)) under the vertex embedding ``positions`` (real, of shape
    (V, 3)), as ``area_rows`` computes them.  Raises InvalidInput unless
    both have those shapes and every id lies in 0 to V - 1."""
    pos = _real_array(positions, copy=False)
    if pos is None or pos.ndim != 2 or pos.shape[1] != 3:
        raise InvalidInput("positions must be real numbers of shape (V, 3)")
    try:
        tri = np.asarray(triangles)
    except (TypeError, ValueError):  # ragged rows
        tri = np.empty(0)
    if not (tri.dtype.kind in "iu" and tri.ndim == 2 and tri.shape[1] == 3
            and ((0 <= tri) & (tri < len(pos))).all()):
        raise InvalidInput(f"triangles must be integers 0 to {len(pos) - 1} of shape (F, 3)")
    return _triangle_areas(pos, tri)


def _triangle(ids) -> Triangle:
    """``ids`` as a triple of Python ints; InvalidInput unless they are
    three distinct Python or numpy integers (a bool is not one)."""
    try:
        t = tuple(ids)
    except TypeError:
        raise InvalidInput(f"triangle {ids!r} does not have three vertices") from None
    if len(t) != 3:
        raise InvalidInput(f"triangle {t!r} does not have three vertices")
    if not all(type(v) is int or isinstance(v, np.integer) for v in t):
        raise InvalidInput(f"non-integer vertex index in {t!r}")
    if len(set(t)) != 3:
        raise InvalidInput(f"repeated vertex in triangle {t!r}")
    return tuple(map(int, t))


def _check_index(name: str, value, count: int) -> None:
    """InvalidInput unless ``value`` is an integer 0 to ``count - 1``."""
    _check(name, value, _is_number(value, integer=True) and 0 <= value < count,
           f"an integer 0 to {count - 1}")


def _check_disc(disc) -> None:
    """InvalidInput unless ``disc`` is a PolyhedralDisc."""
    _check("disc", disc, isinstance(disc, PolyhedralDisc), "a PolyhedralDisc")


def _real_array(value, copy: bool = True) -> np.ndarray | None:
    """``value`` as a new float array (without ``copy``, ``value`` itself
    when it is one), or None unless numpy reads it as real numbers (no
    strings, objects, complex numbers or bools)."""
    try:
        array = np.array(value) if copy else np.asarray(value)
    except (TypeError, ValueError):
        return None
    return array.astype(float, copy=False) if array.dtype.kind in "iuf" else None


def _edge(ids) -> Edge:
    """``ids`` as a sorted pair of Python ints; InvalidInput unless they
    are two Python or numpy integers (a bool is not one)."""
    try:
        u, v = ids
    except (TypeError, ValueError):
        raise InvalidInput(f"edge {ids!r} does not have two vertices") from None
    if not all(type(w) is int or isinstance(w, np.integer) for w in (u, v)):
        raise InvalidInput(f"non-integer vertex index in edge {ids!r}")
    return edge_key(int(u), int(v))


def _directed_edges(tri: Triangle):
    a, b, c = tri
    return (a, b), (b, c), (c, a)


# =====================================================================
# Combinatorics
# =====================================================================


@dataclass(frozen=True)
class DiscComplex:
    """A validated triangulation of a disc.

    Do not construct directly; use :func:`build_from_triangles`, a flip or a fan reduction.
    Triangles are stored in input order, rotated so the smallest vertex
    comes first, and are consistently oriented; ``triangle_array`` holds
    them once more as a read-only (F, 3) index array.  ``edge_array``
    holds ``edges`` row for row, ``edge_face_array`` the faces of each
    edge, ascending, and ``opposite_array`` the vertex opposite the edge
    in each of those faces, each with -1 where a boundary edge has no
    second face; all three are read-only (E, 2) index arrays, and
    :meth:`opposite_vertices` looks an edge up in them.  The boundary
    cycle is directed the way the oriented triangles induce it and
    starts at the smallest boundary vertex.  ``ring_offsets``, ``ring_vertices``
    and ``ring_faces`` are the module docstring's read-only ring table.
    """

    vertex_count: int
    triangles: tuple[Triangle, ...]
    edges: tuple[Edge, ...]
    boundary_cycle: tuple[int, ...]
    boundary_vertices: frozenset[int] = field(compare=False, repr=False)
    triangle_array: np.ndarray = field(compare=False, repr=False)
    edge_array: np.ndarray = field(compare=False, repr=False)
    opposite_array: np.ndarray = field(compare=False, repr=False)
    edge_face_array: np.ndarray = field(compare=False, repr=False)
    ring_offsets: np.ndarray = field(compare=False, repr=False)
    ring_vertices: np.ndarray = field(compare=False, repr=False)
    ring_faces: np.ndarray = field(compare=False, repr=False)

    # -- basic queries -------------------------------------------------

    def is_boundary_vertex(self, v: int) -> bool:
        """Raises InvalidInput unless ``v`` is a vertex id."""
        _check_index("vertex", v, self.vertex_count)
        return v in self.boundary_vertices

    def opposite_vertices(self, edge) -> tuple[Edge, tuple[int, ...]]:
        """The sorted ``edge`` and the vertex opposite it in each of its
        faces, in face order: one for a boundary edge, two otherwise.
        Raises InvalidInput unless ``edge`` is two integer vertex ids
        joined by an edge of the complex."""
        e = _edge(edge)
        i = bisect_left(self.edges, e)
        if i == len(self.edges) or self.edges[i] != e:
            raise InvalidInput(f"{e} is not an edge of the complex")
        x, y = self.opposite_array[i].tolist()
        return e, ((x, y) if y >= 0 else (x,))

    def is_interior_edge(self, u: int, v: int) -> bool:
        return len(self.opposite_vertices((u, v))[1]) == 2

    def interior_vertices(self) -> tuple[int, ...]:
        return tuple(
            v for v in range(self.vertex_count) if v not in self.boundary_vertices
        )

    def interior_edges(self) -> tuple[Edge, ...]:
        return tuple(compress(self.edges, (self.opposite_array[:, 1] >= 0).tolist()))

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Vertices sharing an edge with ``v``, ascending."""
        return tuple(sorted(self.vertex_star(v)))

    # -- stars -----------------------------------------------------------

    def vertex_star(self, v: int) -> tuple[int, ...]:
        """Neighbors of ``v`` in the cyclic order the orientation induces.

        For an interior vertex the tuple is a cycle (closing edge
        implied) starting at the smallest neighbor; for a boundary
        vertex it is the open path from one boundary edge to the other.
        """
        _check_index("vertex", v, self.vertex_count)
        lo, hi = self.ring_offsets[v:v + 2].tolist()
        return tuple(self.ring_vertices[lo:hi].tolist())

    # -- empty triangles ---------------------------------------------------

    def no_triangle_violations(self) -> list[Triangle]:
        """Triples of pairwise adjacent vertices spanning no face.

        Returned sorted, each triple ascending.
        """
        ring, offsets = self.ring_vertices.tolist(), self.ring_offsets.tolist()
        adjacency = [set(ring[lo:hi]) for lo, hi in zip(offsets, offsets[1:])]
        found = []
        for (u, v), (x, y) in zip(self.edges, self.opposite_array.tolist()):
            for w in adjacency[u] & adjacency[v]:
                if w > v and w != x and w != y:
                    found.append((u, v, w))
        return sorted(found)


def _python_ids(tris: list) -> list[int] | None:
    """The vertex ids of ``tris`` in one list, or None unless each
    triangle has three entries and every entry is a Python int >= 0
    (a bool or a numpy integer is not one)."""
    try:
        if set(map(len, tris)) != {3}:
            return None
    except TypeError:
        return None
    ids = list(chain.from_iterable(tris))
    if set(map(type, ids)) != {int} or min(ids) < 0:
        return None
    return ids


def _checked_ids(tris: list) -> list[int]:
    """The vertex ids of ``tris`` in one list, checked triangle by
    triangle through ``_triangle``: raises InvalidInput for the first bad
    triangle or an empty list, and converts numpy integers."""
    checked = []
    for t in tris:
        t = _triangle(t)
        if min(t) < 0:
            raise InvalidInput(f"negative vertex index in {t!r}")
        checked.append(t)
    if not checked:
        raise InvalidInput("empty triangle list")
    return list(chain.from_iterable(checked))


def _crowded_edge(ids: list[int], keys: np.ndarray) -> NonManifoldEdge:
    """The error for the edge in more than two faces that the faces meet
    first; ``keys`` holds the edge key of each half-edge."""
    keys = keys.tolist()
    counts = Counter(keys)
    h = next(h for h, k in enumerate(keys) if counts[k] > 2)
    e = edge_key(ids[h], ids[h + 1 if h % 3 < 2 else h - 2])
    return NonManifoldEdge(f"edge {e} lies in {counts[keys[h]]} triangles")


def build_from_triangles(triples: Iterable[Sequence[int]]) -> DiscComplex:
    """Validate a triangle list and assemble the disc complex.

    Parameters
    ----------
    triples:
        Iterable of vertex index triples.  Vertex ids must cover a
        gap-free range starting at 0.  Orientation may be inconsistent;
        it is repaired by a walk that keeps the first triangle's input
        orientation.

    Raises
    ------
    InvalidInput, NonManifoldEdge, DisconnectedComplex, WrongEuler,
    MultipleBoundaryComponents
        See the module docstring for the order of the checks.
    """
    tris = list(triples) if isinstance(triples, Iterable) else [triples]
    ids = _python_ids(tris)
    if ids is None:
        ids = _checked_ids(tris)
    count, n3 = len(tris), len(ids)
    top = max(ids)
    # Ids with a gap fail step 3; until then dense labels keep the keys small.
    labels = ids if top < n3 else [*map({v: k for k, v in enumerate(sorted(set(ids)))}.get, ids)]
    tail = np.fromiter(labels, np.intp, n3).reshape(count, 3)
    ends = tail.take(_ENDS, axis=1).reshape(n3, 2)  # row h: where half-edge h starts and ends
    if np.count_nonzero(ends[:, 0] == ends[:, 1]):
        _checked_ids(tris)  # raises for the first triangle that repeats a vertex

    # Step 2: one stable sort of the half-edge keys lo * 3F + hi puts the
    # two half-edges of an edge side by side, first in face order.
    ends.sort(axis=1)  # in place: row h now holds lo < hi
    keys = ends[:, 0] * n3 + ends[:, 1]
    order = keys.argsort(kind="stable")
    sorted_keys = keys[order]
    repeats = (sorted_keys[1:] == sorted_keys[:-1]).nonzero()[0] + 1  # equal to the key before
    a, b = order[repeats - 1], order[repeats]
    partner = np.full(n3, -1)
    partner[a] = b
    partner[b] = a
    boundary = partner < 0
    # a run of three or more equal keys pairs some half-edge twice
    if n3 - np.count_nonzero(boundary) < 2 * len(repeats):
        raise _crowded_edge(ids, keys)
    starts = np.ones(n3, dtype=bool)
    starts[repeats] = False
    first = order[starts]  # each edge's first half-edge, edges in sorted order
    edge_array = ends[first]

    # Steps 3 and 6 in one walk through the partner half-edges (see the
    # module docstring).  A face that runs the shared edge the way its
    # neighbour does (both start at one vertex: ``same``) is turned; the
    # slot past the last face answers for the partner -1 of a boundary half-edge.
    half = np.arange(n3)
    same = (tail.ravel() == tail.ravel()[partner]).tolist()
    neighbours = (partner // 3).reshape(count, 3).tolist()
    flipped = [None] * count + [False]
    flipped[0] = False
    reached = [0]
    for i in reached:
        h = 3 * i
        for j in neighbours[i]:
            if flipped[j] is None:
                flipped[j] = flipped[i] ^ same[h]
                reached.append(j)
            h += 1
    missing = count - len(reached)
    if missing:
        raise DisconnectedComplex(f"{missing} triangles unreachable through shared edges")

    vertex_count = top + 1
    degrees = np.bincount(edge_array.ravel())
    if np.count_nonzero(degrees) != vertex_count:
        # the first ten unused ids lie below the number of used ones plus ten
        used = set(ids)
        unused = [v for v in range(min(vertex_count, len(used) + 10)) if v not in used][:10]
        raise DisconnectedComplex(
            f"{vertex_count - len(used)} vertex ids appear in no triangle, the first {unused}"
        )

    euler = vertex_count - (n3 - len(repeats)) + count
    if euler != 1:
        raise WrongEuler(f"V - E + F = {euler}, expected 1")

    # Half-edge h as its oriented face runs it: tail, head and third corner
    # ``corners[:, h]``, and ``slots[3]``, the face's half-edge ending at its tail.
    slots = _ORIENTED.take(np.fromiter(flipped, np.intp, count), axis=1) + half[::3, None]
    tails, heads, thirds = corners = tail.ravel()[slots[:3]].reshape(3, n3)
    # Each boundary edge directed as its oriented face runs it.
    succ = dict(zip(tails[boundary].tolist(), heads[boundary].tolist()))

    if not succ:
        raise MultipleBoundaryComponents("complex has no boundary edges")
    # A single directed cycle through every boundary edge, from the
    # smallest tail; a repeated tail shrinks ``succ`` and fails the count.
    boundary_count = len(succ)
    start = cur = min(succ)
    cycle = []
    while cur in succ:
        cycle.append(cur)
        cur = succ.pop(cur)
    if cur != start or len(cycle) != boundary_count:
        raise MultipleBoundaryComponents(
            f"boundary edges do not form one cycle (the walk from vertex "
            f"{start} covers {len(cycle)} of {boundary_count})"
        )

    # each face from its smallest corner, as canonical_triangle turns it
    triangle_array = corners[:, tails.reshape(count, 3).argmin(axis=1) + half[::3]].T.copy()

    halves = np.array((first, partner[first])).T  # each edge's half-edges, -1 for no second
    # the vertex opposite each half-edge, and -1 for the partner -1
    opposite = np.concatenate((thirds, _NO_VERTEX))
    opposite_array = opposite[halves]
    edge_face_array = halves // 3

    # Rings: around its tail, a half-edge is followed by the partner of ``slots[3]``.
    # A ring starts along a boundary edge or at the smallest neighbour (``last``),
    # and doubling counts each half-edge's steps back to that start.
    ring_offsets = np.concatenate((_ZERO, np.add.accumulate(degrees)))
    last = np.sort((edge_array * vertex_count + edge_array[:, ::-1]).ravel())[ring_offsets[:-1]]
    last %= vertex_count
    last[cycle] = -1
    ring_starts = boundary | (heads == last[tails])
    jumps = np.empty(n3 + 1, np.intp)  # the half-edge before each
    jumps[partner[slots[3]].ravel()] = half
    jumps, steps = np.where(ring_starts, half, jumps[:n3]), 1 - ring_starts
    for _ in range(int(degrees.max() - 2).bit_length()):  # a path of at most degree - 1 steps
        steps += steps[jumps]
        jumps = jumps[jumps]
    slot = ring_offsets[tails] + steps
    ring_vertices = np.empty(2 * len(edge_array) + 1, np.intp)  # one slot spare
    ring_vertices[slot + 1] = thirds  # kept only after a boundary ring's last face
    ring_vertices[slot] = heads
    ring_faces = np.full(len(ring_vertices), -1, np.intp)
    ring_faces[slot] = half // 3
    for array in (triangle_array, edge_array, opposite_array, edge_face_array,
                  ring_offsets, ring_vertices, ring_faces):
        array.setflags(write=False)

    return DiscComplex(
        vertex_count=vertex_count,
        triangles=tuple(map(tuple, triangle_array.tolist())),
        edges=tuple(map(tuple, edge_array.tolist())),
        boundary_cycle=tuple(cycle),
        boundary_vertices=frozenset(cycle),
        triangle_array=triangle_array,
        edge_array=edge_array,
        opposite_array=opposite_array,
        edge_face_array=edge_face_array,
        ring_offsets=ring_offsets,
        ring_vertices=ring_vertices[:-1],
        ring_faces=ring_faces[:-1],
    )


# =====================================================================
# Geometry
# =====================================================================


@dataclass(frozen=True, eq=False)
class PolyhedralDisc:
    """A disc complex embedded in R^3.

    ``positions`` has one row per vertex.  Construction fails with
    ``DegenerateTriangle`` unless every triangle area clears the floor
    ``eps_deg * diameter**2``, where the diameter is the bounding box
    diagonal of the boundary polygon, so no interior vertex moves it.
    The floor is computed here alone: a disc that flips, fan reductions
    or the vertex sweep derive from this one (:meth:`_derived`) inherits it.
    Instances are immutable; movement goes through :meth:`with_positions`
    or :meth:`moved`, which re-validate.
    """

    complex: DiscComplex
    positions: np.ndarray
    eps_deg: float = DEGENERACY_EPS

    def __post_init__(self):
        _check_tolerance("eps_deg", self.eps_deg)
        _check("complex", self.complex, isinstance(self.complex, DiscComplex), "a DiscComplex")
        pos = _real_array(self.positions)
        if pos is None or pos.shape != (self.complex.vertex_count, 3):
            raise InvalidInput(
                f"positions must be real numbers of shape ({self.complex.vertex_count}, 3)"
            )
        if not (np.abs(pos) <= _MAX_COORDINATE).all():
            raise InvalidInput(f"positions must be finite and at most {_MAX_COORDINATE:g} in size")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        rim = pos.take(self.complex.boundary_cycle, axis=0)
        span = rim.max(axis=0) - rim.min(axis=0)
        diameter = math.sqrt(span.dot(span))
        floor = self.eps_deg * diameter * diameter
        object.__setattr__(self, "_diameter", diameter)
        object.__setattr__(self, "_floor", floor)
        areas = _triangle_areas(pos, self.complex.triangle_array)
        if diameter <= 0.0 or areas.min() < floor:
            worst = int(np.argmin(areas))
            raise DegenerateTriangle(
                f"triangle {self.complex.triangles[worst]} has area "
                f"{areas[worst]:.6e}, below the floor {floor:.6e}"
            )
        object.__setattr__(self, "_areas", areas)

    def _derived(self, complex: DiscComplex, positions: np.ndarray,
                 areas: np.ndarray) -> "PolyhedralDisc":
        """The disc of geometry derived from this one and checked as
        construction checks it: float ``positions`` within the coordinate
        bound, made read-only here, and their ``triangle_areas``, with this
        disc's boundary polygon, so its ``eps_deg``, diameter and floor carry
        over.  Only the floor is tested again (InvariantViolation: a defect)."""
        if not areas.min() >= self._floor:
            raise InvariantViolation("a disc built from checked state is below the area floor")
        disc = object.__new__(type(self))
        positions.setflags(write=False)
        for name, value in (("complex", complex), ("positions", positions), ("_areas", areas),
                            ("eps_deg", self.eps_deg), ("_diameter", self._diameter),
                            ("_floor", self._floor)):
            object.__setattr__(disc, name, value)
        return disc

    # -- measurements -------------------------------------------------

    @property
    def diameter(self) -> float:
        """Bounding box diagonal of the boundary polygon; the global length
        scale, fixed while the boundary is pinned."""
        return self._diameter

    def total_area(self) -> float:
        return float(self._areas.sum())

    def _vertices(self, tri) -> Triangle:
        """The triangle index ``tri`` as its stored vertex triple, or the
        triple ``tri`` checked as three distinct vertex ids of the disc."""
        if np.ndim(tri) == 0:
            _check_index("triangle", tri, len(self._areas))
            return self.complex.triangles[tri]
        for v in (tri := _triangle(tri)):
            _check_index("vertex", v, len(self.positions))
        return tri

    def triangle_area(self, tri) -> float:
        """Area of triangle index ``tri``, or of any vertex id triple."""
        if np.ndim(tri) == 0:
            _check_index("triangle", tri, len(self._areas))
            return float(self._areas[tri])
        return float(area_rows(*(self.positions[v] for v in self._vertices(tri))))

    def angle_at(self, tri, v: int) -> float:
        """Interior angle of triangle ``tri`` (index or triple) at vertex ``v``."""
        tri = self._vertices(tri)
        _check_index("vertex", v, len(self.positions))
        if v not in tri:
            raise InvalidInput(f"vertex {v} not in triangle {tri}")
        p, q = (w for w in tri if w != v)
        sides = self.positions[[p, q]] - self.positions[v]
        if np.any(row_norms(sides) == 0.0):
            raise DegenerateTriangle(f"zero-length side at vertex {v} in {tri}")
        return float(angle_rows(sides[0], sides[1]))

    def edge_length(self, u: int, v: int) -> float:
        _check_index("vertex", u, len(self.positions))
        _check_index("vertex", v, len(self.positions))
        return float(np.linalg.norm(self.positions[u] - self.positions[v]))

    # -- movement -------------------------------------------------------

    def with_positions(self, positions) -> "PolyhedralDisc":
        return PolyhedralDisc(self.complex, positions, self.eps_deg)

    def moved(self, v: int, point) -> "PolyhedralDisc":
        """Copy with vertex ``v`` relocated to ``point``."""
        _check_index("vertex", v, len(self.positions))
        pos = self.positions.tolist()
        pos[v] = point  # checked with the rest by the constructor
        return self.with_positions(pos)
