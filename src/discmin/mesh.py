"""Triangulated disc complexes and their embeddings.

Combinatorics and geometry live in separate types.  ``DiscComplex``
stores a validated triangulation of a topological disc and answers
purely combinatorial queries (stars, boundary cycle, empty triangles).
``PolyhedralDisc`` pairs a complex with vertex positions in R^3 and
enforces a uniform nondegeneracy floor on triangle areas.

``build_from_triangles`` is the only supported way to obtain a
``DiscComplex``.  It runs the structural checks in a fixed order so the
raised error names the first property that fails:

1. well-formed input              -> ValueError
2. every edge in at most 2 faces  -> NonManifoldEdge
3. edge-connectivity, no gaps in
   the vertex id range            -> DisconnectedComplex
4. V - E + F == 1                 -> WrongEuler
5. boundary edges form one cycle  -> MultipleBoundaryComponents
6. consistent orientation         -> NonManifoldEdge

Step 6 happens inside the step-3 walk: one breadth-first walk from
triangle 0 keeps that triangle's input orientation and turns every
other face to run its shared edge against the face that reached it,
so inconsistent input is repaired.  The walk also records each
boundary edge in its face's direction, and step 5 is one directed walk
around them.  An orientation conflict is reported last; it cannot
occur once steps 1-5 pass.

Together these checks are complete: an edge-connected complex with
manifold edges, Euler characteristic 1 and a single boundary cycle is a
disc (resolving any pinched vertex would raise the characteristic
above 1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateTriangle,
    DisconnectedComplex,
    MultipleBoundaryComponents,
    NonManifoldEdge,
    WrongEuler,
)

# Triangles whose area falls below eps_deg * diameter^2 are refused.
DEGENERACY_EPS = 1e-12

# Areas square the cross products of coordinate differences, which
# overflows once coordinates pass about 1e76; larger ones are refused.
_MAX_COORDINATE = 1e75

Triangle = tuple[int, int, int]
Edge = tuple[int, int]


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
    """Euclidean norms along the last axis."""
    return np.linalg.norm(v, axis=-1)


def angle_rows(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Angles between stacked vectors ``u`` and ``w`` (last axis)."""
    # Numerically stable for tiny and near-pi angles alike.
    return np.arctan2(row_norms(np.cross(u, w)), np.einsum("...i,...i->...", u, w))


def area_rows(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Areas of the stacked triangles with corners ``p0``, ``p1``, ``p2``."""
    return 0.5 * row_norms(np.cross(p1 - p0, p2 - p0))


def triangle_areas(positions: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Areas of the triangles ``triangles`` (integer array of shape (F, 3))
    under the vertex embedding ``positions`` (shape (V, 3))."""
    return area_rows(*(positions[triangles[:, k]] for k in range(3)))


def _directed_edges(tri: Triangle):
    a, b, c = tri
    return (a, b), (b, c), (c, a)


# =====================================================================
# Combinatorics
# =====================================================================


@dataclass(frozen=True)
class DiscComplex:
    """A validated triangulation of a disc.

    Do not construct directly; use :func:`build_from_triangles`.
    Triangles are stored in input order, rotated so the smallest vertex
    comes first, and are consistently oriented.  The boundary cycle is
    directed the way the oriented triangles induce it and starts at the
    smallest boundary vertex.
    """

    vertex_count: int
    triangles: tuple[Triangle, ...]
    edges: tuple[Edge, ...]
    boundary_cycle: tuple[int, ...]
    edge_faces: dict[Edge, tuple[int, ...]] = field(compare=False, repr=False)
    vertex_faces: dict[int, tuple[int, ...]] = field(compare=False, repr=False)
    boundary_vertices: frozenset[int] = field(compare=False, repr=False)

    # -- basic queries -------------------------------------------------

    def is_boundary_vertex(self, v: int) -> bool:
        return v in self.boundary_vertices

    def is_interior_edge(self, u: int, v: int) -> bool:
        e = edge_key(u, v)
        if e not in self.edge_faces:
            raise ValueError(f"{e} is not an edge of the complex")
        return len(self.edge_faces[e]) == 2

    def interior_vertices(self) -> tuple[int, ...]:
        return tuple(
            v for v in range(self.vertex_count) if v not in self.boundary_vertices
        )

    def interior_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if len(self.edge_faces[e]) == 2)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Vertices sharing an edge with ``v``, ascending."""
        out: set[int] = set()
        for i in self.vertex_faces[v]:
            out.update(self.triangles[i])
        out.discard(v)
        return tuple(sorted(out))

    # -- stars -----------------------------------------------------------

    def vertex_star(self, v: int) -> tuple[int, ...]:
        """Neighbors of ``v`` in the cyclic order the orientation induces.

        For an interior vertex the tuple is a cycle (closing edge
        implied) starting at the smallest neighbor; for a boundary
        vertex it is the open path from one boundary edge to the other.
        """
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} out of range")
        succ: dict[int, int] = {}
        for i in self.vertex_faces[v]:
            t = self.triangles[i]
            k = t.index(v)
            succ[t[(k + 1) % 3]] = t[(k + 2) % 3]
        if v in self.boundary_vertices:
            heads = set(succ) - set(succ.values())
            (cur,) = heads
        else:
            cur = min(succ)
        order = [cur]
        while cur in succ and len(order) <= len(succ):
            cur = succ[cur]
            if cur == order[0]:
                break
            order.append(cur)
        return tuple(order)

    # -- empty triangles ---------------------------------------------------

    def no_triangle_violations(self) -> list[Triangle]:
        """Triples of pairwise adjacent vertices spanning no face.

        Returned sorted, each triple ascending.
        """
        adjacency: dict[int, set[int]] = {v: set() for v in range(self.vertex_count)}
        for u, w in self.edges:
            adjacency[u].add(w)
            adjacency[w].add(u)
        faces = {frozenset(t) for t in self.triangles}
        found = []
        for u, v in self.edges:
            for w in adjacency[u] & adjacency[v]:
                if w > v and frozenset((u, v, w)) not in faces:
                    found.append((u, v, w))
        return sorted(found)


def build_from_triangles(triples: Iterable[Sequence[int]]) -> DiscComplex:
    """Validate a triangle list and assemble the disc complex.

    Parameters
    ----------
    triples:
        Iterable of vertex index triples.  Vertex ids must cover a
        gap-free range starting at 0.  Orientation may be inconsistent;
        it is repaired by a BFS that keeps the first triangle's input
        orientation.

    Raises
    ------
    ValueError, NonManifoldEdge, DisconnectedComplex, WrongEuler,
    MultipleBoundaryComponents
        See the module docstring for the order of the checks.
    """
    tris: list[Triangle] = []
    for t in triples:
        t = tuple(t)
        if len(t) != 3:
            raise ValueError(f"triangle {t!r} does not have three vertices")
        try:
            t = tuple(int(v) for v in t)
        except (TypeError, ValueError):
            raise ValueError(f"non-integer vertex index in {t!r}") from None
        if min(t) < 0:
            raise ValueError(f"negative vertex index in {t!r}")
        if len(set(t)) != 3:
            raise ValueError(f"repeated vertex in triangle {t!r}")
        tris.append(t)
    if not tris:
        raise ValueError("empty triangle list")

    edge_faces: dict[Edge, list[int]] = {}
    for i, t in enumerate(tris):
        for a, b in _directed_edges(t):
            edge_faces.setdefault(edge_key(a, b), []).append(i)
    for e, faces in edge_faces.items():
        if len(faces) > 2:
            raise NonManifoldEdge(f"edge {e} lies in {len(faces)} triangles")

    # Steps 3 and 6 in one walk (see the module docstring); it also
    # collects the boundary edges, directed as their oriented face runs them.
    oriented: list[Triangle | None] = [None] * len(tris)
    oriented[0] = tris[0]
    queue = deque([0])
    boundary: list[Edge] = []
    conflict: Edge | None = None
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
                    # neighbour must traverse the shared edge backwards
                    if (a, b) in _directed_edges(s):
                        s = (s[0], s[2], s[1])
                    oriented[j] = s
                    queue.append(j)
                elif (a, b) in _directed_edges(oriented[j]):
                    conflict = conflict or edge_key(a, b)
    missing = oriented.count(None)
    if missing:
        raise DisconnectedComplex(f"{missing} triangles unreachable through shared edges")

    used = set()
    for t in tris:
        used.update(t)
    vertex_count = max(used) + 1
    if len(used) != vertex_count:
        unused = sorted(set(range(vertex_count)) - used)
        raise DisconnectedComplex(f"vertex ids {unused} appear in no triangle")

    euler = vertex_count - len(edge_faces) + len(tris)
    if euler != 1:
        raise WrongEuler(f"V - E + F = {euler}, expected 1")

    if not boundary:
        raise MultipleBoundaryComponents("complex has no boundary edges")
    # A single directed cycle through every boundary edge, from the
    # smallest tail; a repeated tail shrinks ``succ`` and fails the count.
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

    vertex_faces: dict[int, list[int]] = {v: [] for v in range(vertex_count)}
    for i, t in enumerate(triangles):
        for v in t:
            vertex_faces[v].append(i)

    return DiscComplex(
        vertex_count=vertex_count,
        triangles=triangles,
        edges=tuple(sorted(edge_faces)),
        boundary_cycle=tuple(cycle),
        edge_faces={e: tuple(f) for e, f in edge_faces.items()},
        vertex_faces={v: tuple(f) for v, f in vertex_faces.items()},
        boundary_vertices=frozenset(cycle),
    )


# =====================================================================
# Geometry
# =====================================================================


@dataclass(frozen=True, eq=False)
class PolyhedralDisc:
    """A disc complex embedded in R^3.

    ``positions`` has one row per vertex.  Construction fails with
    ``DegenerateTriangle`` unless every triangle area clears
    ``eps_deg * diameter**2``, where the diameter is the bounding box
    diagonal.  Instances are immutable; movement goes through
    :meth:`with_positions` or :meth:`moved`, which re-validate.
    """

    complex: DiscComplex
    positions: np.ndarray
    eps_deg: float = DEGENERACY_EPS

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.shape != (self.complex.vertex_count, 3):
            raise ValueError(
                f"positions shape {pos.shape}, expected ({self.complex.vertex_count}, 3)"
            )
        if not np.all(np.abs(pos) <= _MAX_COORDINATE):
            raise ValueError(f"positions must be finite and at most {_MAX_COORDINATE:g} in size")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        tri_array = np.array(self.complex.triangles, dtype=np.intp)
        object.__setattr__(self, "_tri_array", tri_array)
        span = pos.max(axis=0) - pos.min(axis=0)
        diameter = float(np.linalg.norm(span))
        object.__setattr__(self, "_diameter", diameter)
        areas = triangle_areas(pos, tri_array)
        floor = self.eps_deg * diameter * diameter
        if diameter <= 0.0 or np.any(areas < floor):
            worst = int(np.argmin(areas))
            raise DegenerateTriangle(
                f"triangle {self.complex.triangles[worst]} has area "
                f"{areas[worst]:.6e}, below the floor {floor:.6e}"
            )
        object.__setattr__(self, "_areas", areas)

    # -- measurements -------------------------------------------------

    @property
    def diameter(self) -> float:
        """Bounding box diagonal; the global length scale."""
        return self._diameter

    def total_area(self) -> float:
        return float(self._areas.sum())

    def triangle_area(self, tri) -> float:
        """Area of triangle index ``tri``, or of any vertex id triple."""
        if isinstance(tri, (int, np.integer)):
            return float(self._areas[tri])
        return float(area_rows(*(self.positions[v] for v in tri)))

    def angle_at(self, tri, v: int) -> float:
        """Interior angle of triangle ``tri`` (index or triple) at vertex ``v``."""
        if isinstance(tri, (int, np.integer)):
            tri = self.complex.triangles[tri]
        if v not in tri:
            raise ValueError(f"vertex {v} not in triangle {tri}")
        p, q = (w for w in tri if w != v)
        sides = self.positions[[p, q]] - self.positions[v]
        if np.any(row_norms(sides) == 0.0):
            raise DegenerateTriangle(f"zero-length side at vertex {v} in {tri}")
        return float(angle_rows(sides[0], sides[1]))

    def edge_length(self, u: int, v: int) -> float:
        return float(np.linalg.norm(self.positions[u] - self.positions[v]))

    # -- movement -------------------------------------------------------

    def with_positions(self, positions) -> "PolyhedralDisc":
        return PolyhedralDisc(self.complex, positions, self.eps_deg)

    def moved(self, v: int, point) -> "PolyhedralDisc":
        """Copy with vertex ``v`` relocated to ``point``."""
        pos = np.array(self.positions)
        pos[v] = point
        return self.with_positions(pos)
