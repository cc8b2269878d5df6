"""Shared geometry builders and independent oracles.

The oracles recompute quantities through routes deliberately different
from the library's (textbook Heron vs the sorted Kahan form, arccos vs
atan2, shoelace vs cross products) so that agreement means something.
"""

import math

import numpy as np

from discmin import PolyhedralDisc, build_from_triangles, edge_key
from discmin.errors import CycleBoundsBoundary, DegenerateTriangle
from discmin.mesh import row_norms


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


def position_gradient_by_faces(disc: PolyhedralDisc, v: int) -> np.ndarray:
    """Oracle for ``position_area_gradient``: one incident face at a
    time, each adding (a - b) x n / 2 with n its unit normal."""
    gradient = np.zeros(3)
    p = disc.positions
    for i in disc.complex.vertex_faces[v]:
        t = disc.complex.triangles[i]
        k = t.index(v)
        a, b = p[t[(k + 1) % 3]], p[t[(k + 2) % 3]]
        n = np.cross(a - p[v], b - p[v])
        norm = float(np.linalg.norm(n))
        if norm == 0.0:
            raise DegenerateTriangle(f"triangle {t} has zero area")
        gradient += 0.5 * np.cross(a - b, n / norm)
    return gradient


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
    cycle_edges = [edge_key(t[0], t[1]), edge_key(t[0], t[2]), edge_key(t[1], t[2])]
    cycle_boundary = {e for e in cycle_edges if len(cx.edge_faces[e]) == 1}
    if len(cycle_boundary) == 3:
        new_tris = [cx.boundary_cycle]
        keep = list(t)
    else:
        cut = set(cycle_edges) - cycle_boundary
        adjacency = {i: [] for i in range(len(cx.triangles))}
        for e, faces in cx.edge_faces.items():
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
        for e, faces in cx.edge_faces.items():
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
