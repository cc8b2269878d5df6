import itertools
import math

import numpy as np
import pytest

from conftest import (
    double_interior_disc,
    fan_disc,
    heron,
    hexagon_with_violation,
    perturbed_grid_disc,
    random_rotation,
    regular_polygon,
    tetra_cap,
)
from discmin import (
    PolyhedralDisc,
    build_from_triangles,
    canonical_triangle,
    edge_key,
)
from discmin.errors import (
    DegenerateTriangle,
    DisconnectedComplex,
    MultipleBoundaryComponents,
    NonManifoldEdge,
    WrongEuler,
)

# 6-vertex projective plane: edge-manifold, connected, V - E + F = 1,
# but closed, so it cannot carry a boundary cycle.
PROJECTIVE_PLANE = [
    (0, 1, 3),
    (0, 1, 4),
    (0, 2, 3),
    (0, 2, 5),
    (0, 4, 5),
    (1, 2, 4),
    (1, 2, 5),
    (1, 3, 5),
    (2, 3, 4),
    (3, 4, 5),
]


def brute_force_violations(cx):
    faces = {frozenset(t) for t in cx.triangles}
    out = []
    for t in itertools.combinations(range(cx.vertex_count), 3):
        edges_present = all(
            edge_key(u, v) in cx.edge_faces for u, v in itertools.combinations(t, 2)
        )
        if edges_present and frozenset(t) not in faces:
            out.append(t)
    return out


def test_single_triangle_counts():
    cx = build_from_triangles([(0, 1, 2)])
    assert cx.vertex_count == 3
    assert len(cx.edges) == 3
    assert cx.triangles == ((0, 1, 2),)
    assert len(cx.boundary_cycle) == 3
    assert cx.interior_vertices() == ()
    assert cx.interior_edges() == ()


def test_fan_counts_and_star():
    disc = fan_disc(12)
    cx = disc.complex
    assert cx.vertex_count == 13
    assert len(cx.edges) == 24
    assert len(cx.triangles) == 12
    assert cx.interior_vertices() == (12,)
    assert len(cx.boundary_cycle) == 12
    star = cx.vertex_star(12)
    assert sorted(star) == list(range(12))
    faces = {frozenset(t) for t in cx.triangles}
    for i in range(12):
        assert frozenset((star[i], star[(i + 1) % 12], 12)) in faces


def test_boundary_vertex_star_is_path():
    cx = fan_disc(12).complex
    star = cx.vertex_star(0)
    assert len(star) == 3
    assert {star[0], star[-1]} == {1, 11}
    assert star[1] == 12
    assert cx.neighbors(0) == (1, 11, 12)


def test_boundary_edge_count_equals_vertex_count():
    for disc in (fan_disc(7), hexagon_with_violation(), double_interior_disc()):
        cx = disc.complex
        boundary_edges = [e for e, f in cx.edge_faces.items() if len(f) == 1]
        assert len(boundary_edges) == len(cx.boundary_vertices)
        assert len(cx.boundary_cycle) == len(cx.boundary_vertices)


def test_euler_identity_on_valid_discs():
    for disc in (fan_disc(5), tetra_cap(), double_interior_disc()):
        cx = disc.complex
        assert cx.vertex_count - len(cx.edges) + len(cx.triangles) == 1


def test_malformed_triangles_rejected():
    with pytest.raises(ValueError):
        build_from_triangles([(0, 1)])
    with pytest.raises(ValueError):
        build_from_triangles([(0, 1, 1)])
    with pytest.raises(ValueError):
        build_from_triangles([(-1, 0, 1)])
    with pytest.raises(ValueError):
        build_from_triangles([])


def test_non_manifold_edge_rejected():
    with pytest.raises(NonManifoldEdge):
        build_from_triangles([(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def test_disconnected_rejected():
    with pytest.raises(DisconnectedComplex):
        build_from_triangles([(0, 1, 2), (3, 4, 5)])
    # an unused id is a one-vertex component
    with pytest.raises(DisconnectedComplex):
        build_from_triangles([(0, 2, 3)])
    # vertex-connected but not edge-connected
    with pytest.raises(DisconnectedComplex):
        build_from_triangles([(0, 1, 2), (0, 3, 4)])


def test_wrong_euler_rejected():
    # tetrahedron boundary: a sphere, V - E + F = 2
    with pytest.raises(WrongEuler):
        build_from_triangles([(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)])
    # doubled triangle, either relative orientation
    with pytest.raises(WrongEuler):
        build_from_triangles([(0, 1, 2), (0, 1, 2)])
    with pytest.raises(WrongEuler):
        build_from_triangles([(0, 1, 2), (2, 1, 0)])


def test_moebius_band_rejected_by_euler():
    # five triangles (i, i+1, i+2): non-orientable, V - E + F = 5 - 10 + 5
    with pytest.raises(WrongEuler):
        build_from_triangles([(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)])


def test_closed_complex_rejected():
    with pytest.raises(MultipleBoundaryComponents):
        build_from_triangles(PROJECTIVE_PLANE)


def test_orientation_repair_matches_consistent_input():
    consistent = [(i, (i + 1) % 6, 6) for i in range(6)]
    scrambled = [t if i % 2 else (t[0], t[2], t[1]) for i, t in enumerate(consistent)]
    a = build_from_triangles(consistent)
    b = build_from_triangles(scrambled)
    def cycle_edges(cx):
        c = cx.boundary_cycle
        return {edge_key(c[i], c[(i + 1) % len(c)]) for i in range(len(c))}

    assert {frozenset(t) for t in a.triangles} == {frozenset(t) for t in b.triangles}
    assert cycle_edges(a) == cycle_edges(b)


def face_sets(cx):
    """Per edge, the vertex sets of its faces (independent of face order)."""
    return {
        e: {frozenset(cx.triangles[f]) for f in faces} for e, faces in cx.edge_faces.items()
    }


@pytest.mark.parametrize("seed", range(8))
def test_shuffled_and_reversed_input_builds_the_same_disc(seed):
    rng = np.random.default_rng(seed)
    for disc in (perturbed_grid_disc(5, seed), double_interior_disc(), hexagon_with_violation()):
        base = disc.complex
        order = rng.permutation(len(base.triangles))
        flipped = rng.random(len(order)) < 0.5
        tris = [
            base.triangles[i][::-1] if f else base.triangles[i] for i, f in zip(order, flipped)
        ]
        cx = build_from_triangles(tris)
        assert cx.edges == base.edges
        assert face_sets(cx) == face_sets(base)
        assert cx.boundary_vertices == base.boundary_vertices
        directed = [d for t in cx.triangles for d in zip(t, t[1:] + t[:1])]
        assert len(set(directed)) == len(directed)
        for u, v in cx.interior_edges():
            assert (u, v) in directed and (v, u) in directed
        # triangle 0 keeps its input orientation and the cycle follows it
        cycle = base.boundary_cycle
        reverse = (cycle[0],) + cycle[:0:-1]
        assert cx.boundary_cycle[0] == min(cx.boundary_cycle)
        assert cx.boundary_cycle == (reverse if flipped[0] else cycle)


def test_boundary_cycle_starts_at_min_vertex():
    for disc in (fan_disc(9), double_interior_disc()):
        cycle = disc.complex.boundary_cycle
        assert cycle[0] == min(cycle)


def test_rigid_motion_invariance():
    disc = double_interior_disc()
    tri = disc.complex.triangles[3]
    base_area = disc.total_area()
    base_angle = disc.angle_at(tri, tri[0])
    rng = np.random.default_rng(11)
    for _ in range(100):
        rot = random_rotation(rng)
        shift = rng.normal(scale=5.0, size=3)
        moved = disc.with_positions(disc.positions @ rot.T + shift)
        assert abs(moved.total_area() - base_area) <= 1e-10 * base_area
        assert abs(moved.angle_at(tri, tri[0]) - base_angle) <= 1e-10


def test_total_area_matches_heron_oracle():
    rng = np.random.default_rng(3)
    positions = np.vstack(
        [regular_polygon(10), [[0.0, 0.0, 0.0]]]
    ) + 0.05 * rng.normal(size=(11, 3))
    disc = PolyhedralDisc(
        build_from_triangles([(i, (i + 1) % 10, 10) for i in range(10)]), positions
    )
    by_heron = sum(
        heron(
            disc.edge_length(t[0], t[1]),
            disc.edge_length(t[1], t[2]),
            disc.edge_length(t[0], t[2]),
        )
        for t in disc.complex.triangles
    )
    assert abs(disc.total_area() - by_heron) <= 1e-12 * by_heron


def test_angles():
    eq = PolyhedralDisc(
        build_from_triangles([(0, 1, 2)]),
        np.array([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]], dtype=float),
    )
    for v in range(3):
        assert abs(eq.angle_at((0, 1, 2), v) - math.pi / 3) <= 1e-12

    right = PolyhedralDisc(
        build_from_triangles([(0, 1, 2)]),
        np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
    )
    assert abs(right.angle_at((0, 1, 2), 0) - math.pi / 2) <= 1e-12

    disc = double_interior_disc()
    for t in disc.complex.triangles:
        total = sum(disc.angle_at(t, v) for v in t)
        assert abs(total - math.pi) <= 1e-10


def test_triangle_area_and_edge_length():
    right = PolyhedralDisc(
        build_from_triangles([(0, 1, 2)]),
        np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
    )
    assert abs(right.triangle_area(0) - 0.5) <= 1e-15
    assert abs(right.triangle_area((0, 1, 2)) - 0.5) <= 1e-15
    assert abs(right.edge_length(1, 2) - math.sqrt(2)) <= 1e-15


def test_no_triangle_violations():
    assert build_from_triangles([(0, 1, 2)]).no_triangle_violations() == []
    assert fan_disc(12).complex.no_triangle_violations() == []
    hx = hexagon_with_violation().complex
    assert hx.no_triangle_violations() == [(0, 2, 4)]
    assert tetra_cap().complex.no_triangle_violations() == [(0, 1, 2)]
    for cx in (hx, fan_disc(8).complex, double_interior_disc().complex):
        assert cx.no_triangle_violations() == sorted(brute_force_violations(cx))


def test_degenerate_triangle_rejected():
    collinear = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    with pytest.raises(DegenerateTriangle):
        PolyhedralDisc(build_from_triangles([(0, 1, 2)]), collinear)
    barely_bent = collinear.copy()
    barely_bent[2, 1] = 1e-3
    PolyhedralDisc(build_from_triangles([(0, 1, 2)]), barely_bent)


def test_position_validation():
    cx = build_from_triangles([(0, 1, 2)])
    with pytest.raises(ValueError):
        PolyhedralDisc(cx, np.zeros((2, 3)))
    for value in (np.nan, np.inf, 1e80):
        bad = np.array([[0, 0, 0], [1, 0, 0], [0, value, 0]])
        with pytest.raises(ValueError):
            PolyhedralDisc(cx, bad)
    # the largest accepted coordinates keep lengths and areas finite
    disc = PolyhedralDisc(cx, np.array([[-1e75, -1e75, 1e75], [1e75, 0, -1e75], [0, 1e75, 0]]))
    assert np.isfinite(disc.total_area())


def test_positions_read_only():
    disc = fan_disc(5)
    with pytest.raises(ValueError):
        disc.positions[0, 0] = 99.0


def test_moved_leaves_original_untouched():
    disc = fan_disc(5)
    before = disc.positions.copy()
    moved = disc.moved(5, (0.1, 0.2, 0.3))
    assert np.array_equal(disc.positions, before)
    assert np.allclose(moved.positions[5], (0.1, 0.2, 0.3))
    assert np.array_equal(moved.positions[:5], before[:5])


def test_edge_queries():
    cx = fan_disc(6).complex
    assert cx.is_interior_edge(0, 6)
    assert not cx.is_interior_edge(0, 1)
    with pytest.raises(ValueError):
        cx.is_interior_edge(0, 3)
    assert edge_key(4, 1) == (1, 4)
    assert canonical_triangle((2, 0, 1)) == (0, 1, 2)
    assert canonical_triangle((2, 1, 0)) == (0, 2, 1)
