import itertools
import math
from itertools import chain

import numpy as np
import pytest

from bench.workloads import grid_disc, wheel_disc
from conftest import (
    assert_edge_table,
    assert_rings,
    build_from_triangles_by_conflict_walk,
    double_interior_disc,
    edge_faces_of,
    fan_disc,
    heron,
    hexagon_with_violation,
    perturbed_grid_disc,
    random_rotation,
    regular_polygon,
    same_bits,
    tetra_cap,
)
from discmin import (
    PolyhedralDisc,
    build_from_triangles,
    canonical_triangle,
    edge_key,
    triangle_areas,
)
from discmin.mesh import cross_rows, row_norms
from discmin.errors import (
    DegenerateTriangle,
    DiscminError,
    DisconnectedComplex,
    InvalidInput,
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
# five triangles (i, i+1, i+2): non-orientable, V - E + F = 5 - 10 + 5
MOEBIUS_STRIP = [(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)]


def brute_force_violations(cx):
    faces = {frozenset(t) for t in cx.triangles}
    edge_faces = edge_faces_of(cx)
    out = []
    for t in itertools.combinations(range(cx.vertex_count), 3):
        edges_present = all(
            edge_key(u, v) in edge_faces for u, v in itertools.combinations(t, 2)
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
        boundary_edges = [e for e, f in edge_faces_of(cx).items() if len(f) == 1]
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
    for bad in ((0, 1, 2.7), (0, True, "2"), (0, 1, np.float64(2.0)), (0, 1, np.bool_(True))):
        with pytest.raises(InvalidInput, match="non-integer vertex index"):
            build_from_triangles([bad])
    assert build_from_triangles([(np.int64(0), np.int32(1), 2)]).triangles == ((0, 1, 2),)


@pytest.mark.parametrize(
    "triples",
    [
        [(0, 1, 2), (0, -1, 3), (0, 1, 1.5)],
        [(0, 1, 1), (-1, 2, 3)],
        [(0, True, 2)],  # numpy would read True as 1
        [(0, 1, 2), (0, 1, 2, 3)],
        [(0, 1, 2), (1, 2), (0, 1, 1)],
        [(0, 1, 2), (1, 2, 3), (3, 3, 4), (0, -2, 1)],
        [(0, 1, 2), (2, 1, 3), (3, 4, 3)],
        [(0, 1, 2), (2, 1, np.int64(-1))],
        [(0, 1, 2), "abc"],
        [(0, 1, 2), (1, 2, 3), (0, 1, np.bool_(True))],
        [],
    ],
)
def test_the_first_bad_triangle_is_reported(triples):
    """A list with several bad triangles raises what checking them one at
    a time raises for the first."""
    expected = build_outcome(build_from_triangles_by_conflict_walk, triples)
    assert expected[0] is InvalidInput
    assert build_outcome(build_from_triangles, triples) == expected


def test_numpy_and_generator_input_build_the_same_complex():
    for disc in (fan_disc(9), perturbed_grid_disc(4, seed=3, subdivisions=2), double_interior_disc()):
        tris = disc.complex.triangles
        expected = build_outcome(build_from_triangles, list(tris))
        as_array = np.array(tris, dtype=np.intp)
        for triples in (
            (t for t in tris),
            [tuple(map(np.int64, t)) for t in tris],
            [(a, np.int32(b), c) for a, b, c in tris],
            as_array,
            [list(t) for t in tris],
        ):
            outcome = build_outcome(build_from_triangles, triples)
            assert outcome == expected
            cx = outcome[0]
            opposite = chain.from_iterable(cx.opposite_vertices(e)[1] for e in cx.edges)
            ids = [*chain(*cx.triangles), *chain(*cx.edges), *opposite,
                   *chain.from_iterable(map(cx.vertex_star, range(cx.vertex_count)))]
            assert {type(v) for v in ids} == {int}


def test_non_manifold_edge_rejected():
    with pytest.raises(NonManifoldEdge):
        build_from_triangles([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    # of two crowded edges, the one the faces meet first is named, not the smaller
    with pytest.raises(NonManifoldEdge, match=r"^edge \(3, 4\) lies in 4 triangles$"):
        build_from_triangles([(4, 3, 5), (0, 1, 2), (0, 1, 6), (3, 4, 7), (0, 1, 8), (3, 4, 9), (4, 3, 10)])


def test_disconnected_rejected():
    with pytest.raises(DisconnectedComplex):
        build_from_triangles([(0, 1, 2), (3, 4, 5)])
    # an unused id is a one-vertex component
    with pytest.raises(DisconnectedComplex):
        build_from_triangles([(0, 2, 3)])
    # vertex-connected but not edge-connected
    with pytest.raises(DisconnectedComplex):
        build_from_triangles([(0, 1, 2), (0, 3, 4)])


def test_the_unused_id_message_names_at_most_ten_ids():
    """The message counts the unused ids and lists the first ten, so its
    length does not grow with the largest id; the conflict-walk oracle
    words it alike."""
    triples = [(0, 1, 10**5)]
    outcome = build_outcome(build_from_triangles, triples)
    assert outcome == (
        DisconnectedComplex,
        "99998 vertex ids appear in no triangle, the first [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]",
    )
    assert len(outcome[1]) < 1000
    assert build_outcome(build_from_triangles_by_conflict_walk, triples) == outcome
    # fewer than ten unused ids are all listed, and gaps below the largest id count too
    assert build_outcome(build_from_triangles, [(0, 2, 5), (2, 5, 6)]) == (
        DisconnectedComplex, "3 vertex ids appear in no triangle, the first [1, 3, 4]"
    )


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
    with pytest.raises(WrongEuler):
        build_from_triangles(MOEBIUS_STRIP)


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
        e: {frozenset(cx.triangles[f]) for f in faces} for e, faces in edge_faces_of(cx).items()
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


def build_outcome(build, triples):
    """The complex ``build`` makes of ``triples`` with the views the
    library reads, or the type and message of the error it raises."""
    try:
        cx = build(triples)
    except DiscminError as err:
        return type(err), str(err)
    views = (cx.boundary_vertices,)
    arrays = (cx.triangle_array, cx.edge_array, cx.opposite_array, cx.edge_face_array,
              cx.ring_offsets, cx.ring_vertices)
    return cx, views, [(a.dtype, a.shape, a.tolist(), a.flags.writeable) for a in arrays]


def random_triangle_lists(rng, count):
    """Triangles of distinct vertices: 2-12 of them over 4-8 vertex ids,
    and connected or scattered pieces of a subdivided grid, with every
    face's orientation drawn at random and the ids packed from 0."""
    grid = perturbed_grid_disc(3, 1, subdivisions=3).complex.triangles
    for _ in range(count):
        n = int(rng.integers(4, 9))
        yield [tuple(map(int, rng.choice(n, 3, replace=False))) for _ in range(rng.integers(2, 13))]
        picked = [grid[i] for i in rng.choice(len(grid), rng.integers(2, len(grid)), replace=False)]
        ids = {v: k for k, v in enumerate(sorted({v for t in picked for v in t}))}
        yield [
            tuple(ids[v] for v in (t[::-1] if rng.random() < 0.5 else t)) for t in picked
        ]


def test_builder_matches_the_conflict_walk_on_random_triangle_lists():
    rng = np.random.default_rng(20140401)
    kinds = set()
    for triples in random_triangle_lists(rng, 3000):
        expected = build_outcome(build_from_triangles_by_conflict_walk, triples)
        assert build_outcome(build_from_triangles, triples) == expected, triples
        kinds.add(expected[0] if isinstance(expected[0], type) else "disc")
    # the conflict the oracle reports last is never among them; a complex
    # with V - E + F = 1 and no single boundary cycle is closed (RP^2, below)
    assert kinds == {"disc", NonManifoldEdge, DisconnectedComplex, WrongEuler}


@pytest.mark.parametrize("seed", range(4))
def test_non_orientable_complexes_fail_before_any_orientation_check(seed):
    rng = np.random.default_rng(seed)
    for triples, error in ((MOEBIUS_STRIP, WrongEuler), (PROJECTIVE_PLANE, MultipleBoundaryComponents)):
        ids = rng.permutation(1 + max(map(max, triples)))
        triples = [tuple(int(ids[v]) for v in t) for t in triples]
        triples = [t[::-1] if rng.random() < 0.5 else t for t in rng.permutation(triples).tolist()]
        outcome = build_outcome(build_from_triangles, triples)
        assert outcome[0] is error
        assert outcome == build_outcome(build_from_triangles_by_conflict_walk, triples)


@pytest.mark.parametrize("seed", range(4))
def test_builder_matches_the_conflict_walk_on_reoriented_discs(seed):
    rng = np.random.default_rng(seed)
    discs = (
        fan_disc(int(rng.integers(3, 17))),
        perturbed_grid_disc(int(rng.integers(2, 7)), seed, subdivisions=int(rng.integers(0, 5))),
        wheel_disc(int(rng.integers(3, 25)), rng),
    )
    for disc in discs:
        tris = disc.complex.triangles
        order = rng.permutation(len(tris))
        triples = [tris[i][::-1] if rng.random() < 0.5 else tris[i] for i in order]
        outcome = build_outcome(build_from_triangles, triples)
        assert outcome == build_outcome(build_from_triangles_by_conflict_walk, triples)
        assert outcome[0].vertex_count == disc.complex.vertex_count


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
    assert right.angle_at(0, 0) == right.angle_at((0, 1, 2), 0)
    with pytest.raises(ValueError):
        right.angle_at(0, 5)

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
    # without a floor a collapsed side is accepted, but it has no angle
    pinched = PolyhedralDisc(build_from_triangles([(0, 1, 2)]), collinear[[0, 0, 2]], eps_deg=0.0)
    with pytest.raises(DegenerateTriangle):
        pinched.angle_at(0, 0)


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


def _special_rows(rng, n):
    """Seeded rows mixing ordinary values with +-0, subnormals and
    components of size up to 1e75."""
    rows = rng.normal(size=(n, 3))
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e75, -1e75, 3e74])
    mask = rng.random((n, 3)) < 0.4
    rows[mask] = rng.choice(special, mask.sum())
    scale = rng.choice([1.0, 1e-300, 1e70], (n, 1))
    return rows * scale


def test_cross_rows_matches_numpy_cross():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 7, 12, 140):
        u, w = _special_rows(rng, n), _special_rows(rng, n)
        for a, b in ((u, w), (u[0], w[0]), (u[0], w), (u, w[-1])):
            got, want = cross_rows(a, b), np.cross(a, b)
            assert got.shape == want.shape and got.dtype == want.dtype
            # bit for bit: the signs of zeros and the subnormals too
            assert got.tobytes() == want.tobytes()
            # the same C layout, so sums over rows run in the same order
            assert got.strides == want.strides
            assert got.sum(axis=0).tobytes() == want.sum(axis=0).tobytes()


def test_row_norms_matches_numpy_norm():
    rng = np.random.default_rng(37)
    for n in (1, 2, 3, 7, 12, 140):
        u = _special_rows(rng, n)
        with np.errstate(over="ignore"):
            # the last input overflows to inf in its squares or its components
            for v in (u, u[0], u.reshape(1, n, 3), 1e160 * u):
                got, want = row_norms(v), np.linalg.norm(v, axis=-1)
                assert np.shape(got) == np.shape(want) and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def test_triangle_array_is_a_read_only_copy_of_the_triangles():
    cx = perturbed_grid_disc(4, seed=2, subdivisions=3).complex
    assert cx.triangle_array.dtype == np.intp
    assert [tuple(t) for t in cx.triangle_array.tolist()] == list(cx.triangles)
    for array in (cx.triangle_array, cx.edge_array, cx.opposite_array, cx.edge_face_array):
        with pytest.raises(ValueError):
            array[0, 0] = 1


def test_edge_table_matches_the_dict_views():
    rng = np.random.default_rng(17)
    discs = [fan_disc(m) for m in range(3, 17)]
    discs += [perturbed_grid_disc(n, seed, subdivisions=seed % 5) for n in (2, 4, 6) for seed in range(3)]
    discs += [grid_disc(n, np.random.default_rng([0, n])) for n in (4, 6, 8)]
    discs += [wheel_disc(d, rng) for d in (3, 8, 24)]
    discs += [hexagon_with_violation(), tetra_cap(), double_interior_disc()]
    for disc in discs:
        assert_edge_table(disc.complex)
    assert_edge_table(build_from_triangles([(0, 1, 2)]))


def test_rings_match_the_successor_walk():
    """Every vertex's ring, its faces and the -1 in each boundary
    vertex's last slot, against the successor walk ``vertex_star`` once
    made, on fans, grids, wheels and the discs among random triangle
    lists, each also as shuffled and reoriented input."""
    rng = np.random.default_rng(21)
    discs = [fan_disc(m) for m in range(3, 17)]
    discs += [perturbed_grid_disc(n, seed, subdivisions=seed % 5) for n in (2, 4, 6) for seed in range(3)]
    discs += [grid_disc(n, np.random.default_rng([0, n])) for n in (4, 6, 8)]
    discs += [wheel_disc(d, rng) for d in (3, 8, 12, 24)]
    discs += [hexagon_with_violation(), tetra_cap(), double_interior_disc()]
    lists = [list(disc.complex.triangles) for disc in discs] + [[(0, 1, 2)]]
    for triples in random_triangle_lists(rng, 1000):
        if not isinstance(build_outcome(build_from_triangles, triples)[0], type):
            lists.append(triples)
    assert len(lists) > len(discs) + 50
    for triples in lists:
        shuffled = [triples[i][::-1] if rng.random() < 0.5 else triples[i]
                    for i in rng.permutation(len(triples))]
        assert_rings(build_from_triangles(triples))
        assert_rings(build_from_triangles(shuffled))


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


def test_the_diameter_is_the_boundary_polygons_box_diagonal():
    """The floor's length scale is measured on the boundary polygon: each
    of these discs has an interior vertex outside its boundary's box,
    which the diameter leaves out."""
    for disc in (fan_disc(apex=(0, 0, 0.5)), tetra_cap(),
                 perturbed_grid_disc(4, seed=0, subdivisions=2)):
        rim = disc.positions[list(disc.complex.boundary_cycle)]
        span = rim.max(axis=0) - rim.min(axis=0)
        assert disc.diameter == math.sqrt(span.dot(span))
        assert disc._floor == disc.eps_deg * disc.diameter * disc.diameter
        span = np.ptp(disc.positions, axis=0)
        assert disc.diameter < math.sqrt(span.dot(span))


def test_moving_an_interior_vertex_keeps_the_diameter():
    """Near and far, at scales from 1e-70 to the coordinate bound, an
    interior vertex moved by ``moved`` leaves the diameter and the floor
    bit for bit."""
    rng = np.random.default_rng(41)
    for base in (fan_disc(apex=(0, 0, 0.5)), tetra_cap(),
                 perturbed_grid_disc(4, seed=0, subdivisions=2)):
        for scale in (1e-70, 1.0, 1e73):
            disc = base.with_positions(scale * base.positions)
            for v in disc.complex.interior_vertices():
                for step in (1e-6, 1.0, 10.0):
                    point = disc.positions[v] + step * scale * rng.normal(size=3)
                    moved = disc.moved(v, tuple(point.tolist()))
                    assert moved.diameter.hex() == disc.diameter.hex()
                    assert moved._floor.hex() == disc._floor.hex()


def test_edge_queries():
    cx = fan_disc(6).complex
    assert cx.is_interior_edge(0, 6)
    assert not cx.is_interior_edge(0, 1)
    with pytest.raises(ValueError):
        cx.is_interior_edge(0, 3)
    # past the last sorted edge (5, 6), and both ends out of the complex
    for e in ((6, 7), (9, 8)):
        with pytest.raises(InvalidInput, match="is not an edge"):
            cx.opposite_vertices(e)
    assert cx.opposite_vertices(np.array([6, 0])) == ((0, 6), (1, 5))
    assert cx.opposite_vertices([1, np.int32(0)]) == ((0, 1), (6,))
    with pytest.raises(ValueError):
        fan_disc(3).complex.vertex_star(9)
    assert edge_key(4, 1) == (1, 4)
    assert canonical_triangle((2, 0, 1)) == (0, 1, 2)
    assert canonical_triangle((2, 1, 0)) == (0, 2, 1)


def test_triangle_areas_takes_any_integer_ids_and_gives_the_disc_areas():
    """The checked ``triangle_areas`` gives the areas that validation
    stores, for ids as stored, as int32 and as lists; bad ids are in
    ``test_errors``."""
    disc = perturbed_grid_disc(4, seed=0, subdivisions=2)
    ids = disc.complex.triangle_array
    for given in (ids, ids.astype(np.int32), ids.tolist()):
        assert same_bits(triangle_areas(disc.positions, given), disc._areas)
    assert triangle_areas(disc.positions.tolist(), ids).tolist() == disc._areas.tolist()
    assert triangle_areas(np.eye(3), np.zeros((0, 3), dtype=int)).shape == (0,)
