import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    angle_between,
    assert_assembled_as_rebuilt,
    assert_edge_table,
    assert_same_complex,
    assert_rings,
    checked_discs_match_validation,
    cross_area,
    double_interior_disc,
    edge_faces_of,
    fan_disc,
    flat_convex_quad_by_corners,
    hexagon_with_violation,
    hinge_disc,
    hinge_rows_by_corners,
    perturbed_grid_disc,
    random_rotation,
    reduce_fan_by_components,
    regular_polygon,
    tetra_cap,
)
from discmin import (
    PolyhedralDisc,
    QuadSpec,
    area_of_alpha,
    build_from_triangles,
    bulk_hinges,
    can_flip,
    flat_convex_check,
    flat_convex_quad,
    flip,
    flip_pass,
    hinge_from_points,
    measure_hinge,
    reduce_fan,
    save_obj,
)
from discmin import flips
from discmin.cli import main
from discmin.errors import (
    BoundaryEdge,
    CycleBoundsBoundary,
    DegenerateTriangle,
    FlipForbidden,
    InvalidInput,
    InvariantViolation,
    NotAViolation,
)

FLAT = dict(a=(0, 0, 0), b=(1, 1, 0), x=(1, 0, 0), y=(0, 1, 0))
LIFTED = dict(a=(0, 0, 0), b=(1, 1, 1), x=(1, 0, 0), y=(0, 1, 0))
ASYM = dict(a=(0, 0, 0), b=(1, 1, 0), x=(0.6, 0.4, 0.3), y=(0, 1, 0))
WIDE = dict(a=(0, 0, 0), b=(1, 0, 0), x=(0.5, 1, 0), y=(0.5, 0.3, 0))
REFLEX = dict(a=(0, 0, 0), b=(1, 0, 0), x=(-0.1, 0.2, 0), y=(-0.1, -0.2, 0))


def oracle_sigma(a, b, x, y):
    a, b, x, y = (np.asarray(p, float) for p in (a, b, x, y))
    return (
        angle_between(a - b, x - b)
        + angle_between(a - b, y - b)
        + angle_between(b - a, x - a)
        + angle_between(b - a, y - a)
    )


def oracle_gain(a, b, x, y):
    return (
        cross_area(a, b, x)
        + cross_area(a, b, y)
        - cross_area(a, x, y)
        - cross_area(b, x, y)
    )


def test_flat_square_hinge():
    m = hinge_from_points(**FLAT)
    assert abs(m.sigma - math.pi) <= 1e-12
    assert abs(m.gain) <= 1e-15
    assert all(abs(t - math.pi / 4) <= 1e-12 for t in m.angles)


def test_lifted_square_keeps_sigma_at_pi():
    # both hinge corners stay right angles for any vertical lift of b,
    # so sigma is pi while the fold makes the flip strictly profitable
    m = hinge_from_points(**LIFTED)
    assert abs(m.sigma - math.pi) <= 1e-12
    assert m.gain > 0
    assert abs(m.gain - 0.04818815858865655) <= 1e-12


def test_asymmetric_lift_sigma_below_pi():
    m = hinge_from_points(**ASYM)
    assert m.sigma < math.pi
    assert abs(m.sigma - oracle_sigma(**ASYM)) <= 1e-12
    assert abs(m.sigma - 2.4479474935041634) <= 1e-12
    assert m.gain > 0
    assert abs(m.gain - 0.06370039474123457) <= 1e-12


def test_planar_wide_and_reflex_sigma_above_pi():
    m = hinge_from_points(**WIDE)
    assert abs(m.sigma - 3.295136436129349) <= 1e-12
    assert m.sigma > math.pi
    m = hinge_from_points(**REFLEX)
    assert abs(m.sigma - 4.428594871176362) <= 1e-12
    assert m.sigma > math.pi


def test_sigma_gain_against_oracles():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b, x, y = rng.normal(size=(4, 3))
        if min(cross_area(a, b, x), cross_area(a, b, y)) < 1e-3:
            continue
        m = hinge_from_points(a, b, x, y)
        assert abs(m.sigma - oracle_sigma(a, b, x, y)) <= 1e-10
        assert abs(m.gain - oracle_gain(a, b, x, y)) <= 1e-10
        # hinge angles and the two apex angles close both triangles
        apex = angle_between(a - x, b - x) + angle_between(a - y, b - y)
        assert abs(m.sigma + apex - 2 * math.pi) <= 1e-10


def test_gain_equals_difference_of_quad_families():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 200:
        a, b, x, y = rng.normal(size=(4, 3))
        areas = (
            cross_area(a, b, x),
            cross_area(a, b, y),
            cross_area(a, x, y),
            cross_area(b, x, y),
        )
        if min(areas) < 1e-2:
            continue
        p, q = np.linalg.norm(a - x), np.linalg.norm(b - x)
        r, s = np.linalg.norm(a - y), np.linalg.norm(b - y)
        before = area_of_alpha(
            QuadSpec(p, q, r, s),
            angle_between(a - x, b - x) + angle_between(a - y, b - y),
        )
        after = area_of_alpha(
            QuadSpec(p, r, q, s),
            angle_between(x - a, y - a) + angle_between(x - b, y - b),
        )
        assert abs(before - (areas[0] + areas[1])) <= 1e-9
        assert abs(after - (areas[2] + areas[3])) <= 1e-9
        m = hinge_from_points(a, b, x, y)
        assert abs(m.gain - (before - after)) <= 1e-8
        checked += 1


def test_bulk_matches_scalar():
    named = [FLAT, LIFTED, ASYM, WIDE, REFLEX]
    stack = {
        k: np.array([h[k] for h in named], dtype=float) for k in ("a", "b", "x", "y")
    }
    sigma, gain = bulk_hinges(**stack)
    for i, h in enumerate(named):
        m = hinge_from_points(**h)
        assert abs(sigma[i] - m.sigma) <= 1e-14
        assert abs(gain[i] - m.gain) <= 1e-14


def disc_hinge_points(disc):
    """The points a, b, x, y of every interior hinge of ``disc``, stacked
    as ``flip_pass`` gathers them into one (4, n, 3) array."""
    cx = disc.complex
    edge_faces = edge_faces_of(cx)
    rows = [(*e, *(sum(cx.triangles[f]) - sum(e) for f in edge_faces[e]))
            for e in cx.interior_edges()]
    return disc.positions[np.array(rows, dtype=np.intp).T]


def test_hinge_kernel_matches_the_four_corner_oracle_bit_for_bit():
    rng = np.random.default_rng(15)
    batches = [
        (f"n={n}, scale={scale:g}", scale * rng.normal(size=(4, n, 3)))
        for n in (1, 2, 3, 5, 8, 17, 200, 1000)
        for scale in 10.0 ** np.arange(-100, 71, 10)
    ]
    discs = [("fan", fan_disc()), ("tilted fan", fan_disc(7, apex=(0.2, -0.1, 0.6)))]
    discs += [(f"grid {s}", perturbed_grid_disc(4 + s % 3, seed=s, subdivisions=s % 4))
              for s in range(6)]
    discs += [(f"hinge {i}", hinge_disc(**h)) for i, h in enumerate((FLAT, LIFTED, ASYM, WIDE, REFLEX))]
    batches += [(name, disc_hinge_points(disc)) for name, disc in discs]
    for name, q in batches:
        angles, sigma, gain = flips._hinge_rows(q)
        expected_angles, expected_sigma, expected_gain = hinge_rows_by_corners(*q)
        got = [*angles, sigma, gain, *bulk_hinges(*q)]
        expected = [*expected_angles, expected_sigma, expected_gain, expected_sigma, expected_gain]
        assert [r.tobytes() for r in got] == [r.tobytes() for r in expected], name
        if not name.startswith("n="):
            for i in range(q.shape[1]):
                m = hinge_from_points(*q[:, i])
                assert m.angles == tuple(float(t[i]) for t in expected_angles), name
                assert (m.sigma, m.gain) == (expected_sigma[i], expected_gain[i]), name


def test_measure_hinge_on_disc():
    disc = hinge_disc(**FLAT)
    m = measure_hinge(disc, (0, 1))
    assert abs(m.sigma - math.pi) <= 1e-12
    assert m.edge == (0, 1)
    assert set(m.opposite) == {2, 3}
    with pytest.raises(BoundaryEdge):
        measure_hinge(disc, (0, 2))
    with pytest.raises(ValueError):
        measure_hinge(disc, (2, 3))


def test_degenerate_hinge_rejected():
    with pytest.raises(DegenerateTriangle):
        hinge_from_points((0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(DegenerateTriangle):
        hinge_from_points((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0))


def test_can_flip_verdicts():
    disc = hinge_disc(**ASYM)
    assert can_flip(disc, (0, 1))
    assert can_flip(disc, (0, 1)).reason is None
    check = can_flip(disc, (0, 2))
    assert not check and check.reason == "BoundaryEdge"
    check = can_flip(tetra_cap(), (0, 3))
    assert not check and check.reason == "OppositeVerticesAdjacent"
    with pytest.raises(ValueError):
        can_flip(disc, (2, 3))


def test_flip_gain_and_involution():
    disc = hinge_disc(**ASYM)
    m = measure_hinge(disc, (0, 1))
    flipped = flip(disc, (0, 1))
    assert abs((disc.total_area() - flipped.total_area()) - m.gain) <= 1e-12
    assert (0, 1) not in edge_faces_of(flipped.complex)
    assert (2, 3) in edge_faces_of(flipped.complex)
    assert flipped.complex.boundary_cycle == disc.complex.boundary_cycle
    back = flip(flipped, (2, 3))
    assert {frozenset(t) for t in back.complex.triangles} == {
        frozenset(t) for t in disc.complex.triangles
    }


def test_flip_preserves_complex_invariants():
    disc = double_interior_disc()
    flipped = flip(disc, (1, 6))
    for d in (disc, flipped):
        cx = d.complex
        assert cx.vertex_count - len(cx.edges) + len(cx.triangles) == 1
    assert flipped.complex.vertex_count == disc.complex.vertex_count
    assert len(flipped.complex.triangles) == len(disc.complex.triangles)
    assert flipped.complex.boundary_cycle == disc.complex.boundary_cycle
    assert np.array_equal(flipped.positions, disc.positions)


def test_flip_errors():
    disc = hinge_disc(**ASYM)
    with pytest.raises(BoundaryEdge):
        flip(disc, (0, 2))
    with pytest.raises(FlipForbidden):
        flip(tetra_cap(), (0, 3))
    # flipping would create the collinear triangle (a, x, y)
    collinear = hinge_disc(
        a=(0, 0, 0), b=(0, 1, 0), x=(-1, 0, 0), y=(1, 0, 0)
    )
    with pytest.raises(DegenerateTriangle):
        flip(collinear, (0, 1))


def test_flat_convex_quad():
    assert flat_convex_quad(**FLAT)
    assert not flat_convex_quad(**ASYM)
    assert not flat_convex_quad(**REFLEX)
    warped = dict(FLAT, b=(1, 1, 1e-9))
    assert flat_convex_quad(**warped)
    assert not flat_convex_quad(**dict(FLAT, b=(1, 1, 1e-3)))
    assert not flat_convex_quad(*[(1, 2, 3)] * 4)
    disc = hinge_disc(**FLAT)
    assert flat_convex_check(disc, (0, 1))
    assert not flat_convex_check(hinge_disc(**LIFTED), (0, 1))


@pytest.mark.parametrize("exponent", [-200, -100, -80, -1, 0, 1, 40, 70])
def test_flat_convex_quad_keeps_its_verdicts_at_every_scale(exponent):
    # below 1e-80 the squared Newell normal of the unscaled quad underflows to 0
    scale = 10.0 ** exponent
    for quad, verdict in ((FLAT, True), (REFLEX, False), (LIFTED, False)):
        assert flat_convex_quad(**quad) is verdict
        scaled = {k: np.multiply(v, scale) for k, v in quad.items()}
        assert flat_convex_quad(**scaled) is verdict, quad


def test_the_hinge_kernel_stays_finite_at_the_coordinate_bound():
    # past the bound the points are InvalidInput (see test_errors)
    bound = dict(a=(0, 0, 0), b=(1e75, 0, 0), x=(0, 1e75, 0), y=(0, -1e75, 1))
    assert math.isfinite(hinge_from_points(**bound).gain)
    sigma, gain = bulk_hinges(*(np.array([v], dtype=float) for v in bound.values()))
    assert np.isfinite(sigma).all() and np.isfinite(gain).all()


def seeded_quads(rng, count):
    """Quads (a, x, b, y in polygon order) of six kinds: on a circle
    (convex and planar), 1e-9 and 4e-6 off their plane, with random
    radii in shuffled order (often not convex), with two corners made
    to coincide, and with one corner near the line of its neighbours;
    every second quad moved by a random rotation and translation."""
    for k in range(count):
        kind = k % 6
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 4))
        radii = rng.uniform(0.1, 1.5, 4) if kind == 3 else np.ones(4)
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles), np.zeros(4)])
        if kind in (1, 2):
            pts += rng.normal(scale=1e-9 if kind == 1 else 4e-6, size=(4, 3))
        elif kind == 3:
            pts = pts[rng.permutation(4)]
        elif kind == 4:
            i, j = rng.choice(4, size=2, replace=False)
            pts[i] = pts[j]
        elif kind == 5:
            pts[1] = 0.5 * (pts[0] + pts[2]) + rng.normal(scale=1e-6, size=3) * [1, 1, 0]
        if k % 2:
            pts = pts @ random_rotation(rng).T + rng.uniform(-2.0, 2.0, 3)
        yield pts


def test_flat_convex_quad_matches_corner_oracle():
    rng = np.random.default_rng(17)
    verdicts = []
    for a, x, b, y in seeded_quads(rng, 10020):
        verdict = flat_convex_quad(a, b, x, y)
        assert verdict == flat_convex_quad_by_corners(a, b, x, y), (a, b, x, y)
        verdicts.append(verdict)
    assert 2000 <= sum(verdicts) <= 8000


def test_reduce_reports_a_changed_boundary_cycle(monkeypatch, tmp_path, capsys):
    """A flood that took the outside of the cycle for its inside would cut
    away the hexagon's rim vertices 1, 3 and 5: the cut is refused as a
    defect, and the CLI command that makes it exits 4."""
    enclosed = flips._enclosed

    def outside(cx, t, sides):
        side, inside = enclosed(cx, t, sides)
        return 1 - side, set(range(len(cx.triangles))) - inside

    monkeypatch.setattr(flips, "_enclosed", outside)
    disc = hexagon_with_violation()
    with pytest.raises(InvariantViolation, match="boundary cycle"):
        reduce_fan(disc, (0, 2, 4))
    path = tmp_path / "hexagon.obj"
    save_obj(disc, path)
    assert main(["optimize", "--in", str(path)]) == 4
    assert "boundary cycle" in capsys.readouterr().err


@pytest.mark.parametrize("corruption, message", [
    ("a lost b", "lacks a or b"),
    ("x and y lost a", "lacks a or b"),
    ("x gained b", "not its degree"),
])
def test_a_corrupted_splice_is_a_defect(monkeypatch, tmp_path, capsys, corruption, message):
    """Flips whose rings are corrupted around the splice fail as a
    defect: a splice that cannot find a or b in a ring it edits, and a
    spliced ring longer than its vertex's degree in the edited table.
    That holds for every flip a grid disc admits, and the CLI command
    that flips the hinge exits 4 with the message."""
    edit = flips._flip_edit

    def corrupted(triangles, table, edge, points, floor, areas=None, rings=None):
        (a, b), ((_, x), (_, y)) = edge, table[edge]
        if rings is not None and corruption == "a lost b":
            rings[a].remove(b)
        if rings is not None and corruption == "x and y lost a":
            rings[x].remove(a)
            rings[y].remove(a)
        out = edit(triangles, table, edge, points, floor, areas, rings)
        if rings is not None and corruption == "x gained b":
            rings[x].append(b)
        return out

    monkeypatch.setattr(flips, "_flip_edit", corrupted)
    grid = perturbed_grid_disc(5, seed=1, subdivisions=2)
    raised = 0
    for e in grid.complex.interior_edges():
        try:
            flip(grid, e)
        except (FlipForbidden, DegenerateTriangle):
            continue
        except InvariantViolation as err:
            assert message in str(err)
            raised += 1
        else:
            pytest.fail(f"the flip of {e} assembled a corrupted splice")
    assert raised > 10
    disc = hinge_disc(**ASYM)
    with pytest.raises(InvariantViolation, match=message):
        flip(disc, (0, 1))
    path = tmp_path / "hinge.obj"
    save_obj(disc, path)
    assert main(["flip-pass", "--in", str(path)]) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1.0, 1e-5])
def test_reduce_reports_an_area_increase_at_any_scale(monkeypatch, scale):
    """The area check is relative to the area before the reduction: a
    derived disc whose areas are 1.2**2 times the reduced ones is a
    defect on a unit hexagon and on one scaled by 1e-5 alike."""
    derived = PolyhedralDisc._derived
    monkeypatch.setattr(PolyhedralDisc, "_derived",
                        lambda d, cx, p, areas: derived(d, cx, p, 1.44 * areas))
    disc = hexagon_with_violation()
    disc = disc.with_positions(scale * disc.positions)
    with pytest.raises(InvariantViolation, match="increased area"):
        reduce_fan(disc, (0, 2, 4))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 6), seed=st.integers(0, 2**16), subdivisions=st.integers(0, 4))
def test_flips_of_a_subdivided_grid_assemble_what_a_rebuild_builds(n, seed, subdivisions):
    """The complexes of a flip pass, uncapped and capped at one flip,
    and of the flip of each of the first interior edges the disc lets
    flip, against ``build_from_triangles`` of their triangles, field for field."""
    disc = perturbed_grid_disc(n, seed=seed, subdivisions=subdivisions)
    discs = [flip_pass(disc).disc, flip_pass(disc, cap=1).disc]
    for e in disc.complex.interior_edges()[:12]:
        try:
            discs.append(flip(disc, e))
        except (FlipForbidden, DegenerateTriangle):
            continue
    for d in discs:
        assert_same_complex(d.complex, build_from_triangles(list(d.complex.triangles)))


def test_reduce_hexagon_fan():
    disc = hexagon_with_violation(lift=0.5)
    out, rec = reduce_fan(disc, (0, 2, 4))
    assert rec.triple == (0, 2, 4)
    assert rec.removed_triangles == 3
    assert rec.removed_vertices == 1
    assert rec.vertex_map == {i: i for i in range(6)}
    assert len(out.complex.triangles) == 4
    assert out.complex.vertex_count == 6
    assert rec.area_decrease > 0
    assert abs(rec.area_before - rec.area_after - rec.area_decrease) <= 1e-15
    assert abs(out.total_area() - 3 * math.sqrt(3) / 2) <= 1e-12
    assert out.complex.no_triangle_violations() == []


def test_reduce_flat_interior_keeps_area():
    disc = hexagon_with_violation(lift=0.0)
    out, rec = reduce_fan(disc, (0, 2, 4))
    assert abs(rec.area_decrease) <= 1e-12
    assert abs(out.total_area() - disc.total_area()) <= 1e-12


def test_reduce_whole_boundary():
    disc = tetra_cap(z=0.7)
    out, rec = reduce_fan(disc, (0, 1, 2))
    assert len(out.complex.triangles) == 1
    assert rec.removed_triangles == 3
    assert rec.removed_vertices == 1
    assert rec.vertex_map == {0: 0, 1: 1, 2: 2}
    assert rec.area_decrease > 0
    # a planar cap reduces area-neutrally
    _, flat_rec = reduce_fan(tetra_cap(z=0.0), (0, 1, 2))
    assert abs(flat_rec.area_decrease) <= 1e-12


def test_reduce_lobe_with_one_boundary_edge():
    disc = double_interior_disc()
    assert disc.complex.no_triangle_violations() == [(0, 1, 6)]
    out, rec = reduce_fan(disc, (0, 1, 6))
    assert rec.removed_triangles == 3
    assert rec.removed_vertices == 1
    assert rec.area_decrease > 0
    assert out.complex.boundary_cycle == disc.complex.boundary_cycle
    assert out.complex.no_triangle_violations() == []


def subdivided_ear() -> PolyhedralDisc:
    """A unit square whose ear (0, 1, 2), two of its edges on the rim, is
    subdivided by the lifted vertex 4."""
    tris = [(0, 1, 4), (1, 2, 4), (0, 4, 2), (0, 2, 3)]
    positions = np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.6, 0.3, 0.4]], dtype=float
    )
    return PolyhedralDisc(build_from_triangles(tris), positions)


def mid_strip() -> PolyhedralDisc:
    """A pentagon whose empty triangle (0, 2, 4) touches the rim at three
    vertices and one edge, around the lifted vertex 5."""
    tris = [(0, 1, 2), (2, 3, 4), (0, 2, 5), (2, 4, 5), (4, 0, 5)]
    positions = np.zeros((6, 3))
    positions[:5] = regular_polygon(5)
    positions[5] = [0.0, 0.0, 0.5]
    return PolyhedralDisc(build_from_triangles(tris), positions)


def test_reduce_subdivided_ear_with_two_boundary_edges():
    disc = subdivided_ear()
    assert disc.complex.no_triangle_violations() == [(0, 1, 2)]
    out, rec = reduce_fan(disc, (0, 1, 2))
    assert len(out.complex.triangles) == 2
    assert rec.removed_vertices == 1
    assert rec.area_decrease > 0
    assert abs(out.total_area() - 1.0) <= 1e-12


def test_reduce_mid_strip():
    disc = mid_strip()
    out, rec = reduce_fan(disc, (0, 2, 4))
    assert len(out.complex.triangles) == 3
    assert rec.area_decrease > 0
    assert out.complex.boundary_cycle == (0, 1, 2, 3, 4)


def test_reduce_never_grows_the_complex():
    for disc, triple in (
        (hexagon_with_violation(), (0, 2, 4)),
        (tetra_cap(), (0, 1, 2)),
        (double_interior_disc(), (0, 1, 6)),
    ):
        out, _ = reduce_fan(disc, triple)
        assert len(out.complex.triangles) < len(disc.complex.triangles)
        assert out.complex.vertex_count <= disc.complex.vertex_count
        assert len(out.complex.edges) <= len(disc.complex.edges)


def test_reduce_matches_component_labelling_oracle():
    discs = [hexagon_with_violation(), tetra_cap(), double_interior_disc()]
    discs += [perturbed_grid_disc(n, seed, subdivisions=8) for n in (3, 4, 5) for seed in range(4)]
    cases = lobes = 0
    for disc in discs:
        for triple in disc.complex.no_triangle_violations():
            try:
                expected = reduce_fan_by_components(disc, triple)
            except CycleBoundsBoundary:
                with pytest.raises(CycleBoundsBoundary):
                    reduce_fan(disc, triple)
                continue
            tris, positions, vertex_map = expected
            out, rec = reduce_fan(disc, triple)
            assert out.complex == build_from_triangles(tris)
            assert_edge_table(out.complex)
            assert_rings(out.complex)
            assert np.array_equal(out.positions, positions)
            assert rec.vertex_map == vertex_map
            cases += 1
            a, b, c = triple
            edge_faces = edge_faces_of(disc.complex)
            lobes += any(len(edge_faces[e]) == 1 for e in ((a, b), (a, c), (b, c)))
    assert cases == 3 + 12 * 8
    assert lobes > 10


def test_a_reduced_disc_is_the_disc_its_validation_builds():
    """``reduce_fan`` derives its disc: the kept faces keep their areas
    and the floor carries over, so it equals, bit for bit, the disc that
    validating the reduced complex and positions in full builds."""
    discs = [hexagon_with_violation(), tetra_cap(), double_interior_disc()]
    discs += [perturbed_grid_disc(n, seed, subdivisions=8) for n in (3, 4, 5) for seed in range(4)]
    reduced = []
    with checked_discs_match_validation() as checked:
        for disc in discs:
            for triple in disc.complex.no_triangle_violations():
                try:
                    reduced.append(reduce_fan(disc, triple)[0])
                except CycleBoundsBoundary:
                    continue
    assert checked == reduced and len(reduced) == 3 + 12 * 8


REDUCTION_DISCS = {
    "hexagon": hexagon_with_violation(), "whole-boundary": tetra_cap(),
    "lobe": double_interior_disc(), "ear": subdivided_ear(), "mid-strip": mid_strip(),
    **{f"grid{n}-{seed}": perturbed_grid_disc(n, seed, subdivisions=8)
       for n in (3, 4, 5) for seed in range(4)},
}


@pytest.mark.parametrize("disc", REDUCTION_DISCS.values(), ids=list(REDUCTION_DISCS))
def test_reductions_assemble_what_a_rebuild_builds(disc):
    """Every reduction of the disc assembles, from the old complex's
    arrays, the complex that ``build_from_triangles`` builds from its
    triangles, field for field, and reads no edge table."""
    triples = disc.complex.no_triangle_violations()
    assert triples
    with mock.patch.object(flips, "_edge_table", wraps=flips._edge_table) as edge_table:
        for triple in triples:
            out, rec = reduce_fan(disc, triple)
            assert_assembled_as_rebuilt(out)
            assert len(out.complex.triangles) == len(disc.complex.triangles) + 1 - rec.removed_triangles
    assert edge_table.call_count == 0


def test_a_degenerate_flat_triangle_is_refused_as_validation_refuses_it():
    """Only the flat triangle is checked against the floor: a sliver rim
    cut as the whole boundary raises the DegenerateTriangle, message and
    all, that validating the reduced disc in full raises."""
    positions = np.array([[0, 0, 0], [1, 0, 0], [2, 1e-13, 0], [1, 1, 1]], dtype=float)
    disc = PolyhedralDisc(build_from_triangles([(0, 1, 3), (1, 2, 3), (2, 0, 3)]), positions)
    with pytest.raises(DegenerateTriangle) as full:
        PolyhedralDisc(build_from_triangles([disc.complex.boundary_cycle]), positions[:3])
    with pytest.raises(DegenerateTriangle) as derived:
        reduce_fan(disc, (0, 1, 2))
    assert str(derived.value) == str(full.value)


def test_reduce_rejects_non_violations():
    disc = hexagon_with_violation()
    with pytest.raises(NotAViolation):
        reduce_fan(disc, (0, 2, 6))  # spans a face
    with pytest.raises(NotAViolation):
        reduce_fan(disc, (0, 1, 3))  # edge (1, 3) absent
    with pytest.raises(NotAViolation):
        reduce_fan(disc, (0, 2, 99))
    with pytest.raises(ValueError):
        reduce_fan(disc, (0, 0, 2))
    for bad in ((0, 2, 4.9), (0, True, 4), (0, 2, "4")):
        with pytest.raises(InvalidInput, match="non-integer vertex index"):
            reduce_fan(disc, bad)
    assert reduce_fan(disc, np.array([4, 0, 2]))[1].triple == (0, 2, 4)


def test_band_of_near_cyclic_hinges():
    # near-cyclic quadrilaterals: slightly off-circle radii steer sigma
    # to either side of pi, and lifting only x keeps the other three
    # corners exactly coplanar, so the fold never degenerates into a
    # flat quad whose gain would vanish below float resolution
    rng = np.random.default_rng(2026)
    want = 10_000
    collected = 0
    seen_below = 0
    while collected < want:
        n = want
        theta = np.sort(rng.uniform(0.0, 2 * np.pi, size=(n, 4)), axis=1)
        gaps = np.diff(
            np.concatenate([theta, theta[:, :1] + 2 * np.pi], axis=1), axis=1
        )
        ok = gaps.min(axis=1) > 1e-2
        theta = theta[ok]
        n = len(theta)
        radius = np.exp(rng.uniform(-0.5, 0.5, size=(n, 1))) * (
            1.0 + rng.uniform(-3e-4, 3e-4, size=(n, 4))
        )
        flat = np.stack(
            [radius * np.cos(theta), radius * np.sin(theta), np.zeros_like(theta)],
            axis=2,
        )
        signs = rng.choice([-1.0, 1.0], size=n)
        flat[:, 1, 2] = signs * rng.uniform(1e-4, 3e-2, size=n) * radius[:, 0]
        rot = np.stack([random_rotation(rng) for _ in range(n)])
        pts = np.einsum("nij,nkj->nki", rot, flat) + rng.normal(
            scale=2.0, size=(n, 1, 3)
        )
        a, x, b, y = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
        sigma, gain = bulk_hinges(a, b, x, y)
        band = np.abs(sigma - np.pi) <= 1e-3
        below = band & (sigma < np.pi - 1e-12)
        assert np.all(gain[below] > 0)
        seen_below += int(below.sum())
        collected += int(band.sum())
    assert seen_below > 1000
