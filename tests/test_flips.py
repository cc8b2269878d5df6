import math

import numpy as np
import pytest

from conftest import (
    angle_between,
    cross_area,
    double_interior_disc,
    fan_disc,
    flat_convex_quad_by_corners,
    hexagon_with_violation,
    hinge_disc,
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
    assert (0, 1) not in flipped.complex.edge_faces
    assert (2, 3) in flipped.complex.edge_faces
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
    disc = hinge_disc(**FLAT)
    assert flat_convex_check(disc, (0, 1))
    assert not flat_convex_check(hinge_disc(**LIFTED), (0, 1))


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


def test_flip_reports_a_changed_boundary_cycle(monkeypatch, tmp_path, capsys):
    build = flips.build_from_triangles
    monkeypatch.setattr(flips, "build_from_triangles", lambda tris: build([t[::-1] for t in tris]))
    disc = hinge_disc(**ASYM)
    with pytest.raises(InvariantViolation, match="boundary cycle"):
        flip(disc, (0, 1))
    path = tmp_path / "hinge.obj"
    save_obj(disc, path)
    assert main(["flip-pass", "--in", str(path)]) == 4
    assert "boundary cycle" in capsys.readouterr().err


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


def test_reduce_subdivided_ear_with_two_boundary_edges():
    tris = [(0, 1, 4), (1, 2, 4), (0, 4, 2), (0, 2, 3)]
    positions = np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.6, 0.3, 0.4]], dtype=float
    )
    disc = PolyhedralDisc(build_from_triangles(tris), positions)
    assert disc.complex.no_triangle_violations() == [(0, 1, 2)]
    out, rec = reduce_fan(disc, (0, 1, 2))
    assert len(out.complex.triangles) == 2
    assert rec.removed_vertices == 1
    assert rec.area_decrease > 0
    assert abs(out.total_area() - 1.0) <= 1e-12


def test_reduce_mid_strip():
    tris = [(0, 1, 2), (2, 3, 4), (0, 2, 5), (2, 4, 5), (4, 0, 5)]
    positions = np.zeros((6, 3))
    positions[:5] = regular_polygon(5)
    positions[5] = [0.0, 0.0, 0.5]
    disc = PolyhedralDisc(build_from_triangles(tris), positions)
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
            assert np.array_equal(out.positions, positions)
            assert rec.vertex_map == vertex_map
            cases += 1
            a, b, c = triple
            lobes += any(len(disc.complex.edge_faces[e]) == 1 for e in ((a, b), (a, c), (b, c)))
    assert cases == 3 + 12 * 8
    assert lobes > 10


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
