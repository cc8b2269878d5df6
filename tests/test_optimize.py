import dataclasses
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench.workloads import grid_disc
from conftest import (
    angle_between,
    assert_edge_table,
    assert_rings,
    assert_same_complex,
    checked_discs_match_validation,
    double_interior_disc,
    faces_of,
    fan_disc,
    flip_pass_by_rebuild,
    hexagon_with_violation,
    hinge_disc,
    perturbed_grid_disc,
    position_gradient_by_faces,
    random_rotation,
    regular_polygon,
    same_bits,
    shoelace,
    stalled_at_rest,
    star_area_by_arrays,
    trial_by_rebuild,
    verdict_bits,
)
from discmin import (
    OptimizerConfig,
    PolyhedralDisc,
    build_from_triangles,
    can_flip,
    certify_saddle,
    edge_length_area_derivative,
    edge_length_area_gradient,
    flip,
    flip_pass,
    make_tent,
    measure_hinge,
    minimize,
    position_area_gradient,
    random_instance,
    reduce_fan,
    vertex_descent_step,
)
from discmin import edge_key, flips, optimize
from discmin.flips import FlipPassResult, FlipRecord
from discmin.errors import (
    DegenerateTriangle,
    DegenerationBlocked,
    FlipForbidden,
    InvalidInput,
    NotCuttable,
)
from discmin.mesh import DiscComplex, canonical_triangle, row_norms
from discmin.saddle import EPS_SADDLE, _vertex_verdicts

ASYM = dict(a=(0, 0, 0), b=(1, 1, 0), x=(0.6, 0.4, 0.3), y=(0, 1, 0))
# six seeded perturbed grids and the 20 acceptance-c4 fans
GRIDS_AND_FANS = [perturbed_grid_disc(4 + s % 3, seed=s) for s in range(6)] + [
    random_instance(8 + s % 9, nonplanarity=0.3, seed=s) for s in range(20)
]
GRIDS_AND_FANS_IDS = [f"grid{s}" for s in range(6)] + [f"c4_fan{s}" for s in range(20)]


def cotangent(theta):
    return math.cos(theta) / math.sin(theta)


def fd_position_gradient(disc, v, h=1e-6):
    grad = np.zeros(3)
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        plus = disc.moved(v, disc.positions[v] + step).total_area()
        minus = disc.moved(v, disc.positions[v] - step).total_area()
        grad[k] = (plus - minus) / (2 * h)
    return grad


def test_edge_derivative_matches_cotangent_identity():
    disc = double_interior_disc()
    for e in disc.complex.interior_edges():
        m = measure_hinge(disc, e)
        ell = disc.edge_length(*e)
        a, b = e
        x, y = m.opposite
        p = disc.positions
        expected = (ell / 2) * (
            cotangent(angle_between(p[a] - p[x], p[b] - p[x]))
            + cotangent(angle_between(p[a] - p[y], p[b] - p[y]))
        )
        got = edge_length_area_derivative(disc, e)
        assert abs(got - expected) <= 1e-6 * max(1.0, abs(expected))
        # lengthening helps exactly when the hinge is closed enough
        if abs(m.sigma - math.pi) > 1e-6:
            assert (got > 0) == (m.sigma > math.pi)


def test_edge_derivative_boundary_edge_single_term():
    disc = fan_disc(6, apex=(0.1, 0.0, 0.4))
    e = (0, 1)
    p = disc.positions
    ell = disc.edge_length(0, 1)
    expected = (ell / 2) * cotangent(angle_between(p[0] - p[6], p[1] - p[6]))
    assert abs(edge_length_area_derivative(disc, e) - expected) <= 1e-6 * max(
        1.0, abs(expected)
    )


def test_edge_gradient_per_vertex():
    disc = double_interior_disc()
    entries = edge_length_area_gradient(disc, 6)
    star = disc.complex.vertex_star(6)
    assert [e for e, _ in entries] == [tuple(sorted((6, u))) for u in star]
    for e, value in entries:
        assert value == edge_length_area_derivative(disc, e)
    with pytest.raises(ValueError):
        edge_length_area_gradient(disc, 0)


def test_edge_gradient_keys_are_python_ints():
    """A numpy vertex id gives the keys a Python one gives, which JSON takes."""
    disc = double_interior_disc()
    entries = edge_length_area_gradient(disc, np.int64(6))
    assert entries == edge_length_area_gradient(disc, 6)
    assert all(type(u) is int for e, _ in entries for u in e)
    assert json.loads(json.dumps(entries)) == [[list(e), d] for e, d in entries]


def test_position_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(5, 12))
        positions = np.vstack(
            [regular_polygon(m), [[0, 0, 0]]]
        ) + 0.1 * rng.normal(size=(m + 1, 3))
        disc = PolyhedralDisc(
            build_from_triangles([(i, (i + 1) % m, m) for i in range(m)]), positions
        )
        exact = position_area_gradient(disc, m)
        approx = fd_position_gradient(disc, m)
        assert np.linalg.norm(exact - approx) <= 1e-6 * max(
            1.0, np.linalg.norm(approx)
        )


@pytest.mark.parametrize("disc", GRIDS_AND_FANS, ids=GRIDS_AND_FANS_IDS)
def test_position_gradient_matches_face_loop_oracle(disc):
    for v in range(disc.complex.vertex_count):
        expected = position_gradient_by_faces(disc, v)
        got = position_area_gradient(disc, v)
        assert np.linalg.norm(got - expected) <= 1e-14 * max(np.linalg.norm(expected), 1.0)


def star_terms(state, v):
    """The star kernel's gradient and Hessian of the star of ``v`` alone;
    only ``state.complex`` and ``state.positions`` are read."""
    stars = optimize._Stars(state.complex, (v,))
    gradient, hessian = optimize._star_terms(state.positions.tolist(), stars, 0, 1)
    return gradient[0], hessian[0]


def one_row_sweep(disc, v):
    """A sweep whose one row is the star of ``v``."""
    return optimize._Sweep(disc, optimize._Stars(disc.complex, (v,)))


@pytest.mark.parametrize("disc", GRIDS_AND_FANS, ids=GRIDS_AND_FANS_IDS)
def test_star_hessian_matches_central_differences_of_the_gradient(disc):
    p = disc.positions
    for v in disc.complex.interior_vertices():
        gradient, hessian = star_terms(disc, v)
        star = list(disc.complex.vertex_star(v))
        h = 1e-5 * float(row_norms(p[star] - p[v]).min())
        differences = np.empty((3, 3))
        for k in range(3):
            step = np.zeros(3)
            step[k] = h
            plus = position_area_gradient(disc.moved(v, p[v] + step), v)
            minus = position_area_gradient(disc.moved(v, p[v] - step), v)
            differences[:, k] = (plus - minus) / (2 * h)
        assert np.linalg.norm(differences - hessian) <= 1e-8 * np.linalg.norm(hessian)
        # convex: symmetric positive semidefinite up to roundoff
        assert np.allclose(hessian, hessian.T, rtol=0.0, atol=1e-15 * np.abs(hessian).max())
        eigenvalues = np.linalg.eigvalsh(hessian)
        assert eigenvalues[0] >= -1e-12 * eigenvalues[-1]
        # one implementation of the gradient
        assert np.array_equal(gradient, position_area_gradient(disc, v))


@pytest.mark.parametrize("degree", range(3, 25))
def test_star_area_matches_the_array_oracle_across_scales(degree):
    """The Python-float kernel returns the numpy oracle's gradient and
    Hessian bit for bit, or refuses the same stars: those scaled below
    about 1e-77, whose squared cross products underflow to zero."""
    rng = np.random.default_rng(degree)
    complex_ = fan_disc(degree).complex
    for scale in 10.0 ** np.arange(-200, 71, 30):
        for _ in range(5):
            rim = regular_polygon(degree) * rng.uniform(0.7, 1.3, (degree, 1))
            rim[:, 2] = rng.uniform(-0.5, 0.5, degree)
            positions = scale * np.vstack([rim, rng.uniform(-0.3, 0.3, (1, 3))])
            state = SimpleNamespace(complex=complex_, positions=positions)
            try:
                _, gradient, hessian = star_area_by_arrays(state, degree)
            except DegenerateTriangle:
                assert scale < 1e-77
                with pytest.raises(DegenerateTriangle):
                    star_terms(state, degree)
                continue
            got = star_terms(state, degree)
            assert np.array_equal(got[0], gradient) and np.array_equal(got[1], hessian)


@pytest.mark.parametrize("disc", GRIDS_AND_FANS, ids=GRIDS_AND_FANS_IDS)
def test_star_area_matches_the_array_oracle(disc):
    for v in disc.complex.interior_vertices():
        expected = star_area_by_arrays(disc, v)
        got = star_terms(disc, v)
        assert np.array_equal(got[0], expected[1]) and np.array_equal(got[1], expected[2])


def _same_trial(sweep, disc, r, point):
    """Score ``point`` for the vertex of row ``r`` in the working state
    and in the oracle; returns the oracle's moved disc, or None where
    the oracle raises and the trial returns None."""
    v, stars = sweep.stars.vertices[r], sweep.stars
    try:
        expected, decrease, moved = trial_by_rebuild(disc, v, point)
    except DegenerateTriangle:
        assert sweep.trial(r, point) is None
        return None
    areas = sweep.trial(r, point)
    assert areas == expected
    assert moved.diameter == sweep.source.diameter
    faces = stars.faces[stars.bounds[r]:stars.bounds[r + 1]]
    assert sum(sweep.areas[f] for f in faces) - sum(areas) == decrease
    return moved


TOP = perturbed_grid_disc(4, seed=0)


@pytest.mark.parametrize(
    ("disc", "lowered"),
    [(disc, None) for disc in GRIDS_AND_FANS] + [(TOP, int(np.argmax(TOP.positions[:, 2])))],
    ids=GRIDS_AND_FANS_IDS + ["grid0_top_lowered"],
)
def test_star_trials_match_the_rebuild_oracle(disc, lowered):
    """Trials scored from the star alone get the verdict (None where the
    whole moved disc fails validation), star areas, decrease and
    diameter that validating the whole moved disc gives;
    applying the accepted ones keeps the working state equal to the
    oracle's disc.  The vertex ``lowered``, the only one at the top of
    the box of all vertices, first moves straight down, which shrinks
    that box and leaves the diameter."""
    rng = np.random.default_rng(7)
    sweep = optimize._Sweep(disc, optimize._Stars(disc.complex, disc.complex.interior_vertices()))
    verdicts = set()
    for r, v in enumerate(sweep.stars.vertices):
        p = disc.positions
        a, b = disc.complex.vertex_star(v)[:2]
        # small to 10 diameters past the boundary's box, then onto a neighbor and a star edge
        points = [p[v] + s * disc.diameter * rng.normal(size=3)
                  for s in (1e-4, 1e-2, 0.3, 2.0, 10.0)]
        points += [p[a], 0.5 * (p[a] + p[b])]
        if v == lowered:
            points[0] = p[v] - [0.0, 0.0, 1e-4 * disc.diameter]
        outcomes = [_same_trial(sweep, disc, r, tuple(q.tolist())) for q in points]
        verdicts.update(moved is not None for moved in outcomes)
        if outcomes[0] is not None:
            point = tuple(points[0].tolist())
            sweep.apply(r, (point, sweep.trial(r, point)))
            disc = outcomes[0]
            assert sweep.areas == [disc.triangle_area(f) for f in range(len(disc.complex.triangles))]
    assert verdicts == {True, False}
    final = sweep.disc()
    assert np.array_equal(final.positions, disc.positions)
    assert final.total_area() == disc.total_area()


def test_the_floor_of_a_trial_is_the_disc_floor():
    """Lifting a vertex 3 diameters out of the box keeps the floor, here
    at half the smallest face, which lies outside the vertex's star; a
    trial that puts a star face below that floor returns None."""
    base = perturbed_grid_disc(4, seed=0)
    cx, p = base.complex, base.positions
    areas = [base.triangle_area(f) for f in range(len(cx.triangles))]
    smallest = int(np.argmin(areas))
    v = next(u for u in cx.interior_vertices() if smallest not in faces_of(cx, u))
    disc = PolyhedralDisc(cx, p, eps_deg=0.5 * areas[smallest] / base.diameter**2)
    sweep = one_row_sweep(disc, v)
    point = (float(p[v, 0]), float(p[v, 1]), float(p[v, 2]) + 3.0 * disc.diameter)
    star_areas, _, lifted = trial_by_rebuild(disc, v, point)
    assert lifted._floor == disc._floor and sweep.source is disc
    assert sweep.trial(0, point) == star_areas
    a, b = cx.vertex_star(v)[:2]
    # next to the middle of a star edge: one star face falls below the floor
    middle = 0.5 * (p[a] + p[b])
    point = tuple((middle + 1e-9 * (p[v] - middle)).tolist())
    with pytest.raises(DegenerateTriangle):
        trial_by_rebuild(disc, v, point)
    assert sweep.trial(0, point) is None


@pytest.mark.parametrize(
    "disc",
    [GRIDS_AND_FANS[6], grid_disc(4, np.random.default_rng([0, 4])),
     perturbed_grid_disc(4, seed=0, subdivisions=2)],
    ids=["c4_fan0", "workload_grid4", "perturbed_subdivided"],
)
def test_trials_that_bracket_the_floor_match_the_rebuild_oracle(disc):
    """Each interior vertex walks toward the middle of a star edge, where
    a star face has area 0, and bisection along that ray finds the last
    point whose disc the rebuild accepts and the first it refuses: the
    smallest star area there brackets the disc's floor.  The sweep's
    trial accepts the first, with the rebuild's areas, and returns None
    for the second, so its floor is the disc's to within that bracket."""
    sweep = optimize._Sweep(disc, optimize._Stars(disc.complex, disc.complex.interior_vertices()))
    p = disc.positions
    for r, v in enumerate(sweep.stars.vertices):
        a, b = disc.complex.vertex_star(v)[:2]
        direction = 0.5 * (p[a] + p[b]) - p[v]

        def accepted(t):
            try:
                return trial_by_rebuild(disc, v, tuple((p[v] + t * direction).tolist()))[0]
            except DegenerateTriangle:
                return None

        lo, hi = 0.0, 1.0
        assert accepted(lo) is not None and accepted(hi) is None
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if accepted(mid) is not None else (lo, mid)
        above, below = (tuple((p[v] + t * direction).tolist()) for t in (lo, hi))
        areas = accepted(lo)
        assert disc._floor <= min(areas) < 1.01 * disc._floor
        assert sweep.trial(r, above) == areas
        assert sweep.trial(r, below) is None


def test_a_trial_past_the_coordinate_bound_is_invalid_input():
    """Where the moved disc is InvalidInput, the trial returns None."""
    disc = fan_disc(8, apex=(0.1, 0.0, 0.5))
    sweep = one_row_sweep(disc, 8)
    for point in ((2e75, 0.0, 0.5), (0.1, 0.0, math.nan), (0.1, -math.inf, 0.5)):
        with pytest.raises(InvalidInput):
            trial_by_rebuild(disc, 8, point)
        assert sweep.trial(0, point) is None


def test_a_disc_near_the_coordinate_bound_converges_as_at_unit_scale():
    """Line-search trials past the coordinate bound are refused like
    degenerate ones, so a fan scaled to 3e74 is minimized as at scale 1.
    Scaled by 2**246, every float of the run scales exactly, and so does
    its final area; scaled by 1e74, whose products round, the apex comes
    to rest elsewhere on the flat minimum, and the area within an ulp."""
    base = fan_disc(8, apex=(0.0, 0.0, 3.0))
    runs = []
    for scale in (1.0, 2.0**246, 1e74):
        _, trace = minimize(base.with_positions(scale * base.positions))
        runs.append((len(trace.iterations), trace.converged, trace.final_area / scale**2))
    assert runs[0] == runs[1] == (7, True, 2.82842712474619)
    assert runs[2] == (7, True, 2.8284271247461903)
    assert abs(runs[2][2] - runs[0][2]) <= math.ulp(runs[0][2])


def test_position_gradient_zero_area_face():
    # vertex 4 sits on the rim edge (0, 1), so triangle (0, 1, 4) is flat
    positions = np.array([[0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0], [1, 0, 0]], dtype=float)
    cx = build_from_triangles([(i, (i + 1) % 4, 4) for i in range(4)])
    disc = PolyhedralDisc(cx, positions, eps_deg=0.0)
    for v in (0, 1, 4):
        with pytest.raises(DegenerateTriangle):
            position_area_gradient(disc, v)
        with pytest.raises(DegenerateTriangle):
            position_gradient_by_faces(disc, v)


def test_position_gradient_anchors():
    flat = fan_disc(9, apex=(0.0, 0.0, 0.0))
    assert np.linalg.norm(position_area_gradient(flat, 9)) <= 1e-12
    lifted = fan_disc(9, apex=(0.0, 0.0, 0.7))
    grad = position_area_gradient(lifted, 9)
    assert grad[2] > 0.1
    assert abs(grad[0]) <= 1e-12 and abs(grad[1]) <= 1e-12


def test_vertex_descent_step_moves_apex_down():
    disc = fan_disc(12, apex=(0.0, 0.0, 0.6))
    lengths = [disc.edge_length(12, u) for u in range(12)]
    out, decrease = vertex_descent_step(disc, 12)
    assert decrease > 0
    assert disc.total_area() - out.total_area() == pytest.approx(decrease, rel=1e-12)
    assert out.positions[12, 2] < 0.6
    for u in range(12):
        assert out.edge_length(12, u) < lengths[u]
    assert np.array_equal(out.positions[:12], disc.positions[:12])


def test_vertex_descent_moves_along_the_certified_normal():
    moved = 0
    for disc in (perturbed_grid_disc(4, seed=1), perturbed_grid_disc(5, seed=2, subdivisions=3),
                 fan_disc(9, apex=(0.1, 0.0, 0.4))):
        for verdict in certify_saddle(disc).verdicts:
            if verdict.is_saddle:
                continue
            v = verdict.vertex
            out, decrease = vertex_descent_step(disc, v)
            if decrease > 0.0:
                step = out.positions[v] - disc.positions[v]
                direction = step / np.linalg.norm(step)
                assert np.allclose(direction, verdict.cut_normal, rtol=0, atol=1e-9)
                moved += 1
    assert moved >= 3


def test_vertex_descent_step_requires_non_saddle():
    flat = fan_disc(8, apex=(0.05, 0.0, 0.0))
    with pytest.raises(NotCuttable):
        vertex_descent_step(flat, 8)
    with pytest.raises(ValueError):
        vertex_descent_step(flat, 0)


def test_vertex_descent_step_refuses_a_saddle_vertex_before_any_trial(monkeypatch):
    trials = []
    trial = optimize._Sweep.trial

    def counted(sweep, r, point):
        trials.append(sweep.stars.vertices[r])
        return trial(sweep, r, point)

    # a flat star, and a saddle star off its area minimum (nonzero gradient)
    rim = regular_polygon(8)
    rim[:, 2] = 0.3 * np.cos(2.0 * np.arctan2(rim[:, 1], rim[:, 0]))
    saddle = PolyhedralDisc(fan_disc(8).complex, np.vstack([rim, [[0.05, 0.0, 0.1]]]))
    assert np.linalg.norm(position_area_gradient(saddle, 8)) > 0.1
    monkeypatch.setattr(optimize._Sweep, "trial", counted)
    for disc in (fan_disc(8, apex=(0.05, 0.0, 0.0)), saddle):
        with pytest.raises(NotCuttable):
            vertex_descent_step(disc, 8)
    assert trials == []
    vertex_descent_step(fan_disc(12, apex=(0.0, 0.0, 0.6)), 12)
    assert trials


def _refuse_every_move(sweep, r, point):
    return None  # as a trial that degenerates the star


def test_vertex_descent_step_reports_a_blocked_cut(monkeypatch):
    monkeypatch.setattr(optimize._Sweep, "trial", _refuse_every_move)
    with pytest.raises(DegenerationBlocked):
        vertex_descent_step(fan_disc(12, apex=(0.0, 0.0, 0.6)), 12)
    # a saddle vertex is refused before its degeneration matters
    with pytest.raises(NotCuttable):
        vertex_descent_step(fan_disc(8, apex=(0.05, 0.0, 0.0)), 8)


def test_blocked_moves_are_recorded_for_both_modes(monkeypatch):
    monkeypatch.setattr(optimize._Sweep, "trial", _refuse_every_move)
    disc = perturbed_grid_disc(4, seed=0)
    out, trace = minimize(disc, OptimizerConfig(max_outer_iterations=1))
    (rec,) = trace.iterations
    # nothing moved, so the final disc is the one the sweep saw
    expected = {v.vertex: "cut" if not v.is_saddle else "gradient"
                for v in certify_saddle(out).verdicts}
    assert {m.vertex: m.mode for m in rec.moves} == expected
    assert set(expected.values()) == {"cut", "gradient"}
    for m in rec.moves:
        assert m.blocked == "degeneration"
        assert m.displacement == (0.0, 0.0, 0.0) and m.area_decrease == 0.0
    assert trace.csv_text().splitlines()[1].split(",")[4] == str(len(expected))


def test_flip_pass_flat_fan_makes_no_flips():
    result = flip_pass(fan_disc(6, apex=(0.0, 0.0, 0.0)))
    assert result.flips == ()
    assert not result.cap_exceeded
    assert result.disc.complex.triangles == fan_disc(6).complex.triangles


def test_flip_pass_closed_hinge():
    disc = hinge_disc(**ASYM)
    before = disc.total_area()
    result = flip_pass(disc)
    assert len(result.flips) == 1
    rec = result.flips[0]
    assert rec.edge == (0, 1)
    assert rec.sigma < math.pi
    assert before - result.disc.total_area() == pytest.approx(
        rec.area_decrease, rel=1e-12
    )


def test_flip_pass_leaves_no_closed_flippable_hinges():
    rng = np.random.default_rng(23)
    positions = np.vstack([regular_polygon(10), [[0, 0, 0]]])
    positions += 0.25 * rng.normal(size=positions.shape)
    disc = PolyhedralDisc(
        build_from_triangles([(i, (i + 1) % 10, 10) for i in range(10)]), positions
    )
    before = disc.total_area()
    result = flip_pass(disc)
    assert result.disc.total_area() <= before + 1e-12
    from discmin import can_flip

    for e in result.disc.complex.interior_edges():
        if can_flip(result.disc, e):
            assert measure_hinge(result.disc, e).sigma >= math.pi - 1e-9


def flip_pass_oracle(disc, eps_flip=1e-9):
    """Reference scan: measure_hinge edge by edge in sorted order,
    flipping the first eligible hinge and rescanning after each flip."""
    records = []
    while True:
        for e in disc.complex.interior_edges():
            m = measure_hinge(disc, e)
            if m.sigma >= math.pi - eps_flip or not can_flip(disc, e):
                continue
            try:
                disc = flip(disc, e)
            except DegenerateTriangle:
                continue
            records.append((e, m.sigma, m.gain))
            break
        else:
            return disc, records


@pytest.mark.parametrize("disc", GRIDS_AND_FANS, ids=GRIDS_AND_FANS_IDS)
def test_flip_pass_matches_per_edge_oracle(disc):
    expected_disc, expected = flip_pass_oracle(disc)
    result = flip_pass(disc)
    # bitwise: the bulk scan must reproduce the scalar sigma and gain
    assert [(r.edge, r.sigma, r.area_decrease) for r in result.flips] == expected
    assert result.disc.complex.triangles == expected_disc.complex.triangles
    assert not result.cap_exceeded


def test_flip_pass_cap():
    result = flip_pass(hinge_disc(**ASYM), cap=0)
    assert result.cap_exceeded
    assert result.flips == ()
    # the cap is exceeded only when it leaves a flip the pass would make:
    # the 6-fan has no eligible hinge, and on the refusal disc only
    # (4, 5) flips, after which the eligible (0, 1) is refused
    assert not flip_pass(fan_disc(6)).flips
    assert not flip_pass(fan_disc(6), cap=0).cap_exceeded
    result = assert_flip_pass_matches_rebuild(degenerate_refusal_disc(), cap=1)
    assert [r.edge for r in result.flips] == [(4, 5)]
    assert not result.cap_exceeded
    assert assert_flip_pass_matches_rebuild(degenerate_refusal_disc(), cap=0).cap_exceeded


def assert_flip_pass_matches_rebuild(disc, *args, **kwargs):
    """``flip_pass`` against ``flip_pass_by_rebuild``: the same cap flag,
    the same records (edge, diagonal, and sigma and gain bit for bit), and the
    assembled complex equal to the rebuilt one field for field."""
    result, expected = flip_pass(disc, *args, **kwargs), flip_pass_by_rebuild(disc, *args, **kwargs)
    assert_same_complex(result.disc.complex, expected.disc.complex)
    assert result.cap_exceeded == expected.cap_exceeded

    def bits(records):
        return [(r.edge, r.diagonal, r.sigma.hex(), r.area_decrease.hex()) for r in records]

    assert bits(result.flips) == bits(expected.flips)
    # the oracle's disc comes from ``flip`` after each flip
    assert_edge_table(result.disc.complex)
    assert_edge_table(expected.disc.complex)
    assert_rings(result.disc.complex)
    return result


def degenerate_refusal_disc():
    """Five triangles whose hinge (0, 1) closes (sigma near 0) over the
    collinear points 0, 2, 3: its flip would make the zero-area triangle
    (0, 2, 3) and is refused before and after the flip of (4, 5)."""
    positions = np.array([
        [0, 0, 0], [3, 0.01, 0], [1, 0, 0], [2, 0, 0],
        [0.6, 3.7, -2.0], [3.6, -0.8, 0.0], [2.8, -0.1, 0.8],
    ])
    triangles = [(0, 1, 2), (1, 0, 3), (1, 3, 4), (1, 4, 5), (4, 6, 5)]
    return PolyhedralDisc(build_from_triangles(triangles), positions)


def _log_flip_edits(monkeypatch):
    """Log each flip ``flip_pass`` attempts: "f" applied, "F" refused
    with FlipForbidden, "D" with DegenerateTriangle.  Edits from anywhere
    else, such as ``flip``, go unlogged."""
    log = []
    flip_edit = flips._flip_edit

    def logged(*args):
        if sys._getframe(1).f_code is not flip_pass.__code__:
            return flip_edit(*args)
        try:
            out = flip_edit(*args)
        except FlipForbidden:
            log.append("F")
            raise
        except DegenerateTriangle:
            log.append("D")
            raise
        log.append("f")
        return out

    monkeypatch.setattr(flips, "_flip_edit", logged)
    return log


def _check_passes_of_minimize(monkeypatch, disc, config):
    """Run ``minimize`` checking every flip pass it makes against the
    oracle; returns the number of flips."""
    flipped = []

    def checked(*args, **kwargs):
        result = assert_flip_pass_matches_rebuild(*args, **kwargs)
        flipped.append(len(result.flips))
        return result

    monkeypatch.setattr(optimize, "flip_pass", checked)
    out, _ = minimize(disc, config)
    monkeypatch.undo()
    assert_edge_table(out.complex)
    assert_rings(out.complex)
    return sum(flipped)


C4_FANS = GRIDS_AND_FANS[6:]


@pytest.mark.parametrize(
    "case",
    ["grid-n4", "grid-n6", "grid-n8", "perturbed-grids", "c4-fans", "forbidden-mid-pass",
     "degenerate-mid-pass", "cap-1", "cap-3"],
)
def test_flip_pass_matches_rebuild_oracle(case, monkeypatch):
    if case.startswith("grid-n"):
        # the grid workload at seed 0: the disc, then every pass of its run
        n = int(case[-1])
        disc = grid_disc(n, np.random.default_rng([0, n]))
        assert assert_flip_pass_matches_rebuild(disc).flips
        flipped = _check_passes_of_minimize(
            monkeypatch, disc, OptimizerConfig(max_outer_iterations=12))
        assert flipped >= 20
    elif case == "perturbed-grids":
        for s in range(6):
            disc = perturbed_grid_disc(4 + s % 3, seed=s, subdivisions=s % 4)
            assert assert_flip_pass_matches_rebuild(disc).flips
    elif case == "c4-fans":
        flipped = sum(len(assert_flip_pass_matches_rebuild(d).flips) for d in C4_FANS)
        flipped += sum(_check_passes_of_minimize(monkeypatch, d, None) for d in C4_FANS)
        assert flipped >= 100
    elif case == "forbidden-mid-pass":
        log = _log_flip_edits(monkeypatch)
        assert_flip_pass_matches_rebuild(perturbed_grid_disc(4, seed=0, subdivisions=3))
        assert "Ff" in "".join(log)
    elif case == "degenerate-mid-pass":
        log = _log_flip_edits(monkeypatch)
        result = assert_flip_pass_matches_rebuild(degenerate_refusal_disc())
        assert "".join(log) == "DfD"
        assert [r.edge for r in result.flips] == [(4, 5)]
    else:
        cap = int(case[-1])
        for disc in (grid_disc(8, np.random.default_rng([0, 8])),
                     perturbed_grid_disc(5, seed=1, subdivisions=2)):
            result = assert_flip_pass_matches_rebuild(disc, cap=cap)
            assert result.cap_exceeded and len(result.flips) == cap


def test_config_round_trip():
    cfg = OptimizerConfig(eps_area=1e-13, max_outer_iterations=123, seed=9, enable_flips=False)
    assert OptimizerConfig.from_dict(cfg.to_dict()) == cfg
    assert OptimizerConfig.from_dict({}) == OptimizerConfig()
    assert OptimizerConfig.from_dict({"seed": 3}).seed == 3


def test_readme_config_block_is_the_default_config():
    """README's config block names every key with its default, in the
    names ``from_dict`` reads and ``to_dict`` writes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.split("Optimizer config is JSON:", 1)[1]
    block = json.loads(after.split("```json\n", 1)[1].split("```", 1)[0])
    assert OptimizerConfig.from_dict(block) == OptimizerConfig()
    assert OptimizerConfig().to_dict() == block


def test_config_rejects_unknown_keys():
    """A key that names no field, among them the removed ``line_search``,
    ``triangle_budget``, ``enable_reductions``, ``eps_flip``, ``eps_saddle``
    and ``jitter_amplitude``, is refused by name."""
    for key, value in (("budget", 10), ("line_search", {"stepsize": 0.1}), ("line_search", {}),
                       ("triangle_budget", 500), ("enable_reductions", False), ("eps_flip", 1e-9),
                       ("eps_saddle", 1e-7), ("jitter_amplitude", 1e-9)):
        with pytest.raises(InvalidInput, match=f"unknown config keys: \\['{key}'\\]"):
            OptimizerConfig.from_dict({key: value})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eps_area": float("nan")},
        {"eps_area": "x"},
        {"eps_area": float("inf")},
        {"eps_area": True},
        {"max_outer_iterations": 0},
        {"max_outer_iterations": 2.0},
        {"max_outer_iterations": None},
        {"max_outer_iterations": float("inf")},
        {"seed": None},
        {"seed": -1},
        {"enable_flips": 1},
        {"eps_area": -1.0},
        {"seed": True},
        {"max_outer_iterations": True},
        {"seed": 1.5},
        {"seed": "1"},
        {"enable_flips": None},
        {"enable_flips": "true"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        OptimizerConfig(**kwargs)


def test_full_jitter_at_the_coordinate_bound_keeps_the_input(monkeypatch):
    monkeypatch.setattr(optimize, "_JITTER", 1.0)
    disc = fan_disc(8, apex=(0.1, 0.0, 0.5))
    disc = disc.with_positions(disc.positions * 0.9e75)
    out, trace = minimize(disc, OptimizerConfig(max_outer_iterations=1))
    assert len(trace.iterations) == 1
    assert np.array_equal(out.positions[:8], disc.positions[:8])


def test_minimize_without_interior_vertices_is_a_fixed_point():
    disc = hinge_disc((0, 0, 0), (1, 1, 0.2), (1, 0, 0), (0, 1, 0))
    out, trace = minimize(disc)
    assert trace.converged
    assert np.array_equal(out.positions, disc.positions)
    assert len(trace.iterations) == 1
    rec = trace.iterations[0]
    assert rec.moves == () and rec.reductions == ()
    assert trace.certificate.saddle
    assert trace.final_area == pytest.approx(trace.initial_area)


def test_a_flat_symmetric_vertex_has_no_move(monkeypatch):
    """The apex of a flat square fan has an exactly zero area gradient
    and a saddle star: it gets no Newton step and no gradient move, and
    without jitter the run converges after one iteration without a move."""
    rim = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    disc = PolyhedralDisc(
        build_from_triangles([(i, (i + 1) % 4, 4) for i in range(4)]),
        np.array([*rim, (0, 0, 0)], dtype=float),
    )
    sweep = one_row_sweep(disc, 4)
    g, step = sweep.newton(0, 1)
    move = optimize._vertex_move(sweep, 0, g[0], step[0], 1e-12)
    assert move == ("gradient", None, 0.0, False)
    monkeypatch.setattr(optimize, "_JITTER", 0.0)
    out, trace = minimize(disc)
    assert len(trace.iterations) == 1
    assert trace.converged and trace.certificate.saddle
    assert trace.iterations[0].moves == ()
    assert np.array_equal(out.positions, disc.positions)


def planar_nonagon_fan() -> PolyhedralDisc:
    """A fan over a planar regular 9-gon, its apex lifted off-centre."""
    rim = regular_polygon(9, radius=1.3)
    return PolyhedralDisc(
        build_from_triangles([(i, (i + 1) % 9, 9) for i in range(9)]),
        np.vstack([rim, [[0.2, -0.1, 0.8]]]),
    )


def test_minimize_planar_convex_boundary_reaches_polygon_area():
    disc = planar_nonagon_fan()
    rim = disc.positions[:9]
    out, trace = minimize(disc)
    # the apex comes to rest non-saddle, its margin 4.2e-7 above eps_saddle = 1e-7
    assert trace.stop_reason == "stalled" and stalled_at_rest(trace)
    assert not trace.converged
    target = shoelace(rim[:, :2])
    assert abs(out.total_area() - target) <= 1e-8 * target
    assert np.array_equal(out.positions[:9], disc.positions[:9])


def test_minimize_reduces_hexagon_violation_to_flat_hexagon():
    out, trace = minimize(hexagon_with_violation(lift=0.5))
    assert trace.converged
    assert sum(len(r.reductions) for r in trace.iterations) == 1
    assert len(out.complex.triangles) == 4
    assert out.total_area() == pytest.approx(3 * math.sqrt(3) / 2, abs=1e-9)
    assert trace.certificate.saddle
    assert out.complex.no_triangle_violations() == []


def test_fan_reductions_run_with_flips_disabled():
    """``enable_flips`` is the one topology switch: with it off, the
    empty triangle is still cut, and no hinge is flipped."""
    out, trace = minimize(hexagon_with_violation(), OptimizerConfig(enable_flips=False))
    assert [r.triple for r in trace.iterations[0].reductions] == [(0, 2, 4)]
    assert sum(len(r.flips) for r in trace.iterations) == 0
    assert len(out.complex.triangles) == 4
    assert out.complex.no_triangle_violations() == []


def test_minimize_counts_a_refused_reduction_as_unresolved(monkeypatch):
    def refuse(disc, triple):
        raise DegenerateTriangle(f"refused {triple}")

    monkeypatch.setattr(optimize, "reduce_fan", refuse)
    _, trace = minimize(hexagon_with_violation(), OptimizerConfig(max_outer_iterations=1))
    (rec,) = trace.iterations
    assert rec.unresolved_violations == 1
    assert rec.reductions == ()
    assert trace.summary_dict()["unresolved_violations"] == 1


def test_summary_reports_the_flip_cap_and_the_closest_vertex(monkeypatch):
    """``flip_cap_exceeded`` is true when any flip pass hit the cap, and
    ``max_margin`` and its vertex are the certificate's largest margin."""
    disc = perturbed_grid_disc(4, seed=1)
    _, trace = minimize(disc, OptimizerConfig(max_outer_iterations=3))
    summary = trace.summary_dict()
    assert summary["flip_cap_exceeded"] is False
    assert summary["unresolved_violations"] == 0
    margins = [v.margin for v in trace.certificate.verdicts]
    assert summary["max_margin"] == max(margins)
    assert summary["max_margin_vertex"] == trace.certificate.verdicts[margins.index(max(margins))].vertex

    monkeypatch.setattr(optimize, "flip_pass",
                        lambda *args, **kwargs: flips.flip_pass(*args, **kwargs, cap=0))
    _, trace = minimize(hinge_disc(**ASYM))
    assert trace.summary_dict()["flip_cap_exceeded"] is True
    assert trace.summary_dict()["max_margin"] is None
    assert trace.stop_reason == "stalled" and not trace.converged


def test_minimize_trace_is_monotone_and_deterministic():
    from discmin import random_instance

    disc = random_instance(10, nonplanarity=0.3, seed=5)
    cfg = OptimizerConfig(seed=5)
    out1, trace1 = minimize(disc, cfg)
    out2, trace2 = minimize(disc, cfg)
    assert trace1.csv_text() == trace2.csv_text()
    assert np.array_equal(out1.positions, out2.positions)
    areas = [r.area for r in trace1.iterations]
    assert all(b <= a + 1e-12 for a, b in zip(areas, areas[1:]))
    counts = [r.triangle_count for r in trace1.iterations]
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    assert trace1.final_area <= trace1.initial_area + 1e-9
    boundary = list(disc.complex.boundary_vertices)
    assert np.array_equal(out1.positions[boundary], disc.positions[boundary])


def test_minimize_converged_output_is_flip_stable_and_saddle():
    from discmin import random_instance

    disc = random_instance(9, nonplanarity=0.4, seed=2)
    out, trace = minimize(disc)
    assert trace.converged
    assert flip_pass(out).flips == ()
    assert out.complex.no_triangle_violations() == []
    assert certify_saddle(out).saddle
    assert trace.certificate.saddle


def test_the_recorded_eps_area_is_resolved_from_the_input_before_the_jitter():
    """The default ``eps_area`` is 1e-12 * diameter**2 of the disc passed
    in, the diameter of its pinned boundary, which the jitter of the
    apex leaves.  A set value is recorded as it is."""
    disc = fan_disc(8, apex=(0.1, 0.0, 0.6))
    for config, expected in ((None, 1e-12 * disc.diameter**2),
                             (OptimizerConfig(eps_area=0.0), 0.0)):
        _, trace = minimize(disc, config)
        assert trace.eps_area == expected
        assert trace.summary_dict()["eps_area"] == expected


def test_zero_eps_area_stops_a_stationary_run():
    triangle = PolyhedralDisc(
        build_from_triangles([(0, 1, 2)]), np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    )
    traces = [minimize(disc, OptimizerConfig(eps_area=0.0))[1]
              for disc in (triangle, random_instance(10, seed=3))]
    for trace in traces:
        assert trace.certificate.saddle
        areas = [trace.initial_area] + [rec.area for rec in trace.iterations]
        assert areas[-1] >= areas[-2]
    assert traces[0].stop_reason == "stationary" and traces[0].converged
    assert len(traces[0].iterations) == 1
    # the fan stops once a sweep lowers its area by nothing at all
    assert traces[1].stop_reason == "stalled" and stalled_at_rest(traces[1])
    assert not traces[1].converged


@pytest.mark.parametrize(
    "size,seed,stalled_area",
    # the areas steepest descent reached after about 2,570 iterations each
    [(12, 94, 3.3928014833584372), (13, 392, 3.369200938026027)],
)
def test_heavy_tail_fans_converge_in_few_iterations(size, seed, stalled_area):
    disc = random_instance(size, nonplanarity=0.3, seed=seed)
    out, trace = minimize(disc)
    assert trace.converged and trace.certificate.saddle
    assert len(trace.iterations) < 100
    assert trace.final_area <= stalled_area + 1e-9


def test_gradient_fallback_moves_where_newton_trials_degenerate(monkeypatch):
    # late in this run a star triangle sits at the degeneracy floor and
    # every Newton trial pushes it below; steepest descent still moves
    searches = []
    vertex_move, line_search = optimize._vertex_move, optimize._line_search

    def grouped_move(*args):
        searches.append([])
        return vertex_move(*args)

    def logged_search(*args, **kwargs):
        trial, _, blocked = result = line_search(*args, **kwargs)
        searches[-1].append((kwargs.get("shorten", False), trial is not None, blocked))
        return result

    monkeypatch.setattr(optimize, "_vertex_move", grouped_move)
    monkeypatch.setattr(optimize, "_line_search", logged_search)
    disc = perturbed_grid_disc(6, seed=35, subdivisions=4)
    minimize(disc, OptimizerConfig(max_outer_iterations=23, seed=35))
    # a Newton search whose every trial degenerated, then an applied gradient move
    assert [(False, False, True), (False, True, False)] in searches


def test_minimize_iteration_limit():
    from discmin import random_instance

    disc = random_instance(12, nonplanarity=0.5, seed=7)
    out, trace = minimize(disc, OptimizerConfig(max_outer_iterations=1))
    assert not trace.converged
    assert trace.stop_reason == "iteration_cap"
    assert len(trace.iterations) == 1


def test_trace_csv_shape():
    out, trace = minimize(hexagon_with_violation())
    lines = trace.csv_text().strip().splitlines()
    assert lines[0] == "iter,area,flips,reductions,moves,triangles"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert int(first[5]) >= len(out.complex.triangles)
    summary = trace.summary_dict()
    assert summary["converged"] is True
    assert summary["final_area"] == pytest.approx(out.total_area())
    assert summary["saddle"] is True


ACCEPTANCE_FANS = GRIDS_AND_FANS[6:]
# the grid workload's discs at seed 0
WORKLOAD_GRIDS = {n: grid_disc(n, np.random.default_rng([0, n])) for n in (4, 6, 8)}


def minimize_both_ways(disc, config):
    """Run ``minimize`` with the certified exit and without it, as the
    loop ran before the exit existed; the two runs must agree bit for
    bit in trace, positions and certificate.  Returns the trace."""
    out, trace = minimize(disc, config)
    with mock.patch.object(optimize, "_stationary", lambda *args: False):
        old_out, old_trace = minimize(disc, config)
    assert trace.csv_text() == old_trace.csv_text()
    # a run ends at rest the same way either way: stationary, or stalled at rest without the exit
    assert (trace.converged or stalled_at_rest(trace)) == stalled_at_rest(old_trace)
    assert not old_trace.converged
    assert out.complex.triangles == old_out.complex.triangles
    assert out.positions.tobytes() == old_out.positions.tobytes()
    assert json.dumps(trace.certificate.to_dict()) == json.dumps(old_trace.certificate.to_dict())
    assert old_trace.stop_reason in ("stalled", "iteration_cap")
    assert trace.stop_reason in (old_trace.stop_reason, "stationary")
    return trace


@pytest.mark.parametrize("disc", ACCEPTANCE_FANS, ids=GRIDS_AND_FANS_IDS[6:])
def test_acceptance_fans_stop_stationary_as_they_stopped_before(disc):
    trace = minimize_both_ways(disc, OptimizerConfig())
    assert trace.stop_reason == "stationary"
    assert trace.converged and trace.certificate.saddle
    assert trace.summary_dict()["stop_reason"] == "stationary"
    assert "stationary" not in trace.csv_text()


@pytest.mark.parametrize("n", sorted(WORKLOAD_GRIDS))
def test_workload_grids_run_as_they_ran_before(n):
    capped = minimize_both_ways(WORKLOAD_GRIDS[n], OptimizerConfig(max_outer_iterations=12))
    assert capped.stop_reason == "iteration_cap" and not capped.converged
    assert len(capped.iterations) == 12
    trace = minimize_both_ways(WORKLOAD_GRIDS[n], OptimizerConfig(max_outer_iterations=400))
    assert trace.stop_reason != "iteration_cap"


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(3, 5),
    seed=st.integers(0, 2**16),
    subdivisions=st.integers(0, 4),
    rng_seed=st.integers(0, 2**16),
)
def test_the_certified_exit_changes_no_run_of_a_subdivided_grid(n, seed, subdivisions, rng_seed):
    disc = perturbed_grid_disc(n, seed, subdivisions=subdivisions)
    minimize_both_ways(disc, OptimizerConfig(max_outer_iterations=400, seed=rng_seed))


def test_a_non_saddle_certificate_falls_through_to_the_sweep(monkeypatch):
    """The tent's fan with flips off: its apex passes the
    decrement test but is pinned non-saddle, so the certified exit is
    declined, the sweep runs and the area test stops the run."""
    tent = make_tent()
    assert tent.fan_trace.stop_reason == "stalled" and stalled_at_rest(tent.fan_trace)
    assert not tent.fan_trace.converged
    assert tent.chord_trace.stop_reason == "stationary"
    certificates = []
    certify = optimize.certify_saddle

    def logged(*args):
        certificates.append(certify(*args))
        return certificates[-1]

    monkeypatch.setattr(optimize, "certify_saddle", logged)
    _, trace = minimize(tent.fan_disc, OptimizerConfig(enable_flips=False))
    assert trace.stop_reason == "stalled" and stalled_at_rest(trace)
    assert not trace.converged
    assert not trace.certificate.saddle
    # one declined exit, then the end-of-run certificate
    assert [c.saddle for c in certificates] == [False, False]


def test_a_grid_with_non_saddle_vertices_is_never_stationary():
    disc = grid_disc(10, np.random.default_rng([0, 10]))
    _, trace = minimize(disc, OptimizerConfig(max_outer_iterations=400))
    assert sum(not v.is_saddle for v in trace.certificate.verdicts) > 0
    assert trace.stop_reason == "stalled"


def assert_converged_means_stationary(trace) -> None:
    assert trace.converged is (trace.stop_reason == "stationary")
    summary = trace.summary_dict()
    assert summary["converged"] is (summary["stop_reason"] == "stationary")
    assert not trace.converged or trace.certificate.saddle


FIXED_TOPOLOGY = OptimizerConfig(enable_flips=False)
STOP_REASON_RUNS = {
    "tent chord": (lambda: minimize(make_tent().chord_disc)[1], "stationary"),
    "tent fan, fixed topology": (lambda: minimize(make_tent().fan_disc, FIXED_TOPOLOGY)[1], "stalled"),
    "workload grid 4, 12 iterations": (
        lambda: minimize(WORKLOAD_GRIDS[4], OptimizerConfig(max_outer_iterations=12))[1],
        "iteration_cap",
    ),
    "planar 9-gon fan": (lambda: minimize(planar_nonagon_fan())[1], "stalled"),
    # stalls after 183 iterations with 2 of 49 vertices non-saddle
    "saddle grid 8, draw 2": (
        lambda: minimize(grid_disc(8, np.random.default_rng([2, 8])),
                         OptimizerConfig(max_outer_iterations=400))[1],
        "stalled",
    ),
    # stops stationary after 99 iterations
    "saddle grid 8, draw 3": (
        lambda: minimize(grid_disc(8, np.random.default_rng([3, 8])),
                         OptimizerConfig(max_outer_iterations=400))[1],
        "stationary",
    ),
}


@pytest.mark.parametrize("run,stop_reason", STOP_REASON_RUNS.values(), ids=list(STOP_REASON_RUNS))
def test_converged_means_the_run_stopped_stationary(run, stop_reason):
    trace = run()
    assert trace.stop_reason == stop_reason
    assert_converged_means_stationary(trace)


def test_a_move_drops_the_newton_steps_of_its_star():
    """The steps of the stationarity test's batched call for the first
    colour class are handed to the sweep of that class, not computed
    again; once a class has moved, the next class gets its steps anew,
    equal to those of a sweep started from the moved disc."""
    disc = WORKLOAD_GRIDS[4]
    stars = optimize._sweep_stars(disc.complex)
    sweep = optimize._Sweep(disc, stars)
    (r0, r1), (s0, s1) = stars.classes[:2]
    with mock.patch.object(optimize, "_star_terms", wraps=optimize._star_terms) as kernel:
        assert optimize._stationary(sweep, 0.0) is False
        first = sweep.newton(r0, r1)
        assert kernel.call_count == 1
    before = optimize._Sweep(disc, stars).newton(0, len(stars.vertices))
    assert all(got.tobytes() == kept[r0:r1].tobytes() for got, kept in zip(first, before))
    for r, g, step in zip(range(r0, r1), *first):
        mode, trial, _, blocked = optimize._vertex_move(sweep, r, g, step, 0.0)
        assert (mode, blocked) == ("gradient", False) and trial is not None
        sweep.apply(r, trial)
    fresh = optimize._Sweep(sweep.disc(), stars)
    assert sweep.points == fresh.points
    entry = sweep.newton(s0, s1)
    for got, expected, kept in zip(entry, fresh.newton(s0, s1), before):
        assert got.tobytes() == expected.tobytes()
        assert got.tobytes() != kept[s0:s1].tobytes()  # the moves reached this class's stars


def test_every_reader_sees_the_sweeps_current_positions():
    """A move writes its point into the sweep's Python floats only; the
    positions array that the vertex test, a scaled line search and the
    built disc read then holds it bit for bit, as the validated disc of
    the moved state does, and ``vertex_descent_step`` returns the moved disc."""
    disc = WORKLOAD_GRIDS[4]
    stars = optimize._sweep_stars(disc.complex)
    start = optimize._Sweep(disc, stars)
    _, steps = start.newton(0, len(stars.vertices))
    v = stars.vertices[0]
    point = tuple((disc.positions[v] + steps[0]).tolist())
    areas = start.trial(0, point)
    assert areas is not None
    moved = disc.moved(v, point)

    def moved_sweep():
        sweep = optimize._Sweep(disc, stars)
        sweep.apply(0, (point, areas))
        return sweep

    def bits(verdicts):
        return [verdict_bits(dataclasses.astuple(verdict)) for verdict in verdicts]

    vertices = [v, *(u for u in disc.complex.neighbors(v) if u in stars.vertices)]
    assert len(vertices) > 1
    assert bits(_vertex_verdicts(moved_sweep(), vertices, EPS_SADDLE)) == bits(
        _vertex_verdicts(moved, vertices, EPS_SADDLE))
    g, _ = optimize._Sweep(moved, stars).newton(0, len(stars.vertices))
    for u in vertices:  # the moved vertex's row, and rows whose star holds it
        r = stars.vertices.index(u)
        searches = [optimize._line_search(sweep, r, -g[r] / np.linalg.norm(g[r]), g[r], 0.0,
                                          scale=1.0)
                    for sweep in (moved_sweep(), optimize._Sweep(moved, stars))]
        (trial, decrease, _), expected = searches
        assert trial is not None
        assert [[c.hex() for c in trial[0]], [a.hex() for a in trial[1]], decrease.hex()] == [
            [c.hex() for c in expected[0][0]], [a.hex() for a in expected[0][1]],
            expected[1].hex()]
    built = moved_sweep().disc()
    assert same_bits(built.positions, moved.positions) and same_bits(built._areas, moved._areas)

    fan = fan_disc(12, apex=(0.0, 0.0, 0.6))
    out, decrease = vertex_descent_step(fan, 12)
    assert decrease > 0.0 and out.positions[12, 2] < 0.6
    assert same_bits(out._areas, PolyhedralDisc(out.complex, out.positions)._areas)


def assert_colour_classes(cx) -> None:
    """The classes of ``_sweep_stars`` partition the interior vertices of
    ``cx`` into runs of rows, each largest degree first and ties by
    ascending id; no class holds two neighbors, and a second colouring of
    the same complex is the same."""
    stars, again = optimize._sweep_stars(cx), optimize._sweep_stars(cx)
    assert (stars.vertices, stars.classes) == (again.vertices, again.classes)
    assert sorted(stars.vertices) == list(cx.interior_vertices())
    ends = [0, *(r1 for _, r1 in stars.classes)]
    assert stars.classes == list(zip(ends, ends[1:])) and ends[-1] == len(stars.vertices)
    for r0, r1 in stars.classes:
        members = stars.vertices[r0:r1]
        assert members == sorted(members, key=lambda v: (-len(cx.vertex_star(v)), v))
        assert not any(set(cx.neighbors(v)) & set(members) for v in members)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 6),
    seed=st.integers(0, 2**16),
    subdivisions=st.integers(0, 6),
)
def test_colour_classes_partition_the_interior_into_independent_sets(n, seed, subdivisions):
    """On a subdivided grid, after its flip pass, and on every complex a
    run colours, the fan reductions' and flip passes' included."""
    disc = perturbed_grid_disc(n, seed, subdivisions=subdivisions)
    coloured, sweep_stars = [], optimize._sweep_stars

    def recorded(cx):
        coloured.append(cx)
        return sweep_stars(cx)

    with mock.patch.object(optimize, "_sweep_stars", recorded):
        minimize(disc, OptimizerConfig(max_outer_iterations=5, seed=seed))
    for cx in (disc.complex, flip_pass(disc).disc.complex, *coloured):
        assert_colour_classes(cx)


def test_colour_classes_after_fan_reductions_and_flips():
    for disc in (hexagon_with_violation(), *WORKLOAD_GRIDS.values()):
        assert_colour_classes(disc.complex)
        assert_colour_classes(flip_pass(disc).disc.complex)
        for triple in disc.complex.no_triangle_violations():
            assert_colour_classes(reduce_fan(disc, triple)[0].complex)


@pytest.mark.parametrize("disc", [hexagon_with_violation(), *WORKLOAD_GRIDS.values()],
                         ids=["hexagon", *(f"workload{n}" for n in WORKLOAD_GRIDS)])
def test_a_run_validates_a_disc_in_full_only_at_the_jitter(disc, monkeypatch):
    """Fan reductions, flips and sweeps derive their discs from checked
    state, so a run validates one disc in full: the jittered input."""
    validated, post_init = [], PolyhedralDisc.__post_init__

    def counted(self):
        validated.append(self)
        post_init(self)

    monkeypatch.setattr(PolyhedralDisc, "__post_init__", counted)
    _, trace = minimize(disc, OptimizerConfig(max_outer_iterations=12))
    assert len(validated) == 1
    assert any(rec.reductions for rec in trace.iterations)


PLANAR_GRIDS = [perturbed_grid_disc(4 + s % 3, seed=s, subdivisions=s % 5) for s in range(60)]


@pytest.mark.parametrize("disc", [*PLANAR_GRIDS, *WORKLOAD_GRIDS.values(), *C4_FANS],
                         ids=[*(f"planar{s}" for s in range(60)),
                              *(f"workload{n}" for n in WORKLOAD_GRIDS),
                              *(f"c4_fan{s}" for s in range(20))])
def test_the_carried_violations_are_the_scan_of_the_reduced_complex(disc, monkeypatch):
    """After each fan reduction and each flip pass that flips in a run,
    the empty triangles that ``minimize`` carries over equal a fresh scan
    of the reduced or flipped complex, and the run itself scans once."""
    reduce, carry, carry_flips = optimize.reduce_fan, optimize._carried, optimize._flipped
    scan, scans, reduced, carried, flipped = DiscComplex.no_triangle_violations, [], [], [], []

    def recorded(disc, triple):
        out = reduce(disc, triple)
        reduced.append(out[0])
        return out

    def compared(violations, record):
        carried.append(carry(violations, record))
        assert carried[-1] == scan(reduced[-1].complex)
        return carried[-1]

    def compared_flips(violations, result):
        flipped.append(carry_flips(violations, result))
        assert flipped[-1] == scan(result.disc.complex)
        return flipped[-1]

    def counted(cx):
        scans.append(cx)
        return scan(cx)

    monkeypatch.setattr(optimize, "reduce_fan", recorded)
    monkeypatch.setattr(optimize, "_carried", compared)
    monkeypatch.setattr(optimize, "_flipped", compared_flips)
    monkeypatch.setattr(DiscComplex, "no_triangle_violations", counted)
    _, trace = minimize(disc, OptimizerConfig(max_outer_iterations=12))
    reductions = [r for rec in trace.iterations for r in rec.reductions]
    assert len(carried) == len(reduced) == len(reductions)
    assert len(flipped) == sum(bool(rec.flips) for rec in trace.iterations)
    assert reductions or any(disc is fan for fan in C4_FANS)  # a fan has nothing to cut
    assert len(scans) == 1


def hand_built_pass(disc, edges) -> FlipPassResult:
    """The flip pass that flips ``edges`` of ``disc`` in turn, recorded as
    ``flip_pass`` records its flips."""
    records = []
    for e in edges:
        m = measure_hinge(disc, e)
        records.append(FlipRecord(m.edge, m.sigma, m.gain, edge_key(*m.opposite)))
        disc = flip(disc, e)
    return FlipPassResult(disc, tuple(records), False)


def test_violations_carried_over_hand_built_flip_passes():
    """On a five-spoke fan, the first pass flips (0, 5) to (1, 4), then
    (1, 5), which leaves the apex three spokes and the empty triangle
    (2, 3, 4) on the new diagonal (2, 4), then (1, 4) away again.  A
    second pass flips (2, 4), so the carried triangle is empty no more.
    On the hexagon, a pass flips the chord (0, 2) of the empty triangle
    (0, 2, 4) and then (4, 6) to (0, 2) again, making (0, 2, 4) a face."""
    disc = fan_disc(5)
    first = hand_built_pass(disc, [(0, 5), (1, 5), (1, 4)])
    assert [r.diagonal for r in first.flips] == [(1, 4), (2, 4), (0, 2)]
    carried = optimize._flipped(disc.complex.no_triangle_violations(), first)
    assert carried == first.disc.complex.no_triangle_violations() == [(2, 3, 4)]
    second = hand_built_pass(first.disc, [(2, 4)])
    again = optimize._flipped(carried, second)
    assert again == second.disc.complex.no_triangle_violations()
    assert (2, 3, 4) not in again
    hexagon = hexagon_with_violation()
    assert hexagon.complex.no_triangle_violations() == [(0, 2, 4)]
    refaced = hand_built_pass(hexagon, [(0, 2), (4, 6)])
    assert [r.diagonal for r in refaced.flips] == [(1, 6), (0, 2)]
    assert optimize._flipped([(0, 2, 4)], refaced) == [(0, 1, 2)]
    assert refaced.disc.complex.no_triangle_violations() == [(0, 1, 2)]


SWEEP_STARS = optimize._sweep_stars


def one_vertex_at_a_time(cx):
    """``_sweep_stars`` with each colour class cut into classes of one
    vertex: the serial sweep in the same order through the same kernel."""
    stars = SWEEP_STARS(cx)
    stars.classes = [(r, r + 1) for r in range(len(stars.vertices))]
    return stars


def assert_the_batched_sweep_is_the_serial_sweep(disc, config):
    """A run that sweeps class by class and one that sweeps one vertex at
    a time in the same order agree bit for bit: trace, moves, positions
    and certificate.  The batched run calls the star kernel less often."""
    runs = []
    for stars in (SWEEP_STARS, one_vertex_at_a_time):
        with mock.patch.object(optimize, "_sweep_stars", stars), \
                mock.patch.object(optimize, "_star_terms", wraps=optimize._star_terms) as kernel:
            out, trace = minimize(disc, config)
        moves = [(m.vertex, [c.hex() for c in m.displacement], m.area_decrease.hex(), m.mode,
                  m.blocked) for rec in trace.iterations for m in rec.moves]
        runs.append((trace.csv_text(), moves, out.complex.triangles, out.positions.tobytes(),
                     json.dumps(trace.certificate.to_dict()), kernel.call_count))
    (*batched, calls), (*serial, serial_calls) = runs
    assert batched == serial
    assert batched[1] and calls < serial_calls


@pytest.mark.parametrize("n", sorted(WORKLOAD_GRIDS))
def test_the_batched_sweep_is_the_serial_sweep_on_the_workload_grids(n):
    assert_the_batched_sweep_is_the_serial_sweep(WORKLOAD_GRIDS[n],
                                                 OptimizerConfig(max_outer_iterations=12))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(3, 5),
    seed=st.integers(0, 2**16),
    subdivisions=st.integers(0, 4),
    rng_seed=st.integers(0, 2**16),
)
def test_the_batched_sweep_is_the_serial_sweep_on_subdivided_grids(n, seed, subdivisions,
                                                                   rng_seed):
    disc = perturbed_grid_disc(n, seed, subdivisions=subdivisions)
    assert_the_batched_sweep_is_the_serial_sweep(
        disc, OptimizerConfig(max_outer_iterations=6, seed=rng_seed))


@pytest.mark.parametrize("disc", [*GRIDS_AND_FANS, *WORKLOAD_GRIDS.values()],
                         ids=[*GRIDS_AND_FANS_IDS, *(f"workload{n}" for n in WORKLOAD_GRIDS)])
def test_a_star_row_does_not_depend_on_the_other_rows(disc):
    """The kernel gives each star the bits it gives that star alone,
    whichever rows share the call and in whatever order: all interior
    vertices, a shuffled order, and each colour class."""
    cx, points = disc.complex, disc.positions.tolist()
    interior = list(cx.interior_vertices())
    alone = {v: star_terms(disc, v) for v in interior}
    shuffled = np.random.default_rng(len(interior)).permutation(interior).tolist()
    swept = optimize._sweep_stars(cx)
    calls = [(optimize._Stars(cx, interior), 0, len(interior)),
             (optimize._Stars(cx, shuffled), 0, len(interior)),
             *((swept, r0, r1) for r0, r1 in swept.classes)]
    for stars, r0, r1 in calls:
        for v, *terms in zip(stars.vertices[r0:r1], *optimize._star_terms(points, stars, r0, r1)):
            assert [t.tobytes() for t in terms] == [t.tobytes() for t in alone[v]]


@pytest.mark.parametrize("disc", [*WORKLOAD_GRIDS.values(), *ACCEPTANCE_FANS],
                         ids=[*(f"workload{n}" for n in WORKLOAD_GRIDS),
                              *(f"c4_fan{s}" for s in range(len(ACCEPTANCE_FANS)))])
def test_a_star_row_lists_the_faces_of_its_vertex_ascending(disc):
    """Each row of ``_Stars`` holds exactly the faces that contain its
    vertex, ascending, for every interior and boundary vertex, in any row
    order; each rotated corner triple starts at the row's vertex."""
    cx = disc.complex
    vertices = np.random.default_rng(cx.vertex_count).permutation(cx.vertex_count).tolist()
    stars = optimize._Stars(cx, vertices)
    assert any(v in cx.boundary_vertices for v in vertices)
    for r, v in enumerate(vertices):
        lo, hi = stars.bounds[r:r + 2]
        assert stars.faces[lo:hi] == faces_of(cx, v)
        assert stars.corners[lo:hi] == [cx.triangles[f] for f in faces_of(cx, v)]
        assert all(t[0] == v and canonical_triangle(t) == cx.triangles[f]
                   for t, f in zip(stars.xab[lo:hi], stars.faces[lo:hi]))


def boundary_ring(disc, start=None):
    """Bytes of the boundary positions in cycle order, rotated to begin
    at the point whose bytes are ``start`` (default: the first)."""
    ring = [p.tobytes() for p in disc.positions[list(disc.complex.boundary_cycle)]]
    k = ring.index(start) if start is not None else 0
    return ring[k:] + ring[:k]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(3, 6),
    seed=st.integers(0, 2**16),
    subdivisions=st.integers(0, 6),
    rng_seed=st.integers(0, 2**16),
)
def test_minimize_invariants_on_subdivided_grids(n, seed, subdivisions, rng_seed):
    disc = perturbed_grid_disc(n, seed, subdivisions=subdivisions)
    with checked_discs_match_validation():
        out, trace = minimize(disc, OptimizerConfig(max_outer_iterations=5, seed=rng_seed))
    assert_converged_means_stationary(trace)
    ring = boundary_ring(disc)
    assert boundary_ring(out, ring[0]) == ring
    # compared from the first iteration on: the seeded jitter before it
    # may raise the area by a hair
    areas = [rec.area for rec in trace.iterations]
    counts = [len(disc.complex.triangles)] + [rec.triangle_count for rec in trace.iterations]
    assert all(later <= earlier for earlier, later in zip(areas, areas[1:]))
    assert all(later <= earlier for earlier, later in zip(counts, counts[1:]))
    assert counts[-1] == len(out.complex.triangles)
    rebuilt = build_from_triangles(out.complex.triangles)
    assert rebuilt.vertex_count - len(rebuilt.edges) + len(rebuilt.triangles) == 1
    assert_edge_table(disc.complex)
    assert_edge_table(out.complex)
    assert_rings(out.complex)
