import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    angle_between,
    double_interior_disc,
    fan_disc,
    hexagon_with_violation,
    hinge_disc,
    perturbed_grid_disc,
    position_gradient_by_faces,
    random_rotation,
    regular_polygon,
    shoelace,
)
from discmin import (
    LineSearch,
    OptimizerConfig,
    PolyhedralDisc,
    build_from_triangles,
    can_flip,
    certify_saddle,
    edge_length_area_derivative,
    edge_length_area_gradient,
    flip,
    flip_pass,
    measure_hinge,
    minimize,
    position_area_gradient,
    random_instance,
    vertex_descent_step,
)
from discmin.errors import BudgetExceeded, DegenerateTriangle, NotCuttable

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


def test_config_round_trip():
    cfg = OptimizerConfig(
        triangle_budget=500,
        eps_flip=1e-8,
        eps_saddle=1e-6,
        eps_area=1e-13,
        max_outer_iterations=123,
        line_search=LineSearch(0.4, 0.6, 12),
        jitter_amplitude=0.0,
        rng_seed=9,
        enable_flips=False,
        enable_reductions=True,
    )
    assert OptimizerConfig.from_dict(cfg.to_dict()) == cfg
    assert OptimizerConfig.from_dict({}) == OptimizerConfig()
    assert OptimizerConfig.from_dict({"seed": 3}).rng_seed == 3
    partial = OptimizerConfig.from_dict({"line_search": {"step": 0.3}})
    assert partial.line_search.initial_step == 0.3
    assert partial.line_search.shrink == LineSearch.shrink


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        OptimizerConfig.from_dict({"budget": 10})
    with pytest.raises(ValueError):
        OptimizerConfig.from_dict({"line_search": {"stepsize": 0.1}})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eps_flip": float("nan")},
        {"eps_saddle": -1e-7},
        {"eps_area": float("inf")},
        {"eps_flip": "x"},
        {"max_outer_iterations": 0},
        {"max_outer_iterations": 2.0},
        {"triangle_budget": True},
        {"triangle_budget": 0},
        {"jitter_amplitude": -1.0},
        {"rng_seed": -1},
        {"enable_reductions": 1},
        {"line_search": LineSearch(shrink=1.0)},
        {"line_search": LineSearch(shrink=0.0)},
        {"line_search": LineSearch(initial_step=0.0)},
        {"line_search": LineSearch(max_backtracks=-1)},
        {"line_search": {"step": 0.5}},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        OptimizerConfig(**kwargs)


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


def test_minimize_planar_convex_boundary_reaches_polygon_area():
    rng = np.random.default_rng(31)
    rim = regular_polygon(9, radius=1.3)
    disc = PolyhedralDisc(
        build_from_triangles([(i, (i + 1) % 9, 9) for i in range(9)]),
        np.vstack([rim, [[0.2, -0.1, 0.8]]]),
    )
    out, trace = minimize(disc)
    assert trace.converged
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


def test_minimize_respects_triangle_budget():
    with pytest.raises(BudgetExceeded):
        minimize(fan_disc(12), OptimizerConfig(triangle_budget=5))


def test_minimize_trace_is_monotone_and_deterministic():
    from discmin import random_instance

    disc = random_instance(10, nonplanarity=0.3, seed=5)
    cfg = OptimizerConfig(rng_seed=5)
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


def test_zero_eps_area_stops_a_stationary_run():
    triangle = PolyhedralDisc(
        build_from_triangles([(0, 1, 2)]), np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    )
    traces = [minimize(disc, OptimizerConfig(eps_area=0.0))[1]
              for disc in (triangle, random_instance(10, seed=3))]
    for trace in traces:
        assert trace.converged and trace.certificate.saddle
        areas = [trace.initial_area] + [rec.area for rec in trace.iterations]
        assert areas[-1] >= areas[-2]
    assert len(traces[0].iterations) == 1


def test_minimize_iteration_limit():
    from discmin import random_instance

    disc = random_instance(12, nonplanarity=0.5, seed=7)
    out, trace = minimize(disc, OptimizerConfig(max_outer_iterations=1))
    assert not trace.converged
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
    out, trace = minimize(disc, OptimizerConfig(max_outer_iterations=5, rng_seed=rng_seed))
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
