"""End-to-end acceptance checks.

One test per acceptance criterion, each enforcing the criterion's own
tolerances and time budget and printing a single [PASS] line (visible
with -s).  Criteria 6 and 7 inspect the converged runs produced for
criterion 4 through a shared module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_rotation
from discmin import (
    QuadSpec,
    alpha_range,
    area_curve,
    brute_force_cutting_direction,
    bulk_hinges,
    can_flip,
    certify_saddle,
    cutting_direction,
    dumps_obj,
    edge_length_area_gradient,
    flat_convex_check,
    loads_obj,
    make_tent,
    measure_hinge,
    minimize,
    position_area_gradient,
    random_instance,
)
from discmin.errors import InvalidSpec


def _pass(criterion, message):
    print(f"[PASS] criterion {criterion}: {message}")


def _random_spec(rng):
    while True:
        p, q, r, s = rng.uniform(0.2, 3.0, size=4)
        try:
            return QuadSpec(p, q, r, s)
        except InvalidSpec:
            continue


@pytest.fixture(scope="module")
def optimized_runs():
    start = time.perf_counter()
    runs = []
    for seed in range(20):
        m = 8 + seed % 9
        disc = random_instance(m, nonplanarity=0.3, seed=seed)
        runs.append(minimize(disc))
    return runs, time.perf_counter() - start


def test_c1_area_monotone_in_alpha():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_up = worst_down = 0.0
    for _ in range(1000):
        spec = _random_spec(rng)
        lo, hi = alpha_range(spec)
        alphas = np.linspace(lo, hi, 50)
        _, areas = area_curve(spec, alphas)
        norm = spec.p * spec.q + spec.r * spec.s
        diffs = np.diff(areas) / norm
        rising = diffs[alphas[1:] <= math.pi]
        falling = diffs[alphas[:-1] >= math.pi]
        if len(rising):
            worst_up = min(worst_up, float(rising.min()))
        if len(falling):
            worst_down = max(worst_down, float(falling.max()))
        assert np.all(rising >= -1e-9)
        assert np.all(falling <= 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    _pass(
        1,
        f"1000 specs x 50 alphas monotone about pi "
        f"(worst normalized slips {worst_up:.2e}/{worst_down:.2e}, {elapsed:.2f}s)",
    )


def test_c2_flip_gain_nonnegative_for_closed_hinges():
    start = time.perf_counter()
    rng = np.random.default_rng(2)

    collected = 0
    worst = np.inf
    while collected < 100_000:
        pts = rng.normal(size=(40_000, 4, 3))
        a, b, x, y = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
        area_abx = 0.5 * np.linalg.norm(np.cross(b - a, x - a), axis=1)
        area_aby = 0.5 * np.linalg.norm(np.cross(b - a, y - a), axis=1)
        ok = np.minimum(area_abx, area_aby) > 1e-9
        sigma, gain = bulk_hinges(a[ok], b[ok], x[ok], y[ok])
        closed = sigma < math.pi
        norm = np.linalg.norm((a - x)[ok][closed], axis=1) * np.linalg.norm(
            (b - x)[ok][closed], axis=1
        ) + np.linalg.norm((a - y)[ok][closed], axis=1) * np.linalg.norm(
            (b - y)[ok][closed], axis=1
        )
        normalized = gain[closed] / norm
        assert np.all(normalized >= -1e-9)
        worst = min(worst, float(normalized.min()))
        collected += int(closed.sum())

    # coplanar convex: four points in circular order on a random circle
    want = 10_000
    checked = 0
    worst_sigma = 0.0
    while checked < want:
        n = want
        theta = np.sort(rng.uniform(0.0, 2 * np.pi, size=(n, 4)), axis=1)
        gaps = np.diff(
            np.concatenate([theta, theta[:, :1] + 2 * np.pi], axis=1), axis=1
        )
        theta = theta[gaps.min(axis=1) > 1e-3]
        n = len(theta)
        radius = np.exp(rng.uniform(-0.7, 0.7, size=(n, 1)))
        flat = np.stack(
            [radius * np.cos(theta), radius * np.sin(theta), np.zeros_like(theta)],
            axis=2,
        )
        rot = np.stack([random_rotation(rng) for _ in range(n)])
        pts = np.einsum("nij,nkj->nki", rot, flat) + rng.normal(size=(n, 1, 3))
        a, x, b, y = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
        sigma, gain = bulk_hinges(a, b, x, y)
        norm = np.linalg.norm(a - x, axis=1) * np.linalg.norm(
            b - x, axis=1
        ) + np.linalg.norm(a - y, axis=1) * np.linalg.norm(b - y, axis=1)
        assert np.all(np.abs(sigma - math.pi) <= 1e-9)
        assert np.all(np.abs(gain) / norm <= 1e-9)
        worst_sigma = max(worst_sigma, float(np.abs(sigma - math.pi).max()))
        checked += n

    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    _pass(
        2,
        f"1e5 closed hinges gain >= {worst:.2e}; 1e4 cyclic planar hinges "
        f"|sigma - pi| <= {worst_sigma:.2e} ({elapsed:.2f}s)",
    )


def test_c3_exact_vs_sampled_cutting_directions():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    eps = 1e-7
    saddle_count = 0
    for _ in range(1000):
        k = int(rng.integers(3, 11))
        dirs = rng.normal(size=(k, 3))
        dirs = dirs[np.linalg.norm(dirs, axis=1) > 1e-8]
        verdict = cutting_direction(dirs, eps)
        _, t_bf = brute_force_cutting_direction(dirs, samples=10_000)
        unit = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        if verdict.is_saddle:
            saddle_count += 1
            lam = verdict.coefficients
            assert np.all(lam >= 0.0)
            assert abs(float(lam.sum()) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(lam @ unit) - verdict.residual) <= 1e-12
            assert verdict.residual <= eps
            assert t_bf <= eps
        else:
            assert verdict.margin > eps
            assert abs(np.linalg.norm(verdict.cut_normal) - 1.0) <= 1e-12
            recomputed = float(np.min(unit @ verdict.cut_normal))
            assert abs(recomputed - verdict.margin) <= 1e-12
            assert verdict.margin >= t_bf - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    _pass(
        3,
        f"1000 stars consistent with the 1e4-direction sampler "
        f"({saddle_count} saddle, {elapsed:.2f}s)",
    )


def test_c4_random_instances_converge_to_saddle(optimized_runs):
    runs, elapsed = optimized_runs
    assert elapsed <= 300.0
    converged = [trace.converged for _, trace in runs]
    assert sum(converged) >= 18
    for disc, trace in runs:
        if trace.converged:
            assert len(trace.iterations) <= 10_000
            assert certify_saddle(disc, 1e-7).saddle
    _pass(
        4,
        f"{sum(converged)}/20 random instances converged, every one "
        f"certified saddle at 1e-7 ({elapsed:.1f}s)",
    )


def test_c5_tent_pins_the_fan():
    start = time.perf_counter()
    tent = make_tent()
    assert len(tent.fan_disc.complex.triangles) == 12
    assert len(tent.chord_disc.complex.triangles) == 10
    fan_cert = certify_saddle(tent.fan_optimized, 1e-7)
    assert not fan_cert.saddle
    assert len(fan_cert.verdicts) == 1
    assert tent.chord_area < tent.fan_area
    assert tent.area_gap > 1e-6 * tent.fan_area
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    _pass(
        5,
        f"fan ({tent.fan_area:.6f}) pinned non-saddle, chord "
        f"({tent.chord_area:.6f}) wins by {tent.area_gap / tent.fan_area:.1%} "
        f"({elapsed:.2f}s)",
    )


def test_c6_converged_hinges_are_open_or_flat_convex(optimized_runs):
    runs, _ = optimized_runs
    flippable = flat = 0
    for disc, trace in runs:
        if not trace.converged:
            continue
        for e in disc.complex.interior_edges():
            sigma = measure_hinge(disc, e).sigma
            if can_flip(disc, e):
                flippable += 1
                assert sigma >= math.pi - 1e-9
            if abs(sigma - math.pi) <= 1e-9:
                flat += 1
                assert flat_convex_check(disc, e)
    assert flippable > 0
    _pass(
        6,
        f"sigma >= pi - 1e-9 at {flippable} flippable edges; "
        f"{flat} borderline hinges all flat convex",
    )


def test_c7_converged_length_gradients_nonnegative(optimized_runs):
    runs, _ = optimized_runs
    entries = 0
    worst = np.inf
    for disc, trace in runs:
        if not trace.converged:
            continue
        for v in disc.complex.interior_vertices():
            for _, value in edge_length_area_gradient(disc, v):
                entries += 1
                worst = min(worst, value)
                assert value >= -1e-6
    assert entries > 0
    _pass(
        7,
        f"{entries} length-gradient components all >= -1e-6 (min {worst:.2e})",
    )


def test_c8_position_gradient_matches_finite_differences():
    start = time.perf_counter()
    rel_worst = 0.0
    for seed in range(100):
        m = 5 + seed % 10
        disc = random_instance(m, nonplanarity=0.2 + 0.03 * (seed % 7), seed=seed)
        v = m
        exact = position_area_gradient(disc, v)
        h = 1e-6 * disc.diameter
        approx = np.zeros(3)
        for k in range(3):
            step = np.zeros(3)
            step[k] = h
            plus = disc.moved(v, disc.positions[v] + step).total_area()
            minus = disc.moved(v, disc.positions[v] - step).total_area()
            approx[k] = (plus - minus) / (2 * h)
        rel = np.linalg.norm(exact - approx) / max(1e-30, np.linalg.norm(approx))
        rel_worst = max(rel_worst, rel)
        assert rel <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    _pass(
        8,
        f"100 gradients match central differences "
        f"(worst rel err {rel_worst:.2e}, {elapsed:.2f}s)",
    )


def test_c9_determinism_and_round_trip():
    for seed in (0, 6, 13):
        disc = random_instance(9 + seed % 4, nonplanarity=0.3, seed=seed)
        out1, trace1 = minimize(disc)
        out2, trace2 = minimize(disc)
        assert trace1.csv_text() == trace2.csv_text()
        assert np.array_equal(out1.positions, out2.positions)

        for d in (disc, out1):
            back = loads_obj(dumps_obj(d))
            assert back.complex == d.complex
            assert np.array_equal(back.positions, d.positions)
    _pass(9, "identical seeds give identical traces; OBJ round trips exactly")
