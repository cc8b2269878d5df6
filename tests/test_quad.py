import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import heron, shoelace
from discmin import (
    QuadSpec,
    alpha_range,
    area_curve,
    area_of_alpha,
    d_area_d_alpha,
    diagonal_from_alpha,
    embed_planar,
)
from discmin.errors import AlphaOutOfRange, InvalidSpec
from discmin.quad import _angles

UNIT = QuadSpec(1, 1, 1, 1)

sides = st.floats(min_value=0.3, max_value=3.0, allow_nan=False)


def specs_or_none(p, q, r, s):
    try:
        return QuadSpec(p, q, r, s)
    except InvalidSpec:
        return None


def oracle_alpha(spec, d):
    """Forward angle sum from the two law-of-cosines triangles."""
    t1 = math.acos((spec.p**2 + spec.q**2 - d * d) / (2 * spec.p * spec.q))
    t2 = math.acos((spec.r**2 + spec.s**2 - d * d) / (2 * spec.r * spec.s))
    return t1 + t2


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        QuadSpec(0.0, 1, 1, 1)
    with pytest.raises(InvalidSpec):
        QuadSpec(1, -2, 1, 1)
    with pytest.raises(InvalidSpec):
        QuadSpec(1, 1, 1, math.nan)
    # |p - q| >= r + s: no diagonal closes both triangles
    with pytest.raises(InvalidSpec):
        QuadSpec(3.0, 0.2, 0.2, 0.2)
    # p**2 overflows at 1e200, p + q at 1e308, and 2 p q is 0 at 1e-320
    for side in (1e200, 1e308, 1e-320):
        with pytest.raises(InvalidSpec, match="must lie in"):
            QuadSpec(side, side, side, side)


@pytest.mark.parametrize("side", [1e-75, 1e75])
def test_sides_at_the_bounds_give_a_finite_curve(side):
    inward = 1.5 if side < 1.0 else 2.0 / 3.0
    for spec in (QuadSpec(side, side, side, side),
                 QuadSpec(side, side * inward, side, side * inward**2)):
        lo, hi = alpha_range(spec)
        diagonals, areas = area_curve(spec, np.linspace(lo, hi, 5))
        assert np.isfinite([lo, hi]).all() and lo < hi
        assert np.isfinite(diagonals).all() and np.isfinite(areas).all()
        assert math.isfinite(d_area_d_alpha(spec, math.pi))


def wide_specs(count, seed):
    """Seeded specs with sides log-uniform over e^-5 to e^5, side ratios up
    to e^10, and the specs at the side bounds 1e-75 and 1e75."""
    rng = np.random.default_rng(seed)
    specs = []
    for side, inward in ((1e-75, 1.5), (1e75, 2.0 / 3.0)):
        specs += [QuadSpec(side, side, side, side),
                  QuadSpec(side, side * inward, side, side * inward**2)]
    while len(specs) < count:
        spec = specs_or_none(*np.exp(rng.uniform(-5.0, 5.0, 4)).tolist())
        if spec is not None:
            specs.append(spec)
    return specs


def bisected_diagonals(specs, alphas):
    """Oracle: at each row of ``alphas``, its spec's strictly increasing map
    d -> alpha(d) bisected to the last bit, all rows at once."""
    p, q, r, s, lo, hi = (
        np.array([[getattr(spec, name)] for spec in specs]) + 0.0 * alphas
        for name in ("p", "q", "r", "s", "diagonal_min", "diagonal_max")
    )
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        cx = np.clip((p * p + q * q - mid * mid) / (2.0 * p * q), -1.0, 1.0)
        cy = np.clip((r * r + s * s - mid * mid) / (2.0 * r * s), -1.0, 1.0)
        below = np.arccos(cx) + np.arccos(cy) < alphas
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_inversion_holds_across_wide_side_ratios():
    specs = wide_specs(1000, seed=36)
    alphas, inner = [], []
    for spec in specs:
        row = np.linspace(*alpha_range(spec), 101)
        diagonals, _ = area_curve(spec, row)
        assert np.all(np.diff(diagonals) >= 0.0)
        assert diagonals[0] == spec.diagonal_min and diagonals[-1] == spec.diagonal_max
        ax, ay = _angles(spec, diagonals[1:-1])
        assert np.max(np.abs(ax + ay - row[1:-1])) <= 1e-9
        alphas.append(row[1:-1])
        inner.append(diagonals[1:-1])
    # d taken from theta_x (or theta_y) whichever triangle is smaller strays
    # up to 1.4e-12 (9.6e-13) d_max from the oracle on these specs
    oracle = bisected_diagonals(specs, np.array(alphas))
    d_max = np.array([[spec.diagonal_max] for spec in specs])
    assert np.all(np.abs(np.array(inner) - oracle) <= 2e-13 * d_max)


def test_the_zero_radius_ends_raise_no_warning():
    # 2pq - 2rs cos alpha and 2rs sin alpha both vanish at these ends, so the
    # closed form's ratio is 0 / 0 there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert diagonal_from_alpha(UNIT, 0.0).diagonal == 0.0
        spec = QuadSpec(1, 2, 1, 2)
        lo, hi = alpha_range(spec)
        assert lo == 0.0 and diagonal_from_alpha(spec, lo).diagonal == 1.0
        diagonals, areas = area_curve(UNIT, [0.0, math.pi])
        assert diagonals[0] == 0.0 and areas[0] == 0.0


def test_a_scalar_and_an_array_diagonal_give_the_same_angles():
    """``_angles`` squares by products, so a numpy scalar and an array
    give the same bits.  Where the r-s triangle collapses at d_max, the
    one ulp that ``**`` once put between them (pow against a multiply)
    became 2.1e-8 of angle sum, and the array's sum fell outside
    ``alpha_range``."""
    spec = QuadSpec(1.6377816873454762, 2.041299773530519, 1.8771147568098185, 0.5639590567469366)
    d = spec.diagonal_max
    scalar, array = (np.add(*_angles(spec, x)) for x in (np.float64(d), np.array([d])))
    assert scalar.tobytes() == array[0].tobytes() and float(scalar) == alpha_range(spec)[1]
    assert diagonal_from_alpha(spec, float(array[0])).diagonal == d


def test_alpha_range_anchors():
    lo, hi = alpha_range(UNIT)
    assert abs(lo) <= 1e-12 and abs(hi - 2 * math.pi) <= 1e-12

    lo, hi = alpha_range(QuadSpec(1, 1, 2, 2))
    assert abs(lo) <= 1e-12 and abs(hi - 4 * math.pi / 3) <= 1e-12

    lo, hi = alpha_range(QuadSpec(1, 3, 2, 2))
    assert abs(lo - math.pi / 3) <= 1e-12 and abs(hi - 2 * math.pi) <= 1e-12


def test_unit_square_anchors():
    state = diagonal_from_alpha(UNIT, math.pi)
    assert abs(state.diagonal - math.sqrt(2)) <= 1e-12
    assert abs(state.area() - 1.0) <= 1e-12
    assert abs(area_of_alpha(UNIT, math.pi) - 1.0) <= 1e-12

    state = diagonal_from_alpha(UNIT, math.pi / 3)
    assert abs(state.diagonal - math.sqrt(2 - math.sqrt(3))) <= 1e-12
    assert abs(state.area() - 0.5) <= 1e-12

    assert abs(area_of_alpha(UNIT, 0.0)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(sides, sides, sides, sides, st.floats(min_value=0.05, max_value=0.95))
def test_roundtrip_alpha_diagonal(p, q, r, s, t):
    spec = specs_or_none(p, q, r, s)
    if spec is None:
        return
    d0 = spec.diagonal_min + t * (spec.diagonal_max - spec.diagonal_min)
    state = diagonal_from_alpha(spec, oracle_alpha(spec, d0))
    assert abs(state.diagonal - d0) <= 1e-9 * spec.diagonal_max
    by_heron = heron(p, q, d0) + heron(r, s, d0)
    assert abs(state.area() - by_heron) <= 1e-9 * max(1.0, by_heron)


@settings(max_examples=60, deadline=None)
@given(sides, sides, sides, sides)
def test_forward_oracle_congruence(p, q, r, s):
    spec = specs_or_none(p, q, r, s)
    if spec is None:
        return
    for t in (0.1, 0.35, 0.6, 0.85):
        d = spec.diagonal_min + t * (spec.diagonal_max - spec.diagonal_min)
        area = area_of_alpha(spec, oracle_alpha(spec, d))
        expected = heron(spec.p, spec.q, d) + heron(spec.r, spec.s, d)
        assert abs(area - expected) <= 1e-9 * max(1.0, expected)


def test_inversion_is_strictly_monotone():
    spec = QuadSpec(1.1, 0.7, 1.6, 0.9)
    lo, hi = alpha_range(spec)
    alphas = np.linspace(lo, hi, 200)
    diagonals, _ = area_curve(spec, alphas)
    assert np.all(np.diff(diagonals) >= 0)
    inner = diagonals[5:-5]
    assert np.all(np.diff(inner) > 0)


def test_area_curve_matches_scalar_route():
    spec = QuadSpec(0.8, 1.3, 1.1, 0.6)
    lo, hi = alpha_range(spec)
    alphas = np.linspace(lo, hi, 40)
    diagonals, areas = area_curve(spec, alphas)
    for k, alpha in enumerate(alphas):
        state = diagonal_from_alpha(spec, float(alpha))
        assert abs(diagonals[k] - state.diagonal) <= 1e-14
        assert abs(areas[k] - state.area()) <= 1e-14


def test_monotone_up_to_pi_then_down():
    for spec in (UNIT, QuadSpec(1, 1, 2, 2), QuadSpec(1, 3, 2, 2), QuadSpec(0.5, 2.2, 1.4, 0.9)):
        lo, hi = alpha_range(spec)
        alphas = np.linspace(lo, hi, 50)
        _, areas = area_curve(spec, alphas)
        norm = spec.p * spec.q + spec.r * spec.s
        diffs = np.diff(areas) / norm
        left = alphas[1:] <= math.pi
        right = alphas[:-1] >= math.pi
        assert np.all(diffs[left] >= -1e-9)
        assert np.all(diffs[right] <= 1e-9)
        # the maximum sits at alpha = pi
        assert area_of_alpha(spec, math.pi) >= areas.max() - 1e-12


def test_slope_signs_around_pi():
    assert abs(d_area_d_alpha(UNIT, math.pi)) <= 1e-6
    assert d_area_d_alpha(UNIT, math.pi / 2) > 1e-3
    assert d_area_d_alpha(UNIT, 3 * math.pi / 2) < -1e-3


def central_slope(spec, alpha, h):
    """Finite-difference oracle for the closed-form slope."""
    return (area_of_alpha(spec, alpha + h) - area_of_alpha(spec, alpha - h)) / (2 * h)


def test_slope_matches_central_difference():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 60:
        spec = specs_or_none(*rng.uniform(0.3, 3.0, 4))
        if spec is None:
            continue
        lo, hi = alpha_range(spec)
        width = hi - lo
        scale = spec.p * spec.q + spec.r * spec.s
        # Near both ends the curvature grows, so the difference step
        # shrinks with the distance to the end.
        for offset in (1e-2 * width, 1e-3 * width, rng.uniform(0.1, 0.9) * width):
            for alpha in (lo + offset, hi - offset):
                h = 1e-3 * min(alpha - lo, hi - alpha)
                expected = central_slope(spec, alpha, h)
                assert abs(d_area_d_alpha(spec, alpha) - expected) <= 1e-5 * scale
        checked += 1


def test_slope_limit_where_both_triangles_collapse():
    # |p - q| = |r - s| and p + q = r + s: both ends collapse both triangles
    spec = QuadSpec(1.0, 2.0, 1.0, 2.0)
    lo, hi = alpha_range(spec)
    assert d_area_d_alpha(spec, lo) == pytest.approx(1.0, rel=1e-12)
    assert d_area_d_alpha(spec, hi) == pytest.approx(-1.0, rel=1e-12)
    h = 1e-4 * (hi - lo)
    assert d_area_d_alpha(spec, lo + h) == pytest.approx(1.0, rel=1e-6)


def test_alpha_out_of_range():
    with pytest.raises(AlphaOutOfRange):
        diagonal_from_alpha(UNIT, -0.1)
    with pytest.raises(AlphaOutOfRange):
        diagonal_from_alpha(UNIT, 2 * math.pi + 0.1)
    # endpoints and sub-slack overshoots clamp instead of raising
    diagonal_from_alpha(UNIT, 0.0)
    diagonal_from_alpha(UNIT, 2 * math.pi)
    diagonal_from_alpha(UNIT, 2 * math.pi + 1e-12)


def test_pair_swap_symmetry():
    a = QuadSpec(0.7, 1.9, 1.2, 1.4)
    b = QuadSpec(1.2, 1.4, 0.7, 1.9)
    assert alpha_range(a) == alpha_range(b)
    lo, hi = alpha_range(a)
    alphas = np.linspace(lo, hi, 25)
    _, area_a = area_curve(a, alphas)
    _, area_b = area_curve(b, alphas)
    assert np.allclose(area_a, area_b, rtol=0, atol=1e-12)


def test_embed_planar_realizes_the_state():
    spec = QuadSpec(1.2, 0.8, 0.9, 1.5)
    for alpha in (1.2, math.pi, 4.5):
        state = diagonal_from_alpha(spec, alpha)
        pts = embed_planar(state)  # rows a, x, b, y
        assert pts.shape == (4, 3)
        assert np.all(pts[:, 2] == 0.0)
        a, x, b, y = pts
        assert abs(np.linalg.norm(a - x) - spec.p) <= 1e-10
        assert abs(np.linalg.norm(b - x) - spec.q) <= 1e-10
        assert abs(np.linalg.norm(a - y) - spec.r) <= 1e-10
        assert abs(np.linalg.norm(b - y) - spec.s) <= 1e-10
        assert abs(np.linalg.norm(a - b) - state.diagonal) <= 1e-10
        assert x[1] >= 0.0 >= y[1]
        assert abs(shoelace(pts[:, :2]) - state.area()) <= 1e-10
    # the diagonal collapses at the bottom of the family: a and b coincide
    collapsed = diagonal_from_alpha(QuadSpec(1, 1, 2, 2), 0.0)
    assert collapsed.diagonal == 0.0
    a, x, b, y = embed_planar(collapsed)
    assert np.array_equal(a, b)
    assert np.linalg.norm(x - a) == 1.0 and np.linalg.norm(y - a) == 2.0
