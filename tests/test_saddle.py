import json
import math
from itertools import islice

import numpy as np
import pytest

from bench.workloads import grid_disc, wheel_disc
from conftest import (
    affine_weights_by_lstsq,
    affine_weights_reference,
    certificate_reference,
    cutting_direction_reference,
    double_interior_disc,
    fan_disc,
    hinge_disc,
    min_norm_point_by_enumeration,
    min_norm_point_by_lstsq,
    min_norm_point_reference,
    perturbed_grid_disc,
    random_rotation,
    regular_polygon,
    verdict_bits,
)
from discmin import (
    NON_SADDLE,
    SADDLE,
    OptimizerConfig,
    PolyhedralDisc,
    brute_force_cutting_direction,
    certify_saddle,
    cutting_direction,
    minimize,
    random_instance,
    saddle,
)
from discmin.errors import EmptyStar, InvalidInput, InvariantViolation

CONE = np.array([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]], dtype=float)
CROSS = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], dtype=float)


def unit_rows(d):
    d = np.asarray(d, dtype=float)
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def test_cone_star_is_non_saddle():
    v = cutting_direction(CONE)
    assert v.status == NON_SADDLE and not v.is_saddle
    assert abs(v.margin - 1 / math.sqrt(2)) <= 1e-9
    assert np.allclose(v.cut_normal, [0, 0, 1], atol=1e-7)
    assert v.coefficients is None and v.residual is None
    # stored margin is exactly the recomputed one
    recomputed = float(np.min(unit_rows(CONE) @ v.cut_normal))
    assert abs(recomputed - v.margin) <= 1e-12
    assert abs(np.linalg.norm(v.cut_normal) - 1.0) <= 1e-12


def test_cross_star_is_saddle():
    v = cutting_direction(CROSS)
    assert v.status == SADDLE and v.is_saddle
    assert v.cut_normal is None
    lam = v.coefficients
    assert lam is not None
    assert np.all(lam >= 0) and abs(lam.sum() - 1.0) <= 1e-12
    assert v.residual <= 1e-12
    assert np.linalg.norm(lam @ unit_rows(CROSS)) <= 1e-12


def test_single_direction():
    v = cutting_direction(np.array([[0.0, 0.0, 2.0]]))
    assert v.status == NON_SADDLE
    assert abs(v.margin - 1.0) <= 1e-12
    assert np.allclose(v.cut_normal, [0, 0, 1], atol=1e-9)


def test_repeated_direction():
    v = cutting_direction(np.array([[3.0, 0, 0]] * 3))
    assert v.status == NON_SADDLE
    assert abs(v.margin - 1.0) <= 1e-12


def test_antipodal_pair_is_saddle():
    v = cutting_direction(np.array([[0, 0, 1], [0, 0, -1.0]]))
    assert v.is_saddle
    assert v.residual <= 1e-12


def test_invalid_stars():
    with pytest.raises(EmptyStar):
        cutting_direction(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        cutting_direction(np.array([[0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        cutting_direction(np.array([1.0, 2.0, 3.0]))


def test_wolfe_gives_up_after_its_major_cycle_cap(monkeypatch):
    monkeypatch.setattr(saddle, "_MAJOR_CYCLES_PER_POINT", 0)
    with pytest.raises(InvariantViolation, match="did not converge"):
        cutting_direction(CONE)


def c3_stars():
    """The 1000 random stars of acceptance criterion 3."""
    rng = np.random.default_rng(3)
    for _ in range(1000):
        dirs = rng.normal(size=(int(rng.integers(3, 11)), 3))
        yield dirs[np.linalg.norm(dirs, axis=1) > 1e-8]


def wheel_stars():
    """Every interior star of one seeded wheel of each degree 12 to 24."""
    for degree in range(12, 25):
        disc = wheel_disc(degree, np.random.default_rng([0, degree]))
        p = disc.positions
        for v in disc.complex.interior_vertices():
            yield p[list(disc.complex.vertex_star(v))] - p[v]


NEARLY_FLAT_RING = regular_polygon(24)
NEARLY_FLAT_RING[:, 2] = 1e-9 * np.sin(np.arange(24))
DEGENERATE_STARS = [
    regular_polygon(12),
    regular_polygon(24)[:13],  # a closed half ring: the origin is on the hull's edge
    np.repeat(CONE + [0.1, 0.2, 0.0], 4, axis=0),
    np.vstack([CROSS, [[1.0, 1e-9, 0.0]]]),
    np.vstack([CONE, CONE + 1e-10]),
    NEARLY_FLAT_RING,
]


def test_min_norm_point_matches_enumeration_oracle(monkeypatch):
    """Wolfe's algorithm against every support set of at most four
    directions: same verdict, same |p*|, and a cut at least as good."""
    stars = [*c3_stars(), *wheel_stars(), *DEGENERATE_STARS]
    statuses = set()
    for dirs in stars:
        unit = unit_rows(dirs)
        point, lam = saddle._min_norm_point(unit)
        want_point, _ = min_norm_point_by_enumeration(unit)
        assert abs(np.linalg.norm(point) - np.linalg.norm(want_point)) <= 1e-12
        lam = np.array(lam)
        assert np.all(lam >= 0.0) and abs(lam.sum() - 1.0) <= 1e-12
        assert np.count_nonzero(lam) <= 4
        got = cutting_direction(dirs)
        with monkeypatch.context() as m:
            m.setattr(saddle, "_min_norm_point", min_norm_point_by_enumeration)
            want = cutting_direction(dirs)
        assert got.status == want.status
        # the margin certifies only a cut; at a saddle p* is roundoff
        # and so is the direction of its normal
        if not want.is_saddle:
            assert got.margin >= want.margin - 1e-12
        statuses.add(got.status)
    assert len(stars) > 1400 and statuses == {SADDLE, NON_SADDLE}


def random_stars():
    """3,000 seeded random stars of degree 3 to 24."""
    rng = np.random.default_rng(10)
    for _ in range(3000):
        yield rng.normal(size=(int(rng.integers(3, 25)), 3))


def test_min_norm_point_matches_lstsq_oracle(monkeypatch):
    """The closed-form affine step against the numpy solver whose minor
    cycle solves it by lstsq: same verdict, |p*| within 1e-14, and
    convex coefficients on at most four directions."""
    stars = [*c3_stars(), *wheel_stars(), *DEGENERATE_STARS, *random_stars()]
    for dirs in stars:
        unit = unit_rows(dirs)
        point, lam = saddle._min_norm_point(unit.tolist())
        want_point, _ = min_norm_point_by_lstsq(unit)
        assert abs(np.linalg.norm(point) - np.linalg.norm(want_point)) <= 1e-14
        lam = np.array(lam)
        assert np.all(lam >= 0.0) and abs(lam.sum() - 1.0) <= 1e-12
        assert np.count_nonzero(lam) <= 4
        got = cutting_direction(dirs)
        with monkeypatch.context() as m:
            m.setattr(saddle, "_min_norm_point", min_norm_point_by_lstsq)
            want = cutting_direction(dirs)
        assert got.status == want.status
    assert len(stars) == 4487


def test_affine_step_matches_lstsq_on_random_simplices():
    rng = np.random.default_rng(12)
    for size in (1, 2, 3, 4):
        for _ in range(200):
            points = rng.normal(size=(size, 3))
            got = saddle._affine_weights(points.tolist())
            want = affine_weights_by_lstsq(points)
            assert abs(sum(got) - 1.0) <= 1e-12
            assert np.linalg.norm(np.asarray(got) @ points - want @ points) <= 1e-12


def test_affine_step_on_flat_simplices():
    """A repeated point, three collinear points and four coplanar points,
    as given and in rotated frames where roundoff leaves them barely
    non-flat, take the weights of a facet that spans their affine hull:
    one weight is 0 and the weighted point is the exact projection.  In
    the last two the smallest facet is flat too and spans less."""
    rng = np.random.default_rng(13)
    flat = [
        ([[0.6, 0.8, 0.0], [0.6, 0.8, 0.0]], [0.6, 0.8, 0.0]),
        ([[1.0, -1.0, 0.5], [1.0, 0.0, 0.5], [1.0, 2.0, 0.5]], [1.0, 0.0, 0.5]),
        ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [0.0, -2.0, 1.0]], [0.0, 0.0, 1.0]),
        ([[1.0, -1.0, 0.5], [1.0, -1.0, 0.5], [1.0, 2.0, 0.5]], [1.0, 0.0, 0.5]),
        ([[1.0, -1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 2.0, 1.0], [-1.0, 0.5, 1.0]], [0.0, 0.0, 1.0]),
    ]
    for points, projection in flat:
        for rotation in [np.eye(3)] + [random_rotation(rng) for _ in range(10)]:
            rotated = np.asarray(points) @ rotation.T
            weights = saddle._affine_weights(rotated.tolist())
            assert len(weights) == len(points) and 0.0 in weights
            assert abs(sum(weights) - 1.0) <= 1e-12
            assert np.linalg.norm(np.asarray(weights) @ rotated - rotation @ projection) <= 1e-14


def test_rotated_nearly_flat_rings_are_saddle():
    """A ring 1e-6 or 1e-9 out of its plane, turned so that no axis is
    normal to it: Wolfe's final simplex is a flat tetrahedron around the
    origin, whose signed volumes carry roundoff of order 1e-16/h.  Four
    active points stop the search there; the residual is bounded by the
    stopping rule."""
    rng = np.random.default_rng(14)
    for height in (1e-6, 1e-9):
        ring = regular_polygon(24)
        ring[:, 2] = height * np.sin(np.arange(24))
        for _ in range(20):
            verdict = cutting_direction(ring @ random_rotation(rng).T)
            assert verdict.is_saddle and verdict.residual <= 1e-6


def test_saddle_witnesses_meet_eps_saddle():
    """Every saddle verdict stores a residual of at most eps_saddle.  On a
    24-ring with heights uniform in +-1e-6, under 20 seeded rotations,
    the 1e-12 optimality gap alone stops Wolfe's search as far as 6e-7
    from the origin; the search goes on until the verdict is decided.
    The c3, wheel and random stars hold it too, within the cycle cap."""
    rng = np.random.default_rng(1)
    ring = regular_polygon(24)
    ring[:, 2] = rng.uniform(-1e-6, 1e-6, 24)
    rings = [ring @ random_rotation(rng).T for _ in range(20)]
    for dirs in rings:
        verdict = cutting_direction(dirs, 1e-7)
        assert verdict.is_saddle and verdict.residual <= 1e-7
    for dirs in [*c3_stars(), *wheel_stars(), *random_stars()]:
        verdict = cutting_direction(dirs, 1e-7)
        assert not verdict.is_saddle or verdict.residual <= 1e-7


@pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e150, 1e200])
def test_verdict_survives_extreme_scales(scale):
    """Lengths are measured without squaring: a star scaled by 1e+-150 or
    1e+-200 keeps its status, and its margin when non-saddle."""
    stars = [CONE, CROSS, np.eye(3), *islice(c3_stars(), 100)]
    for dirs in stars:
        base, scaled = cutting_direction(dirs), cutting_direction(dirs * scale)
        assert scaled.status == base.status
        if base.is_saddle:
            assert scaled.residual <= 1e-12
        else:
            assert abs(scaled.margin - base.margin) <= 1e-12
    assert abs(cutting_direction(np.eye(3) * scale).margin - 1 / math.sqrt(3)) <= 1e-15
    _, margin = brute_force_cutting_direction(CONE * scale, samples=2000)
    assert abs(margin - brute_force_cutting_direction(CONE, samples=2000)[1]) <= 1e-12


@pytest.mark.parametrize("row", [[np.nan, 0.0, 1.0], [0.0, np.inf, 1.0], [-np.inf, 0.0, np.nan],
                                 [1.7e308, 1.7e308, 0.0]])
def test_non_finite_directions_fail_cleanly(row, capfd):
    dirs = np.vstack([CONE, [row]])
    with pytest.raises(ValueError, match="no finite length"):
        cutting_direction(dirs)
    with pytest.raises(ValueError, match="no finite length"):
        brute_force_cutting_direction(dirs)
    assert capfd.readouterr().err == ""


def test_brute_force_bounds_exact():
    normal, margin = brute_force_cutting_direction(CONE, samples=10_000)
    assert margin <= 1 / math.sqrt(2) + 1e-12
    assert margin >= 1 / math.sqrt(2) - 0.02
    assert normal.shape == (3,)

    _, cross_margin = brute_force_cutting_direction(CROSS, samples=10_000)
    assert cross_margin <= 1e-9

    _, single = brute_force_cutting_direction(np.array([[0, 0, 1.0]]), samples=10_000)
    assert single >= 0.98


def test_duality_on_random_stars():
    rng = np.random.default_rng(5)
    eps = 1e-7
    saddle_count = 0
    for _ in range(300):
        k = int(rng.integers(3, 11))
        dirs = rng.normal(size=(k, 3))
        dirs = dirs[np.linalg.norm(dirs, axis=1) > 1e-8]
        v = cutting_direction(dirs, eps)
        _, t_bf = brute_force_cutting_direction(dirs, samples=2000)
        u = unit_rows(dirs)
        if v.is_saddle:
            saddle_count += 1
            lam = v.coefficients
            assert np.all(lam >= 0) and abs(lam.sum() - 1.0) <= 1e-12
            assert abs(np.linalg.norm(lam @ u) - v.residual) <= 1e-12
            assert v.residual <= eps
            assert t_bf <= eps
        else:
            assert v.margin > eps
            assert abs(np.linalg.norm(v.cut_normal) - 1.0) <= 1e-12
            recomputed = float(np.min(u @ v.cut_normal))
            assert abs(recomputed - v.margin) <= 1e-12
            assert v.margin >= t_bf - 1e-9
    assert 20 < saddle_count < 280


def test_rotation_invariance_of_verdicts():
    rng = np.random.default_rng(8)
    dirs = rng.normal(size=(6, 3))
    base = cutting_direction(dirs)
    for _ in range(20):
        rot = random_rotation(rng)
        v = cutting_direction(dirs @ rot.T)
        assert v.status == base.status
        if base.is_saddle:
            assert abs(v.residual - base.residual) <= 1e-9
        else:
            assert abs(v.margin - base.margin) <= 1e-9


def test_certificate_scale_invariance():
    disc = fan_disc(8, apex=(0.05, -0.02, 0.6))
    base = certify_saddle(disc)
    for scale in (1e-3, 1e3):
        scaled = disc.with_positions(disc.positions * scale)
        cert = certify_saddle(scaled)
        assert cert.saddle == base.saddle
        for a, b in zip(cert.verdicts, base.verdicts):
            assert a.status == b.status
            assert abs(a.margin - b.margin) <= 1e-9


def test_certify_planar_disc_is_saddle():
    disc = fan_disc(10, apex=(0.1, 0.05, 0.0))
    cert = certify_saddle(disc)
    assert cert.saddle
    assert len(cert.verdicts) == 1
    assert cert.verdicts[0].vertex == 10
    assert cert.verdicts[0].is_saddle


def test_certify_cone_apex_non_saddle():
    disc = fan_disc(12, apex=(0.0, 0.0, 0.8))
    cert = certify_saddle(disc)
    assert not cert.saddle
    verdict = cert.verdicts[0]
    assert verdict.vertex == 12
    assert verdict.status == NON_SADDLE
    assert verdict.star == disc.complex.vertex_star(12)
    # the cut must point away from the rim, along -z
    assert verdict.cut_normal[2] < -0.9
    assert verdict.margin > 1e-7


def test_certificate_verdicts_are_cutting_direction_verdicts():
    statuses = set()
    for disc in (perturbed_grid_disc(4, seed=1), perturbed_grid_disc(5, seed=2, subdivisions=3),
                 double_interior_disc(), fan_disc(9, apex=(0.1, 0.0, 0.4))):
        p = disc.positions
        cert = certify_saddle(disc)
        assert [v.vertex for v in cert.verdicts] == list(disc.complex.interior_vertices())
        for verdict in cert.verdicts:
            star = disc.complex.vertex_star(verdict.vertex)
            expected = cutting_direction(p[list(star)] - p[verdict.vertex])
            assert verdict.star == star
            assert (verdict.status, verdict.margin, verdict.residual) == (
                expected.status, expected.margin, expected.residual)
            for got, want in ((verdict.cut_normal, expected.cut_normal),
                              (verdict.coefficients, expected.coefficients)):
                assert (got is None and want is None) or np.array_equal(got, want)
            statuses.add(verdict.status)
    assert statuses == {SADDLE, NON_SADDLE}


def test_certify_no_interior_vertices_vacuous():
    disc = hinge_disc((0, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0))
    cert = certify_saddle(disc)
    assert cert.saddle
    assert cert.verdicts == ()


def test_certificate_dict_schema():
    cert = certify_saddle(fan_disc(6, apex=(0, 0, 0.5)))
    data = cert.to_dict()
    assert set(data) == {"saddle", "eps_saddle", "vertices"}
    assert data["saddle"] is False
    entry = data["vertices"][0]
    assert set(entry) == {
        "id",
        "status",
        "star",
        "normal",
        "margin",
        "lambda",
        "residual",
    }
    assert entry["lambda"] is None and entry["residual"] is None
    assert len(entry["normal"]) == 3
    json.dumps(data)

    flat = certify_saddle(fan_disc(6, apex=(0, 0, 0.0)))
    entry = flat.to_dict()["vertices"][0]
    assert entry["normal"] is None
    assert len(entry["lambda"]) == 6
    json.dumps(flat.to_dict())


# Bitwise agreement with the reference solver and certificate of
# ``conftest``: gathering every star at once, keeping Wolfe's active
# points as a list and writing the closed forms out must not move a bit.


def verdict_tuple(verdict, vertex=()):
    return (*vertex, verdict.status, verdict.margin, verdict.cut_normal,
            verdict.coefficients, verdict.residual)


def reference_discs():
    """The certify wheels at seeds 0-3, and grids and fans as
    ``minimize`` leaves them, with the certificate of each run."""
    for seed in range(4):
        for degree in (12, 16, 20, 24):
            yield wheel_disc(degree, np.random.default_rng([seed, degree])), None
    runs = [(grid_disc(n, np.random.default_rng([0, n])), 12) for n in (4, 6)]
    runs += [(random_instance(m, nonplanarity=0.3, seed=m), 10000) for m in (6, 9, 12)]
    for disc, cap in runs:
        yield minimize(disc, OptimizerConfig(max_outer_iterations=cap))


def test_certificates_match_the_reference_bit_for_bit():
    statuses = set()
    for disc, trace in reference_discs():
        want = [verdict_bits(v) for v in certificate_reference(disc)]
        certificates = [certify_saddle(disc)] + ([] if trace is None else [trace.certificate])
        for cert in certificates:
            got = [verdict_bits(verdict_tuple(v, (v.vertex, v.star))) for v in cert.verdicts]
            assert got == want
            statuses.update(v.status for v in cert.verdicts)
    assert statuses == {SADDLE, NON_SADDLE}


def random_scaled_stars(scale):
    """300 seeded random stars of degree 3 to 24 times ``scale``, or with
    every row scaled by its own 10**u, u uniform in [-200, 200], when
    ``scale`` is None."""
    rng = np.random.default_rng(19)
    for _ in range(300):
        dirs = rng.normal(size=(int(rng.integers(3, 25)), 3))
        if scale is None:
            yield dirs * 10.0 ** rng.uniform(-200, 200, (len(dirs), 1))
        else:
            yield dirs * scale


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1.0, 1e100, 1e200, None])
def test_cutting_direction_matches_the_reference_bit_for_bit(scale):
    stars = [*random_scaled_stars(scale)]
    if scale == 1.0:
        stars += [*islice(wheel_stars(), 300), *DEGENERATE_STARS, CONE, CROSS]
    for dirs in stars:
        got, want = cutting_direction(dirs), cutting_direction_reference(dirs)
        assert verdict_bits(verdict_tuple(got)) == verdict_bits(want)
        unit = saddle._unit_directions(dirs)
        (point, lam), (want_point, want_lam) = (
            saddle._min_norm_point(unit), min_norm_point_reference(unit))
        assert verdict_bits((np.array(point), np.array(lam))) == verdict_bits(
            (np.array(want_point), want_lam))


def test_affine_weights_match_the_reference_bit_for_bit():
    """Random simplices of one to four points at scales 1e-200 to 1e200,
    and flat ones: repeated points, collinear and coplanar points, as
    given and rotated."""
    rng = np.random.default_rng(20)
    simplices = []
    for scale in (1e-200, 1e-8, 1.0, 1e8, 1e200):
        for size in (1, 2, 3, 4):
            simplices += [rng.normal(size=(size, 3)) * scale for _ in range(200)]
    for _ in range(100):
        a, b, c = rng.normal(size=(3, 3))
        t = rng.normal(size=3)
        rot = random_rotation(rng)
        flats = [[a, a], [a, a, b], [a, b, b], [a, a, a], [a, b, a, c], [a, a, a, a],
                 [a + t[0] * (b - a), a, b], [a, b, a + t[1] * (b - a), c],
                 [a, b, c, a + t[0] * (b - a) + t[1] * (c - a)]]
        simplices += [np.array(f) for f in flats] + [np.array(f) @ rot.T for f in flats]
    for simplex in simplices:
        points = [tuple(p) for p in simplex.tolist()]
        got, want = saddle._affine_weights(points), affine_weights_reference(points)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def flat_switch(simplex_at, top: float) -> tuple[float, float]:
    """Adjacent floats lo < hi between 0 and ``top`` such that the
    reference takes the flat branch for ``simplex_at(lo)``, inserting an
    exact 0 weight for the point it leaves out, and the closed form for
    ``simplex_at(hi)``, found by bisection."""
    def flat(h):
        return 0.0 in affine_weights_reference(simplex_at(h))

    lo, hi = 0.0, top
    assert flat(lo) and not flat(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if flat(mid) else (lo, mid)
    return lo, hi


@pytest.mark.parametrize("size", [3, 4])
def test_affine_weights_match_the_reference_at_the_flat_switch(size):
    """Random simplices never come near the flat test, which compares a
    squared area or volume with _FLAT**2 times a product of squared edge
    lengths.  Here each of 200 seeded triangles or tetrahedra has its
    last point lifted by h off the plane z = z0 that holds the others
    (for a triangle, its xy on the line of the first two).  z0 is about
    1e-16, below the lifts at the switch (about 1e-14), so that h is
    resolved to an ulp, and nonzero, so that the origin is off the plane
    and every closed-form weight is nonzero.  Bisection finds the
    adjacent lifts where the reference switches branch, and on both
    sides the weights must be the reference's bit for bit.  A threshold
    product associated in another order moves the switch and fails
    here."""
    rng = np.random.default_rng(21)
    for _ in range(200):
        base = rng.normal(size=(size, 3))
        base[:, 2] = z0 = rng.uniform(1.0, 2.0) * 1e-16
        if size == 3:
            base[2] = base[0] + rng.uniform(-2.0, 2.0) * (base[1] - base[0])
        points = [tuple(p) for p in base.tolist()]
        x, y, _ = points[-1]

        def simplex_at(h):
            return points[:-1] + [(x, y, z0 + h)]

        lo, hi = flat_switch(simplex_at, 1e-6)
        assert hi == np.nextafter(lo, 1.0)
        for h in (lo, hi):
            got = saddle._affine_weights(simplex_at(h))
            want = affine_weights_reference(simplex_at(h))
            assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("disc", [wheel_disc(24, np.random.default_rng([0, 24])),
                                  grid_disc(4, np.random.default_rng([0, 4]))],
                         ids=["wheel", "grid"])
def test_a_certificate_tests_each_star_through_cutting_direction(disc, monkeypatch):
    """The benchmark times stars by degree through the name
    ``saddle.cutting_direction``: a certificate calls it exactly once
    per interior vertex, in order, on that vertex's star."""
    degrees = []
    real = saddle.cutting_direction

    def counted(directions, eps_saddle):
        degrees.append(len(directions))
        return real(directions, eps_saddle)

    monkeypatch.setattr(saddle, "cutting_direction", counted)
    cert = certify_saddle(disc)
    interior = disc.complex.interior_vertices()
    assert [v.vertex for v in cert.verdicts] == list(interior)
    assert degrees == [len(disc.complex.vertex_star(v)) for v in interior]


def test_a_zero_length_direction_fails_as_in_the_reference():
    """With eps_deg = 0 an apex may sit on a rim vertex: the certificate
    raises the reference's exception, with its message."""
    disc = fan_disc(6)
    positions = np.array(disc.positions)
    positions[6] = positions[0]
    flat = PolyhedralDisc(disc.complex, positions, eps_deg=0.0)
    with pytest.raises(InvalidInput) as want:
        certificate_reference(flat)
    with pytest.raises(InvalidInput) as got:
        certify_saddle(flat)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
