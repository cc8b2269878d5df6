import json
import math

import numpy as np
import pytest

from conftest import (
    double_interior_disc,
    fan_disc,
    hinge_disc,
    perturbed_grid_disc,
    random_rotation,
)
from discmin import (
    NON_SADDLE,
    SADDLE,
    brute_force_cutting_direction,
    certify_saddle,
    cutting_direction,
)
from discmin.errors import EmptyStar

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
