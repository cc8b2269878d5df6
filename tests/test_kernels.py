"""The minimize loop's kernels against their earlier numpy forms, bit for bit.

The hinge kernel, ``triangle_areas``, the sweep's Newton step and the
flip selection of ``flip_pass`` each make fewer numpy calls than the
references in ``conftest`` but must give every float they give.  The
discs that flips and sweeps build from state they already checked, not
validating it again, must equal the validated discs bit for bit, and
the complexes that flips assemble from edited tables must equal a
rebuild of their triangles field for field.  The
checks run on the acceptance-c4 fans, the grid workload's discs,
``perturbed_grid_disc`` draws and random hinge stacks, and along whole
``minimize`` runs on them, so a kernel whose bits depend on the SIMD
path numpy dispatches fails here as well as in the digests.
"""

from unittest import mock

import numpy as np
import pytest

from bench.workloads import grid_disc
from conftest import (
    assert_assembled_as_rebuilt,
    checked_discs_match_validation,
    fan_disc,
    flip_pass_sorting_every_hinge,
    hexagon_with_violation,
    hinge_rows_three_gathers,
    newton_step_reference,
    perturbed_grid_disc,
    same_bits,
    star_area_by_arrays,
    triangle_areas_by_columns,
)
from discmin import OptimizerConfig, PolyhedralDisc, build_from_triangles, flip_pass, minimize
from discmin import can_flip, certify_saddle, flip, reduce_fan, vertex_descent_step
from discmin import flips, mesh, optimize, random_instance
from discmin.errors import DegenerateTriangle, DegenerationBlocked, InvariantViolation

FANS = {f"c4_fan{s}": random_instance(8 + s % 9, nonplanarity=0.3, seed=s) for s in range(20)}
GRIDS = {f"grid_n{n}": grid_disc(n, np.random.default_rng([0, n])) for n in (4, 6, 8)}
PERTURBED = {
    f"perturbed{s}": perturbed_grid_disc(3 + s % 4, seed=s, subdivisions=s % 5) for s in range(8)
}


def rough_grid_disc(s: int) -> PolyhedralDisc:
    """``perturbed_grid_disc`` draw ``s`` with every vertex moved by seeded
    noise, the rim too, whose flip passes unsettle hinges that the pass
    found eligible: at s = 15 a flip lifts a neighbouring hinge's sigma
    above the threshold."""
    disc = perturbed_grid_disc(3 + s % 4, seed=s, subdivisions=s % 5)
    noise = np.random.default_rng(s).normal(size=disc.positions.shape) * [0.2, 0.2, 1.0]
    return PolyhedralDisc(disc.complex, disc.positions + noise)


ROUGH = {f"rough{s}": rough_grid_disc(s) for s in (3, 15)}
DISCS = {**FANS, **GRIDS, **PERTURBED, **ROUGH}


def hinge_points(disc):
    """The (4, n, 3) points a, b, x, y of every interior hinge of ``disc``."""
    cx = disc.complex
    interior = cx.opposite_array[:, 1] >= 0
    rows = np.concatenate((cx.edge_array, cx.opposite_array), axis=1)[interior]
    return disc.positions[rows.T]


def assert_hinge_rows(q):
    got, expected = flips._hinge_rows(q), hinge_rows_three_gathers(q)
    assert all(same_bits(g, e) for g, e in zip(got, expected)), q.shape


def test_hinge_kernel_matches_the_three_gather_form_on_random_stacks():
    rng = np.random.default_rng(22)
    for n in range(1, 2001):
        assert_hinge_rows(rng.normal(size=(4, n, 3)))
    for scale in 10.0 ** np.arange(-6, 7):
        for n in (1, 2, 3, 5, 8, 13, 100, 777, 2000):
            assert_hinge_rows(scale * rng.normal(size=(4, n, 3)))


@pytest.mark.parametrize("disc", DISCS.values(), ids=list(DISCS))
def test_hinge_kernel_matches_the_three_gather_form_on_discs(disc):
    assert_hinge_rows(hinge_points(disc))


@pytest.mark.parametrize("disc", DISCS.values(), ids=list(DISCS))
def test_triangle_areas_match_the_per_column_form(disc):
    triangles = disc.complex.triangle_array
    assert same_bits(disc._areas, triangle_areas_by_columns(disc.positions, triangles))
    rng = np.random.default_rng(len(triangles))
    for scale in 10.0 ** np.arange(-6, 7):
        positions = scale * rng.normal(size=disc.positions.shape)
        assert same_bits(mesh.triangle_areas(positions, triangles),
                         triangle_areas_by_columns(positions, triangles))


def test_the_one_loop_areas_match_area_rows():
    """``mesh._areas``, the loop behind a trial's star, a flip's two new
    faces and a fan reduction's flat face, gives the floats of
    ``area_rows`` bit for bit, on seeded triangles at scales from 1e-60 to 1e60."""
    rng = np.random.default_rng(38)
    triangles = rng.integers(0, 50, (500, 3))
    for scale in 10.0 ** np.arange(-60, 61, 5):
        positions = scale * rng.normal(size=(50, 3))
        corners = positions[triangles]
        expected = mesh.area_rows(corners[:, 0], corners[:, 1], corners[:, 2])
        assert same_bits(mesh._areas(positions.tolist(), triangles.tolist()), expected)


def assert_newton_steps(sweep, r0, r1, g, step):
    """The gradients and steps of rows ``r0`` to ``r1`` of ``sweep``
    against the numpy oracle and ``newton_step_reference``, star by star;
    a zero gradient, which has no reference step, has a zero step."""
    for r in range(r0, r1):
        _, gradient, hessian = star_area_by_arrays(sweep, sweep.stars.vertices[r])
        assert same_bits(g[r - r0], gradient)
        expected = newton_step_reference(hessian, gradient)
        assert not step[r - r0].any() if expected is None else same_bits(step[r - r0], expected)


@pytest.mark.parametrize("disc", DISCS.values(), ids=list(DISCS))
def test_newton_steps_match_the_trace_and_eye_form(disc):
    """Every interior vertex's step from one batched call, and each colour
    class's from its own."""
    stars = optimize._sweep_stars(disc.complex)
    sweep = optimize._Sweep(disc, stars)
    for r0, r1 in [(0, len(stars.vertices)), *stars.classes]:
        sweep._newton = None
        assert_newton_steps(sweep, r0, r1, *sweep.newton(r0, r1))


def test_a_zero_gradient_has_no_newton_step():
    # a flat square fan: every float of the gradient sums to zero exactly
    positions = [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 0]]
    disc = PolyhedralDisc(build_from_triangles([(i, (i + 1) % 4, 4) for i in range(4)]), positions)
    g, step = optimize._Sweep(disc, optimize._sweep_stars(disc.complex)).newton(0, 1)
    assert not g.any() and not step.any()
    assert newton_step_reference(star_area_by_arrays(disc, 4)[2], g[0]) is None


def assert_flip_pass_matches_sorting(disc, *args, **kwargs):
    """``flip_pass`` against ``flip_pass_sorting_every_hinge``: the same
    triangles and cap flag, and the same records (edge, diagonal, and
    sigma and gain bit for bit).  Returns the result."""
    result = flip_pass(disc, *args, **kwargs)
    expected = flip_pass_sorting_every_hinge(disc, *args, **kwargs)
    assert result.disc.complex.triangles == expected.disc.complex.triangles
    assert result.cap_exceeded == expected.cap_exceeded
    assert [(r.edge, r.diagonal) for r in result.flips] == [(r.edge, r.diagonal)
                                                            for r in expected.flips]
    for field in ("sigma", "area_decrease"):
        assert same_bits([getattr(r, field) for r in result.flips],
                         [getattr(r, field) for r in expected.flips])
    assert (result.disc is disc) == (not result.flips)
    return result


@pytest.mark.parametrize("disc", DISCS.values(), ids=list(DISCS))
def test_flip_pass_matches_the_sort_all_form(disc):
    assert_flip_pass_matches_sorting(disc)
    for cap in (0, 1, 3):
        assert_flip_pass_matches_sorting(disc, cap=cap)


@pytest.mark.parametrize("disc", DISCS.values(), ids=list(DISCS))
def test_minimize_runs_match_the_references_at_every_call(disc, monkeypatch):
    """Each flip pass, Newton step and validated disc of a whole run
    against its reference."""
    checked = {"flip_pass": 0, "newton": 0, "triangle_areas": 0}
    newton, triangle_areas = optimize._Sweep.newton, mesh._triangle_areas

    def checked_flip_pass(*args, **kwargs):
        checked["flip_pass"] += 1
        return assert_flip_pass_matches_sorting(*args, **kwargs)

    def checked_newton(sweep, r0, r1):
        g, step = newton(sweep, r0, r1)
        assert_newton_steps(sweep, r0, r1, g, step)
        checked["newton"] += 1
        return g, step

    def checked_triangle_areas(positions, triangles):
        areas = triangle_areas(positions, triangles)
        assert same_bits(areas, triangle_areas_by_columns(positions, triangles))
        checked["triangle_areas"] += 1
        return areas

    monkeypatch.setattr(optimize, "flip_pass", checked_flip_pass)
    monkeypatch.setattr(optimize._Sweep, "newton", checked_newton)
    monkeypatch.setattr(mesh, "_triangle_areas", checked_triangle_areas)
    minimize(disc, OptimizerConfig(max_outer_iterations=12))
    assert min(checked.values()) > 0, checked


def test_a_pass_with_no_eligible_hinge_builds_no_table():
    disc = fan_disc(6)
    with mock.patch.object(flips, "_edge_table", wraps=flips._edge_table) as edge_table:
        result = flip_pass(disc)
        assert result.disc is disc and result.flips == () and not result.cap_exceeded
        assert not flip_pass(disc, cap=0).cap_exceeded
        assert edge_table.call_count == 0
        # a pass with an eligible hinge builds the table once
        assert flip_pass(GRIDS["grid_n4"]).flips
        assert edge_table.call_count == 1


@pytest.mark.parametrize("disc", DISCS.values(), ids=list(DISCS))
def test_flipped_complexes_equal_a_rebuild_field_for_field(disc):
    """The complex of a flip pass, capped and not, and of every flip the
    disc admits: each assembled from edited tables, not rebuilt."""
    for cap in (None, 0, 1, 3):
        assert_assembled_as_rebuilt(flip_pass(disc, cap=cap).disc)
    for e in disc.complex.interior_edges():
        if can_flip(disc, e):
            try:
                assert_assembled_as_rebuilt(flip(disc, e))
            except DegenerateTriangle:
                continue


@pytest.mark.parametrize("name", ["c4_fan3", "grid_n6", "perturbed4", "rough15"])
def test_a_pass_of_k_flips_measures_k_plus_one_times_and_builds_nothing(name):
    """The first scan and one re-measurement per flip are the kernel
    calls, capped or not; neither a flip pass nor a fan reduction calls
    ``build_from_triangles``, which ``flips`` does not even bind."""
    disc, hexagon = DISCS[name], hexagon_with_violation()
    with mock.patch.object(flips, "_hinge_rows", wraps=flips._hinge_rows) as kernel, \
            mock.patch.object(mesh, "build_from_triangles", wraps=build_from_triangles) as build:
        for cap in (None, 2):
            kernel.reset_mock()
            result = flip_pass(disc, cap=cap)
            assert result.flips and kernel.call_count == len(result.flips) + 1
        assert build.call_count == 0
        reduce_fan(hexagon, (0, 2, 4))
        assert build.call_count == 0
    assert not hasattr(flips, "build_from_triangles")


def test_the_trial_at_the_cap_leaves_the_tables_unchanged():
    """The trial edit past the cap works on shallow copies: the tables
    the pass assembles from are those after its last flip, and the
    trial's own are other objects."""
    edits, assemblies = [], []
    flip_edit, assembled = flips._flip_edit, flips._assembled

    def recorded_edit(triangles, table, *rest):
        edits.append((triangles, table, list(triangles), dict(table)))
        return flip_edit(triangles, table, *rest)

    def recorded_assembly(disc, triangles, table, *rest):
        assemblies.append((triangles, table))
        return assembled(disc, triangles, table, *rest)

    with mock.patch.object(flips, "_flip_edit", recorded_edit), \
            mock.patch.object(flips, "_assembled", recorded_assembly):
        result = flip_pass(GRIDS["grid_n8"], cap=3)
    assert result.cap_exceeded and len(result.flips) == 3
    (triangles, table), = assemblies
    passed = [e for e in edits if e[0] is triangles and e[1] is table]
    trials = edits[len(passed):]
    assert len(passed) >= 3 and trials and all(e is p for e, p in zip(edits, passed))
    for trial_triangles, trial_table, before_triangles, before_table in trials:
        assert trial_triangles is not triangles and trial_table is not table
        assert before_triangles == triangles and before_table == table


@pytest.mark.parametrize("disc", DISCS.values(), ids=list(DISCS))
def test_checked_discs_of_a_run_match_validation(disc):
    """Every disc a 12-iteration run builds from carried-over state: the
    fan reductions', the flip passes' and the sweeps'."""
    with checked_discs_match_validation() as checked:
        minimize(disc, OptimizerConfig(max_outer_iterations=12))
    assert checked


@pytest.mark.parametrize("disc", DISCS.values(), ids=list(DISCS))
def test_checked_discs_of_flips_and_descent_steps_match_validation(disc):
    """A flip pass, every flip the disc admits, and a cut move at each
    non-saddle vertex each build one disc from carried-over state."""
    cx = disc.complex
    with checked_discs_match_validation() as checked:
        passed = flip_pass(disc)
        flipped = 0
        for e in cx.interior_edges():
            if can_flip(disc, e):
                try:
                    flip(disc, e)
                except DegenerateTriangle:
                    continue
                flipped += 1
        assert len(checked) == bool(passed.flips) + flipped
        cut = [v.vertex for v in certify_saddle(disc).verdicts if not v.is_saddle]
        for v in cut:
            try:
                moved, decrease = vertex_descent_step(disc, v)
            except DegenerationBlocked:
                continue
            assert (moved is checked[-1]) == (decrease > 0.0)
    assert flipped
    assert not cut or len(checked) > bool(passed.flips) + flipped


@pytest.mark.parametrize("name", ["c4_fan0", "grid_n4", "perturbed5", "rough15"])
def test_sweeps_that_move_past_the_box_build_the_validated_disc(name):
    """Each interior vertex in turn goes past the box, which leaves the
    diameter of the pinned boundary as it was, and the disc is built;
    then back to where it was."""
    disc = DISCS[name]
    sweep = optimize._Sweep(disc, optimize._Stars(disc.complex, disc.complex.interior_vertices()))
    with checked_discs_match_validation() as checked:
        for r, v in enumerate(sweep.stars.vertices):
            start = tuple(sweep.positions[v].tolist())
            for point in (tuple((sweep.positions[v] + [0.0, 0.0, disc.diameter]).tolist()), start):
                sweep.apply(r, (point, sweep.trial(r, point)))
                assert sweep.disc().diameter == disc.diameter
    assert len(checked) == 2 * len(disc.complex.interior_vertices())


def test_a_checked_disc_below_the_floor_is_a_defect():
    disc = FANS["c4_fan0"]
    areas = disc._areas.copy()
    areas[3] = 0.0
    with pytest.raises(InvariantViolation, match="area floor"):
        disc._derived(disc.complex, disc.positions.copy(), areas)
