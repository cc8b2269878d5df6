"""The error contract: every error the library raises is a DiscminError,
and a malformed argument raises InvalidInput, which is a ValueError too."""

import os
from pathlib import Path

import numpy as np
import pytest

import discmin
from conftest import fan_disc
from discmin import (
    DiscminError,
    InvalidInput,
    OptimizerConfig,
    PolyhedralDisc,
    QuadSpec,
    alpha_range,
    area_curve,
    area_of_alpha,
    brute_force_cutting_direction,
    build_from_triangles,
    bulk_hinges,
    can_flip,
    certify_saddle,
    cutting_direction,
    d_area_d_alpha,
    diagonal_from_alpha,
    dumps_obj,
    edge_length_area_derivative,
    edge_length_area_gradient,
    embed_planar,
    flat_convex_check,
    flat_convex_quad,
    flip,
    flip_pass,
    hinge_from_points,
    loads_obj,
    make_tent,
    measure_hinge,
    minimize,
    position_area_gradient,
    random_instance,
    reduce_fan,
    save_obj,
    triangle_areas,
    vertex_descent_step,
)

FAN = fan_disc(6)
TRIANGLE = build_from_triangles([(0, 1, 2)])
# an 8-gon fan: rim vertices 0 to 7 and the apex 8
RIM = random_instance(8, 0.3, seed=1)
# Unchecked, a NaN eps_saddle leaves Wolfe's search undecided until its
# major-cycle cap on this star and on the 8-fan's apex, and a negative
# eps_flip flips the 8-gon's hinges back and forth until the flip cap.
STAR = np.array([[1, 0, 0.2], [-1, 0, 0.2], [0, 1, 0.2], [0, -1, 0.2]])
UNIT = QuadSpec(1.0, 1.0, 1.0, 1.0)
# Two hinges, stacked as bulk_hinges takes them: a, b, x, y of shape (2, 3) each.
HINGES = np.array([[[0, 0, 0], [1, 0, 0]], [[1, 1, 0], [1, 0, 1]],
                   [[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]]], dtype=float)
# Unchecked, this hinge's gain overflows to NaN; PolyhedralDisc refuses its positions.
HUGE_HINGE = np.array([[0, 0, 0], [1e200, 0, 0], [0, 1e200, 0], [0, -1e200, 1]])

BAD_ARGUMENTS = {
    "triangle of two vertices": lambda: build_from_triangles([(0, 1)]),
    "fractional vertex id": lambda: build_from_triangles([(0, 1, 2.7)]),
    "negative vertex id": lambda: build_from_triangles([(-1, 0, 1)]),
    "repeated vertex": lambda: build_from_triangles([(0, 1, 1)]),
    "empty triangle list": lambda: build_from_triangles([]),
    "edge query off the complex": lambda: FAN.complex.is_interior_edge(0, 3),
    "edge query with a string vertex": lambda: FAN.complex.is_interior_edge("a", 1),
    "star of a vertex out of range": lambda: FAN.complex.vertex_star(7),
    "star of a fractional vertex": lambda: FAN.complex.vertex_star(1.5),
    "move of a negative vertex": lambda: FAN.moved(-1, (0.0, 0.0, 0.0)),
    "move of a vertex out of range": lambda: FAN.moved(99, (0.0, 0.0, 0.0)),
    "edge length to a negative vertex": lambda: FAN.edge_length(0, -1),
    "edge length to a vertex out of range": lambda: FAN.edge_length(0, 99),
    "area of a negative triangle index": lambda: FAN.triangle_area(-1),
    "area of a triangle index out of range": lambda: FAN.triangle_area(99),
    "area of a fractional triangle index": lambda: FAN.triangle_area(1.5),
    "angle in a negative triangle index": lambda: FAN.angle_at(-1, 6),
    "triangle list a bare integer": lambda: build_from_triangles(5),
    "triangle a bare integer": lambda: build_from_triangles([5]),
    "fan reduction of a bare integer": lambda: reduce_fan(FAN, 5),
    "positions of the wrong shape": lambda: PolyhedralDisc(TRIANGLE, np.zeros((2, 3))),
    "non-finite position": lambda: PolyhedralDisc(TRIANGLE, [[0, 0, 0], [1, 0, 0], [0, np.nan, 0]]),
    # unchecked, a NaN floor refuses nothing: every area < nan is False
    "NaN eps_deg": lambda: PolyhedralDisc(TRIANGLE, np.eye(3), float("nan")),
    "negative eps_deg": lambda: PolyhedralDisc(TRIANGLE, np.eye(3), -1.0),
    "string eps_deg": lambda: PolyhedralDisc(TRIANGLE, np.eye(3), "x"),
    "eps_deg None": lambda: PolyhedralDisc(TRIANGLE, np.eye(3), None),
    "eps_deg True": lambda: PolyhedralDisc(TRIANGLE, np.eye(3), True),
    "angle at a vertex off the triangle": lambda: FAN.angle_at(0, 3),
    "positions a string": lambda: PolyhedralDisc(RIM.complex, "abc"),
    "positions with a ragged row": lambda: PolyhedralDisc(
        RIM.complex, [*RIM.positions[:-1].tolist(), [0.0, 1.0]]
    ),
    "positions a dict": lambda: PolyhedralDisc(RIM.complex, {}),
    "complex positions": lambda: PolyhedralDisc(RIM.complex, RIM.positions + 0j),
    "boolean positions": lambda: PolyhedralDisc(TRIANGLE, np.eye(3, dtype=bool)),
    "complex None": lambda: PolyhedralDisc(None, RIM.positions),
    "complex a triangle list": lambda: PolyhedralDisc([(0, 1, 2)], np.eye(3)),
    "move to two coordinates": lambda: RIM.moved(8, (1, 2)),
    "move to a string": lambda: RIM.moved(8, "abc"),
    "move to a complex point": lambda: RIM.moved(8, (0.0, 0.0, 1j)),
    "move to a numeric string": lambda: RIM.moved(8, ("0", "0", "1")),
    "area of a triple with a negative vertex": lambda: RIM.triangle_area((0, 1, -1)),
    "area of a triple with a vertex out of range": lambda: RIM.triangle_area((0, 1, 99)),
    "area of a triple with a fractional vertex": lambda: RIM.triangle_area((0, 1, 1.5)),
    "area of a pair": lambda: RIM.triangle_area((0, 1)),
    "area of a triple with a repeated vertex": lambda: RIM.triangle_area((0, 1, 1)),
    "angle in a triple with a negative vertex": lambda: RIM.angle_at((0, 1, -1), 0),
    "angle in a triple with a vertex out of range": lambda: RIM.angle_at((0, 1, 99), 0),
    "angle in a pair": lambda: RIM.angle_at((0, 1), 0),
    "angle at vertex True": lambda: FAN.angle_at(0, True),
    "angle at a float vertex": lambda: FAN.angle_at(0, 1.0),
    "boundary query of vertex True": lambda: FAN.complex.is_boundary_vertex(True),
    "boundary query of a negative vertex": lambda: FAN.complex.is_boundary_vertex(-1),
    "boundary query of a vertex out of range": lambda: FAN.complex.is_boundary_vertex(10**9),
    "boundary query of a fractional vertex": lambda: FAN.complex.is_boundary_vertex(1.5),
    "config value": lambda: OptimizerConfig(max_outer_iterations=0),
    "unknown config key": lambda: OptimizerConfig.from_dict({"budget": 10}),
    "config not an object": lambda: OptimizerConfig.from_dict([]),
    "removed line_search key": lambda: OptimizerConfig.from_dict({"line_search": {}}),
    "config keys of mixed types": lambda: OptimizerConfig.from_dict({1: 2, "a": 3}),
    "descent at a boundary vertex": lambda: vertex_descent_step(FAN, 0),
    "descent at a fractional vertex": lambda: vertex_descent_step(FAN, 6.5),
    "edge gradient at a boundary vertex": lambda: edge_length_area_gradient(FAN, 0),
    "rim of two vertices": lambda: random_instance(2),
    "fractional rim": lambda: random_instance(3.5),
    "negative seed": lambda: random_instance(8, seed=-1),
    "hinge off the complex": lambda: measure_hinge(FAN, (0, 3)),
    "hinge of three vertices": lambda: measure_hinge(FAN, (0, 1, 2)),
    "flip of one vertex": lambda: flip(FAN, (0,)),
    "flip check of a bare vertex": lambda: can_flip(FAN, 5),
    "flat convex check of three vertices": lambda: flat_convex_check(FAN, (0, 1, 2)),
    "edge derivative of three vertices": lambda: edge_length_area_derivative(FAN, (0, 1, 2)),
    "triple with a repeated vertex": lambda: reduce_fan(FAN, (0, 0, 2)),
    "fractional triple": lambda: reduce_fan(FAN, (0, 2, 4.9)),
    "directions not k x 3": lambda: cutting_direction(np.ones(3)),
    "zero-length direction": lambda: cutting_direction(np.zeros((1, 3))),
    "non-finite direction": lambda: cutting_direction([[np.inf, 0.0, 0.0]]),
    "NaN eps_saddle": lambda: cutting_direction(STAR, float("nan")),
    "negative eps_saddle": lambda: cutting_direction(STAR, -1e-7),
    "NaN eps_saddle to certify": lambda: certify_saddle(fan_disc(8, apex=(0, 0, 0.6)), np.nan),
    "NaN eps_saddle to certify no interior vertex": lambda: certify_saddle(
        PolyhedralDisc(TRIANGLE, np.eye(3)), np.nan
    ),
    "negative eps_flip": lambda: flip_pass(random_instance(8, seed=1), -10.0),
    "NaN eps_flip": lambda: flip_pass(random_instance(8, seed=1), float("nan")),
    "string eps_flip": lambda: flip_pass(FAN, "1e-9"),
    "string flip cap": lambda: flip_pass(FAN, cap="3"),
    "negative flip cap": lambda: flip_pass(FAN, cap=-1),
    "fractional flip cap": lambda: flip_pass(FAN, cap=2.5),
    "position gradient at a vertex out of range": lambda: position_area_gradient(fan_disc(8), 99),
    "position gradient at a fractional vertex": lambda: position_area_gradient(FAN, 6.5),
    "hinge rows of unequal count": lambda: bulk_hinges(*HINGES[:3], HINGES[3, :1]),
    "hinge rows of two coordinates": lambda: bulk_hinges(*HINGES[:, :, :2]),
    "hinge points not stacked": lambda: bulk_hinges(*HINGES[:, 0]),
    "hinge rows of strings": lambda: bulk_hinges(*HINGES.astype(str)),
    "a string for hinge rows": lambda: bulk_hinges("abc", *HINGES[1:]),
    "NaN in hinge rows": lambda: bulk_hinges(*np.where(HINGES == 1.0, np.nan, HINGES)),
    "infinite hinge row": lambda: bulk_hinges(*HINGES[:3], np.full((2, 3), np.inf)),
    "hinge point of two coordinates": lambda: hinge_from_points((0, 0), *HINGES[1:, 0]),
    "NaN hinge point": lambda: hinge_from_points(*HINGES[:3, 0], (0.0, np.nan, 1.0)),
    "hinge point a string": lambda: hinge_from_points("0 0 0", *HINGES[1:, 0]),
    "hinge point past the coordinate bound": lambda: hinge_from_points(*HUGE_HINGE),
    "hinge rows past the coordinate bound": lambda: bulk_hinges(*HUGE_HINGE[:, None]),
    "quad point past the coordinate bound": lambda: flat_convex_quad(*HUGE_HINGE),
    "NaN quad point": lambda: flat_convex_quad(*HINGES[:3, 0], (0.0, np.nan, 1.0)),
    "quad point a string": lambda: flat_convex_quad("0 0 0", *HINGES[1:, 0]),
    "no lattice samples": lambda: brute_force_cutting_direction(STAR, samples=0),
    "negative lattice samples": lambda: brute_force_cutting_direction(STAR, samples=-1),
    "fractional lattice samples": lambda: brute_force_cutting_direction(STAR, samples=1.5),
    "infinite eps_area": lambda: OptimizerConfig(eps_area=float("inf")),
    "negative eps_area": lambda: OptimizerConfig(eps_area=-1.0),
    "string side length": lambda: QuadSpec("a", 1, 1, 1),
    "side length None": lambda: QuadSpec(None, 1, 1, 1),
    "side length True": lambda: QuadSpec(True, 1, 1, 1),
    "string alpha": lambda: diagonal_from_alpha(UNIT, "x"),
    "alpha None": lambda: diagonal_from_alpha(UNIT, None),
    "string alpha for the area": lambda: area_of_alpha(UNIT, "x"),
    "string alpha for the slope": lambda: d_area_d_alpha(UNIT, "x"),
    "string alphas for the curve": lambda: area_curve(UNIT, ["x"]),
    # unchecked, each of these raised AttributeError on the missing spec or state
    "range of a tuple of sides": lambda: alpha_range((1, 1, 1, 1)),
    "diagonal of a string spec": lambda: diagonal_from_alpha("x", 1.0),
    "area of a tuple of sides": lambda: area_of_alpha((1, 1, 1, 1), 1.0),
    "curve of a spec None": lambda: area_curve(None, [1.0]),
    "slope of a tuple of sides": lambda: d_area_d_alpha((1, 1, 1, 1), 1.0),
    "embedding of a spec": lambda: embed_planar(UNIT),
    "string tent height": lambda: make_tent(height="a"),
    "tent height None": lambda: make_tent(height=None),
    "tent height True": lambda: make_tent(height=True),
    "string ridge skew": lambda: make_tent(ridge_skew="x"),
    "string nonplanarity": lambda: random_instance(5, nonplanarity="x"),
    "directions a string": lambda: cutting_direction("abc"),
    "directions with a ragged row": lambda: cutting_direction([[1, 0, 0], [0, 1]]),
    "complex directions": lambda: cutting_direction(STAR + 0j),
    "lattice directions a string": lambda: brute_force_cutting_direction("abc"),
    "lattice directions with a ragged row": lambda: brute_force_cutting_direction([[1, 0, 0], [0, 1]]),
    "complex lattice directions": lambda: brute_force_cutting_direction(STAR + 0j),
    "config a dict": lambda: minimize(FAN, {"seed": 1}),
    "disc a string": lambda: minimize("x"),
    "disc None": lambda: minimize(None),
    # unchecked, each of these raised AttributeError on the missing disc
    "certify a string": lambda: certify_saddle("x"),
    "flip pass of None": lambda: flip_pass(None),
    "flip of a string": lambda: flip("x", (0, 6)),
    "flip check of None": lambda: can_flip(None, (0, 6)),
    "hinge of a string": lambda: measure_hinge("x", (0, 6)),
    "fan reduction of None": lambda: reduce_fan(None, (0, 2, 4)),
    "flat convex check of a string": lambda: flat_convex_check("x", (0, 6)),
    "descent step of None": lambda: vertex_descent_step(None, 6),
    "position gradient of a string": lambda: position_area_gradient("x", 6),
    "edge gradient of None": lambda: edge_length_area_gradient(None, 6),
    "edge derivative of a string": lambda: edge_length_area_derivative("x", (0, 6)),
    "OBJ text of None": lambda: dumps_obj(None),
    # unchecked, the first two raised AttributeError and bytes raised TypeError
    "OBJ text an integer": lambda: loads_obj(123),
    "OBJ text None": lambda: loads_obj(None),
    "OBJ text as bytes": lambda: loads_obj(b"v 0 0 0\n"),
    # refused before the file is opened
    "OBJ file of a string": lambda: save_obj("x", os.devnull),
    # unchecked, a negative id wraps: this one read as the area of (0, 1, 2)
    "triangle areas of a negative vertex id": lambda: triangle_areas(np.eye(3), [[0, 1, -1]]),
    "triangle areas of a vertex id past V": lambda: triangle_areas(np.eye(3), [[0, 1, 3]]),
    "triangle areas of float vertex ids": lambda: triangle_areas(np.eye(3), [[0.0, 1.0, 2.0]]),
    "triangle areas of one bare triangle": lambda: triangle_areas(np.eye(3), [0, 1, 2]),
    "triangle areas of a pair": lambda: triangle_areas(np.eye(3), [[0, 1]]),
    "triangle areas of ragged triangles": lambda: triangle_areas(np.eye(3), [[0, 1, 2], [0, 1]]),
    "triangle areas of positions of two coordinates": lambda: triangle_areas(
        np.eye(3)[:, :2], [[0, 1, 2]]
    ),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=list(BAD_ARGUMENTS))
def test_a_bad_argument_raises_invalid_input(call):
    with pytest.raises(InvalidInput) as info:
        call()
    assert isinstance(info.value, DiscminError)
    assert isinstance(info.value, ValueError)


def test_the_library_raises_no_bare_value_error():
    package = Path(discmin.__file__).parent
    sites = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "raise ValueError" in line
    ]
    assert sites == []


def test_tolerances_at_their_bounds_are_accepted():
    assert PolyhedralDisc(TRIANGLE, np.eye(3), 0.0).eps_deg == 0.0
    assert cutting_direction(STAR, 0.0).margin > 0.0
    assert len(flip_pass(random_instance(8, seed=1), 0.0).flips) == 2
    assert OptimizerConfig(eps_area=0).eps_area == 0
