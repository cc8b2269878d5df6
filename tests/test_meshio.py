import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fan_disc, hexagon_with_violation, loads_obj_by_token_columns, stalled_at_rest
from discmin import (
    certify_saddle,
    dumps_obj,
    load_obj,
    loads_obj,
    make_tent,
    minimize,
    position_area_gradient,
    random_instance,
    save_obj,
    vertex_descent_step,
)
from discmin import meshio
from discmin.errors import (
    DegenerateParameters,
    DisconnectedComplex,
    DiscminError,
    InvariantViolation,
    ParseError,
)
from test_cli import mutated_obj

SINGLE = """\
# one triangle
v 0 0 0
v 1 0 0

v 0 1 0
f 1 2 3
"""


@pytest.fixture(scope="module")
def tent():
    return make_tent()


def test_loads_single_triangle():
    disc = loads_obj(SINGLE)
    assert disc.complex.triangles == ((0, 1, 2),)
    assert disc.total_area() == pytest.approx(0.5)


def test_round_trip_is_exact():
    for disc in (fan_disc(11, apex=(0.03, -0.08, 0.41)), hexagon_with_violation()):
        back = loads_obj(dumps_obj(disc))
        assert back.complex == disc.complex
        assert np.array_equal(back.positions, disc.positions)


def test_round_trip_survives_awkward_floats():
    disc = fan_disc(5)
    scaled = disc.with_positions(disc.positions * math.pi * 1e-7 + 1 / 3)
    back = loads_obj(dumps_obj(scaled))
    assert np.array_equal(back.positions, scaled.positions)


def test_file_round_trip(tmp_path):
    disc = fan_disc(7, apex=(0, 0, 0.3))
    path = tmp_path / "disc.obj"
    save_obj(disc, path)
    back = load_obj(path)
    assert back.complex == disc.complex
    assert np.array_equal(back.positions, disc.positions)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 4\n", 4, "face line has 4 fields"),
        ("v 0 0\nf 1 2 3\n", 1, "vertex line has 2 fields"),
        ("v 0 0 zero\n", 1, "bad coordinate"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2/2 3\n", 4, "bad vertex index"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n", 4, "1-based"),
        ("v 0 0 0\nvn 0 0 1\n", 2, "unsupported directive"),
        ("v 0 0 0\nv 1 0 0\nf 1 2 3\n", 3, "face references vertex 3"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\n", None, "no faces"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 2 4 4\n", 5, "repeated vertex index '4'"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 1 2\n", 4, "repeated vertex index '1'"),
    ],
)
def test_parse_errors(text, line, fragment):
    with pytest.raises(ParseError) as err:
        loads_obj(text)
    assert fragment in str(err.value)
    if line is not None:
        assert err.value.line == line
        assert err.value.column >= 1


def test_parse_error_column_points_at_token():
    with pytest.raises(ParseError) as err:
        loads_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 nope 3\n")
    assert err.value.line == 4
    assert err.value.column == 5


TRIANGLE_VERTICES = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"


@pytest.mark.parametrize(
    "text,line,column,message",
    [
        ("  v\t0 0\n", 1, 3, "vertex line has 2 fields, expected 3"),
        (TRIANGLE_VERTICES + "\tf 1  2 3 4\n", 4, 2, "face line has 4 fields, expected 3"),
        ("v 0 0 0\n \tv 1\t0  zero\n", 2, 10, "bad coordinate 'zero'"),
        ("v\u30000\x1f0 nope\n", 1, 7, "bad coordinate 'nope'"),
        (TRIANGLE_VERTICES + "f 1\t\t2/2 3\n", 4, 6, "bad vertex index '2/2'"),
        (TRIANGLE_VERTICES + "   f 1 2 0\n", 4, 10, "vertex indices are 1-based"),
        (TRIANGLE_VERTICES + "f\t2 3  2\n", 4, 8, "repeated vertex index '2'"),
        ("v 0 0 0\n\t vn 0 0 1\n", 2, 3, "unsupported directive 'vn'"),
        ("v 0 0 0\nv 1 0 0\n \tf 1 2 3\n", 3, 1, "face references vertex 3 of 2"),
        # "no faces" names the last line, counted as str.splitlines counts them
        (TRIANGLE_VERTICES + "  # no face\n", 4, 1, "no faces in file"),
        (TRIANGLE_VERTICES + "  # no face", 4, 1, "no faces in file"),
        ("v 0 0 0\r\nv 1 0 0\r\nv 0 1 0\r\n", 3, 1, "no faces in file"),
        ("v 0 0 0\rv 1 0 0\rv 0 1 0\r", 3, 1, "no faces in file"),
        ("", 1, 1, "no faces in file"),
        # past int()'s digit limit the message gives the count, not the 5,000 digits
        pytest.param(TRIANGLE_VERTICES + "f 1 2 " + "9" * 5000 + "\n", 4, 7,
                     "vertex index has 5000 digits", id="5000-digit index"),
        pytest.param(TRIANGLE_VERTICES + f"f 1 2 {10**30}\n", 4, 1,
                     f"face references vertex {10**30} of 3", id="index 10**30"),
        # int() takes these, the index check does not; each face also reaches vertex 3
        (TRIANGLE_VERTICES + "f 1 +2 3\n", 4, 5, "bad vertex index '+2'"),
        (TRIANGLE_VERTICES + "f 1 \u0662 3\n", 4, 5, "bad vertex index '\u0662'"),
        (TRIANGLE_VERTICES + "f 0 2 3\n", 4, 3, "vertex indices are 1-based"),
        # float() reads these as 10, 12, 1 and 1; each file is otherwise valid
        ("v 0 0 0\nv 1_0 0 0\nv 0 1 0\nf 1 2 3\n", 2, 3, "bad coordinate '1_0'"),
        ("v 0 0 0\nv 1 0 0\nv 0 \u0661\u0662 0\nf 1 2 3\n", 3, 5,
         "bad coordinate '\u0661\u0662'"),
        ("v 0 0 1e0_0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", 1, 7, "bad coordinate '1e0_0'"),
        ("v 0 0 0\nv\t\uff11 0 0\nv 0 1 0\nf 1 2 3\n", 2, 3, "bad coordinate '\uff11'"),
    ],
)
def test_parse_error_columns_count_tabs_and_leading_spaces(text, line, column, message):
    with pytest.raises(ParseError) as err:
        loads_obj(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


@pytest.mark.parametrize(
    "text,line,column,message",
    [
        ("v 0 0 0\nv 1 0 zero\nv 0 1 0\nvn 1 2 3\n", 2, 7, "bad coordinate 'zero'"),
        ("v 0 0 0\nvn 1 2 3\nv 0 1 0\nv 1 0 zero\n", 2, 1, "unsupported directive 'vn'"),
        (TRIANGLE_VERTICES + "f 1 x 3\nv 0 0\n", 4, 5, "bad vertex index 'x'"),
        ("v 0 0 0\nv 0 0\nv 1 0 0\nv 0 1 0\nf 1 x 3\n", 2, 1,
         "vertex line has 2 fields, expected 3"),
        (TRIANGLE_VERTICES + "f 1 1 2\nv 0 0 nope\n", 4, 5, "repeated vertex index '1'"),
        (TRIANGLE_VERTICES + "v 0 0 nope\nf 1 1 2\n", 4, 7, "bad coordinate 'nope'"),
        (TRIANGLE_VERTICES + "f 1 2 3\nf 1 2 9\nf 1 1 2\n", 6, 5, "repeated vertex index '1'"),
        # a face's range is checked once every line has passed, so a later bad line wins
        (TRIANGLE_VERTICES + "f 1 2 9\nv 1 1 x\n", 5, 7, "bad coordinate 'x'"),
    ],
)
def test_the_first_error_in_line_order_wins(text, line, column, message):
    with pytest.raises(ParseError) as err:
        loads_obj(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_a_byte_that_is_not_utf8_is_a_parse_error_at_its_line(tmp_path):
    path = tmp_path / "latin.obj"
    path.write_bytes(b"v 0 0 0\n\xff\xfe 1 0 0\n")
    with pytest.raises(ParseError) as err:
        load_obj(path)
    assert (err.value.line, err.value.column) == (2, 1)
    assert str(err.value) == "line 2, column 1: not UTF-8: invalid start byte"
    path.write_bytes(b"v 0 0 0\r\nv 1 \xc3\n")  # a cut two-byte sequence, after a CRLF
    with pytest.raises(ParseError) as err:
        load_obj(path)
    assert (err.value.line, err.value.column) == (2, 5)


def test_a_valid_file_is_converted_without_the_line_checks(monkeypatch):
    """The line-by-line reader runs only for a bad file; were it to accept
    a file the bulk checks refused, the reader says so."""
    calls = []
    monkeypatch.setattr(meshio, "_first_error", calls.append)
    for disc in (fan_disc(11), hexagon_with_violation()):
        back = loads_obj(dumps_obj(disc))
        assert back.complex == disc.complex
    assert loads_obj(SINGLE).complex.triangles == ((0, 1, 2),)
    assert calls == []
    with pytest.raises(InvariantViolation):
        loads_obj("v 0 0 0\n")
    assert calls == ["v 0 0 0\n"]


def repeats_an_index(text: str) -> bool:
    """Whether a face line repeats a vertex index among its fields."""
    for raw in text.splitlines():
        tokens = raw.split()
        # digit strings without leading zeros: int() refuses a 5,000-digit index
        ids = [tok.lstrip("0") for tok in tokens[1:] if re.fullmatch("[0-9]+", tok)]
        if tokens[:1] == ["f"] and len(set(ids)) < len(ids):
            return True
    return False


def parse_outcome(parse, text: str):
    """The disc ``parse`` reads from ``text`` with the views the library
    reads, or the type, message, line and column of the error it raises."""
    try:
        disc = parse(text)
    except DiscminError as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)
    cx = disc.complex
    arrays = (cx.triangle_array, cx.edge_array, cx.opposite_array, cx.edge_face_array,
              cx.ring_offsets, cx.ring_vertices, cx.ring_faces)
    views = [a.tolist() for a in arrays]
    return cx, views, disc.positions.tobytes()


@settings(max_examples=400, deadline=None)
@given(text=mutated_obj(), data=st.data())
def test_loads_obj_matches_the_token_column_parser(text, data):
    """Each line is re-spaced with drawn indents and separators (tabs and
    Unicode spaces among them) so that the error columns differ."""
    gaps = st.text(" \t\x1f\u3000", min_size=1, max_size=3)
    text = "".join(
        data.draw(st.text(" \t", max_size=2)) + data.draw(gaps).join(raw.split()) + "\n"
        for raw in text.splitlines()
    )
    assume(not repeats_an_index(text))
    assert parse_outcome(loads_obj, text) == parse_outcome(loads_obj_by_token_columns, text)


def test_trailing_unused_vertices_rejected():
    with pytest.raises(DisconnectedComplex):
        loads_obj(SINGLE + "v 9 9 9\n")


def test_random_instance_shape_and_determinism():
    a = random_instance(8, nonplanarity=0.3, seed=4)
    b = random_instance(8, nonplanarity=0.3, seed=4)
    assert np.array_equal(a.positions, b.positions)
    assert a.complex == b.complex
    c = random_instance(8, nonplanarity=0.3, seed=5)
    assert not np.array_equal(a.positions, c.positions)

    cx = a.complex
    assert cx.vertex_count == 9
    assert len(cx.triangles) == 8
    assert cx.interior_vertices() == (8,)
    assert cx.vertex_count - len(cx.edges) + len(cx.triangles) == 1
    with pytest.raises(ValueError):
        random_instance(2)


def test_random_instance_planar_case():
    disc = random_instance(6, nonplanarity=0.0, seed=1)
    assert np.all(disc.positions[:6, 2] == 0.0)
    assert abs(disc.positions[6, 2]) <= 1e-15


def test_tent_counts(tent):
    assert len(tent.fan_disc.complex.triangles) == 12
    assert len(tent.chord_disc.complex.triangles) == 10
    assert tent.fan_disc.complex.interior_vertices() == (12,)
    assert tent.chord_disc.complex.interior_vertices() == ()
    assert len(tent.boundary) == 12
    assert np.array_equal(tent.fan_disc.positions[:12], tent.boundary)
    assert np.array_equal(tent.chord_disc.positions, tent.boundary)


def test_tent_rim_alternates(tent):
    radii = np.linalg.norm(tent.boundary[:, :2], axis=1)
    heights = tent.boundary[:, 2]
    assert np.allclose(radii[0::2], tent.ridge_skew)
    assert np.allclose(radii[1::2], 1.0)
    assert np.allclose(heights[0::2], tent.height)
    assert np.allclose(heights[1::2], 0.0)


def test_tent_rim_mirror_symmetries(tent):
    # reflection in the vertical plane through rim vertex j (and its
    # opposite) maps the rim onto itself
    rim = tent.boundary
    for j in range(12):
        th = math.pi * j / 6.0
        axis = np.array([math.cos(th), math.sin(th)])
        reflected = rim.copy()
        xy = rim[:, :2]
        along = xy @ axis
        perp = xy - np.outer(along, axis)
        reflected[:, :2] = np.outer(along, axis) - perp
        match = rim[(2 * j - np.arange(12)) % 12]
        assert np.allclose(reflected, match, atol=1e-12)


def test_tent_gap_and_certificates(tent):
    assert tent.fan_trace.stop_reason == "stalled" and stalled_at_rest(tent.fan_trace)
    assert not tent.fan_trace.converged
    assert tent.chord_trace.stop_reason == "stationary"
    assert tent.chord_area < tent.fan_area
    assert tent.area_gap > 1e-6 * tent.fan_area
    assert tent.area_gap == pytest.approx(tent.fan_area - tent.chord_area)
    assert not tent.apex_verdict.is_saddle
    assert tent.apex_verdict.vertex == 12
    assert tent.apex_verdict.margin > 1e-7
    cert = certify_saddle(tent.fan_optimized)
    assert not cert.saddle


def test_tent_regression_areas(tent):
    # pinned behavior of the default scenario: the fan apex at its star minimum
    assert abs(tent.fan_area - 1.3995447658289197) <= 1e-9
    assert abs(tent.chord_area - 1.2688171960026104) <= 1e-9


def test_tent_fan_run_kept_its_triangulation(tent):
    assert tent.fan_optimized.complex == tent.fan_disc.complex
    assert all(len(r.flips) == 0 for r in tent.fan_trace.iterations)
    assert all(len(r.reductions) == 0 for r in tent.fan_trace.iterations)
    assert np.array_equal(tent.fan_optimized.positions[:12], tent.boundary)


def test_tent_apex_is_stalled(tent):
    # non-saddle, yet no cutting step can shorten every ridge edge
    out, decrease = vertex_descent_step(tent.fan_optimized, 12)
    assert decrease == 0.0
    assert np.array_equal(out.positions, tent.fan_optimized.positions)


def test_tent_apex_rests_at_its_star_minimum(tent):
    # stationary, yet still pinned non-saddle, and the chord still wins
    assert np.linalg.norm(position_area_gradient(tent.fan_optimized, 12)) <= 1e-6
    assert not tent.apex_verdict.is_saddle
    assert tent.apex_verdict.margin > 0.7
    assert tent.chord_area < tent.fan_area - 1e-6 * tent.fan_area


def test_tent_chord_beats_restarted_fan(tent):
    # flips let the fan escape: it reaches the chord area instead
    out, trace = minimize(tent.fan_disc)
    assert trace.converged
    assert out.total_area() == pytest.approx(tent.chord_area, rel=1e-9)


def test_tent_parameter_validation():
    with pytest.raises(DegenerateParameters):
        make_tent(height=0.0)
    with pytest.raises(DegenerateParameters):
        make_tent(height=-1.0)
    with pytest.raises(DegenerateParameters):
        make_tent(ridge_skew=0.0)
    with pytest.raises(DegenerateParameters):
        make_tent(ridge_skew=1.0)
