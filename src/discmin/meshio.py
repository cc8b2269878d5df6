"""File formats and built-in scenarios.

The OBJ support covers the strict subset needed here: ``v`` lines with three
coordinates, ``f`` lines with three distinct bare 1-based indices, blank lines and
``#`` comments, in UTF-8.  A file is converted in one pass; one that fails is read again
line by line to report its first error in line order.  Writing uses 17 significant
digits so a save/load round trip reproduces positions bit for bit.

``make_tent`` builds the scenario separating the two kinds of
minimizer.  The rim alternates between a raised inner collar (even
vertices, radius ``ridge_skew``, height ``height``) and a ground
hexagon (odd vertices, radius 1).  Spanned by a fan from a center
apex, the apex settles at a non-saddle point it cannot leave without
retriangulating; the chord disc spans the same rim with ten triangles,
no interior vertex at all, and strictly less area.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (DegenerateParameters, DisconnectedComplex, InvariantViolation, ParseError,
                     _check, _is_number)
from .mesh import PolyhedralDisc, _check_disc, build_from_triangles
from .optimize import OptimizationTrace, OptimizerConfig, minimize
from .saddle import VertexVerdict

_INDEX_RE = re.compile(r"[0-9]+\Z")


def _plain(tokens: str) -> bool:
    """Whether ``tokens``, one or many joined, avoid the spellings ``float`` reads and C does
    not: ``_`` between digits and non-ASCII digits."""
    return tokens.isascii() and "_" not in tokens


def _column(raw: str, k: int) -> int:
    """1-based column of ``raw.split()[k]``: ``\\s`` is the whitespace ``str.split`` splits at."""
    return [m.start() for m in re.finditer(r"\S+", raw)][k] + 1


def _first_error(text: str) -> None:
    """Raise the error of ``text`` that comes first in line order, checking line by line."""
    vertex_count = 0
    faces: list[tuple[int, int, int]] = []
    face_lines: list[int] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        head, fields = tokens[0], tokens[1:]
        if head not in ("v", "f"):
            raise ParseError(f"unsupported directive {head!r}", number, _column(raw, 0))
        if len(fields) != 3:
            kind = "vertex" if head == "v" else "face"
            raise ParseError(
                f"{kind} line has {len(fields)} fields, expected 3", number, _column(raw, 0)
            )
        if head == "v":
            for k, tok in enumerate(fields, start=1):
                try:
                    float(tok if _plain(tok) else "_")  # which float() refuses
                except ValueError:
                    raise ParseError(f"bad coordinate {tok!r}", number, _column(raw, k)) from None
            vertex_count += 1
            continue
        ids = []
        for k, tok in enumerate(fields, start=1):
            if not _INDEX_RE.match(tok):
                raise ParseError(f"bad vertex index {tok!r}", number, _column(raw, k))
            try:
                i = int(tok)
            except ValueError:  # more digits than int() converts: name the count, not the digits
                raise ParseError(f"vertex index has {len(tok)} digits",
                                 number, _column(raw, k)) from None
            if i < 1:
                raise ParseError("vertex indices are 1-based", number, _column(raw, k))
            if i - 1 in ids:
                raise ParseError(f"repeated vertex index {tok!r}", number, _column(raw, k))
            ids.append(i - 1)
        faces.append(tuple(ids))
        face_lines.append(number)
    for tri, number in zip(faces, face_lines):
        if max(tri) >= vertex_count:
            raise ParseError(f"face references vertex {max(tri) + 1} of {vertex_count}", number)
    if not faces:
        raise ParseError("no faces in file", max(1, len(text.splitlines())))
    trailing = vertex_count - 1 - max(max(tri) for tri in faces)
    if trailing > 0:
        raise DisconnectedComplex(f"{trailing} trailing vertices appear in no face")


def loads_obj(text: str) -> PolyhedralDisc:
    """Parse an OBJ string into a disc in one pass: a ``float`` and an ``int`` map over all
    ``v`` and ``f`` tokens, each kind screened as one joined string, then array checks; a file
    that fails them goes to ``_first_error``, which reports its first error in line order.
    Raises InvalidInput unless ``text`` is a str, ParseError, the topology errors and
    DegenerateTriangle."""
    _check("text", text, isinstance(text, str), "a str")
    coords, indices = [], []
    for raw in text.splitlines():
        tokens = raw.split()
        if len(tokens) == 4 and tokens[0] == "v":
            coords += tokens[1:]
        elif len(tokens) == 4 and tokens[0] == "f":
            indices += tokens[1:]
        elif tokens and not tokens[0].startswith("#"):
            break
    else:
        joined = "".join(indices)  # all digits exactly when every token matches _INDEX_RE
        try:
            xyz = list(map(float, coords)) if _plain("".join(coords)) else []
            ids = list(map(int, indices)) if joined.isascii() and joined.isdigit() else []
        except ValueError:
            ids = []
        if ids and min(ids) >= 1 and max(ids) == len(xyz) // 3:  # on ints: np.intp overflows
            tri = np.array(ids, dtype=np.intp).reshape(-1, 3) - 1
            a, b, c = tri.T
            if not np.count_nonzero((a == b) | (b == c) | (c == a)):
                return PolyhedralDisc(build_from_triangles(tri.tolist()), np.reshape(xyz, (-1, 3)))
    _first_error(text)
    raise InvariantViolation("the bulk OBJ checks rejected a file the line checks accept")


def load_obj(path) -> PolyhedralDisc:
    """Read an OBJ file as UTF-8; a byte that is not UTF-8 is a ParseError."""
    data = Path(path).read_bytes()
    try:
        return loads_obj(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        lines = (data[: err.start].decode("utf-8") + "?").splitlines()  # up to the bad byte
        raise ParseError(f"not UTF-8: {err.reason}", len(lines), len(lines[-1])) from None


def dumps_obj(disc: PolyhedralDisc) -> str:
    _check_disc(disc)
    lines = []
    for x, y, z in disc.positions:
        lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for a, b, c in disc.complex.triangles:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    return "\n".join(lines) + "\n"


def save_obj(disc: PolyhedralDisc, path) -> None:
    Path(path).write_text(dumps_obj(disc))


# =====================================================================
# Scenarios
# =====================================================================


@dataclass(frozen=True, eq=False)
class TentScenario:
    """Fan and chord discs over the same tent rim, both optimized.

    ``apex_verdict`` is the cutting-plane verdict at the fan's apex
    after its flip-free optimization; the scenario guarantees it is
    non-saddle and that ``chord_area`` undercuts ``fan_area``.
    """

    height: float
    ridge_skew: float
    boundary: np.ndarray
    fan_disc: PolyhedralDisc
    chord_disc: PolyhedralDisc
    fan_optimized: PolyhedralDisc
    chord_optimized: PolyhedralDisc
    fan_trace: OptimizationTrace
    chord_trace: OptimizationTrace
    fan_area: float
    chord_area: float
    area_gap: float
    apex_verdict: VertexVerdict


def make_tent(height: float = 1.25, ridge_skew: float = 0.25, seed: int = 0) -> TentScenario:
    """Build and optimize the tent scenario.

    Raises InvalidInput unless ``height`` and ``ridge_skew`` are real
    numbers, and DegenerateParameters when they are out of range or
    fail a postcondition: the fan apex must come to rest at a
    non-saddle point, and the chord disc must stop stationary and beat
    the optimized fan's area by more than a relative 1e-6.
    """
    for name, value in (("height", height), ("ridge_skew", ridge_skew)):
        _check(name, value, _is_number(value, finite=False), "a real number")
    if not (np.isfinite(height) and height > 0.0):
        raise DegenerateParameters(f"height must be positive, got {height}")
    if not (np.isfinite(ridge_skew) and 0.0 < ridge_skew < 1.0):
        raise DegenerateParameters(f"ridge_skew must lie in (0, 1), got {ridge_skew}")

    k = np.arange(12)
    theta = np.pi * k / 6.0
    radius = np.where(k % 2 == 0, ridge_skew, 1.0)
    z = np.where(k % 2 == 0, height, 0.0)
    rim = np.stack([radius * np.cos(theta), radius * np.sin(theta), z], axis=1)

    apex = np.array([0.0, 0.0, 1.5 * height])
    fan_disc = PolyhedralDisc(
        build_from_triangles([(i, (i + 1) % 12, 12) for i in range(12)]),
        np.vstack([rim, apex]),
    )
    skirt = [(2 * i, 2 * i + 1, (2 * i + 2) % 12) for i in range(6)]
    cap = [(0, 2, 4), (0, 4, 6), (0, 6, 8), (0, 8, 10)]
    chord_disc = PolyhedralDisc(build_from_triangles(skirt + cap), rim)

    # Flips disabled; the fan has no empty triangle to cut, so the apex alone moves.
    fan_config = OptimizerConfig(enable_flips=False, seed=seed)
    fan_optimized, fan_trace = minimize(fan_disc, fan_config)
    chord_optimized, chord_trace = minimize(chord_disc, OptimizerConfig(seed=seed))
    if fan_trace.stop_reason == "iteration_cap" or chord_trace.stop_reason != "stationary":
        raise DegenerateParameters("tent optimization did not come to rest")

    apex_verdict = next(
        v for v in fan_trace.certificate.verdicts if v.vertex == 12
    )
    if apex_verdict.is_saddle:
        raise DegenerateParameters(
            "fan apex settles at a saddle; the tent needs a pinned apex"
        )
    fan_area = fan_optimized.total_area()
    chord_area = chord_optimized.total_area()
    gap = fan_area - chord_area
    if gap <= 1e-6 * fan_area:
        raise DegenerateParameters(
            f"chord disc does not beat the fan (gap {gap}, fan area {fan_area})"
        )
    return TentScenario(
        height=height,
        ridge_skew=ridge_skew,
        boundary=rim,
        fan_disc=fan_disc,
        chord_disc=chord_disc,
        fan_optimized=fan_optimized,
        chord_optimized=chord_optimized,
        fan_trace=fan_trace,
        chord_trace=chord_trace,
        fan_area=fan_area,
        chord_area=chord_area,
        area_gap=gap,
        apex_verdict=apex_verdict,
    )


def random_instance(m: int, nonplanarity: float = 0.3, seed: int = 0) -> PolyhedralDisc:
    """Random fan over a wobbly m-gon rim: radii in [0.6, 1.4], heights
    in [-nonplanarity, nonplanarity], apex at the rim centroid.  ``m``
    must be an integer >= 3, ``nonplanarity`` a finite number and
    ``seed`` an integer >= 0."""
    _check("m", m, _is_number(m, integer=True) and m >= 3, "an integer >= 3")
    _check("nonplanarity", nonplanarity, _is_number(nonplanarity), "a finite number")
    _check("seed", seed, _is_number(seed, integer=True) and seed >= 0, "an integer >= 0")
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(m) / m
    radii = rng.uniform(0.6, 1.4, m)
    z = nonplanarity * rng.uniform(-1.0, 1.0, m)
    rim = np.stack([radii * np.cos(theta), radii * np.sin(theta), z], axis=1)
    positions = np.vstack([rim, rim.mean(axis=0)])
    triangles = [(i, (i + 1) % m, m) for i in range(m)]
    return PolyhedralDisc(build_from_triangles(triangles), positions)
