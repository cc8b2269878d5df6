"""The area minimization loop.

Each outer iteration runs three passes:

1. fan reductions: cut along empty triangles while any can be cut;
2. flips: flip hinges whose adjacent angle sum is below pi, first
   eligible edge in sorted order, rescanning after every flip;
3. vertex sweep: for every interior vertex in ascending order, descend
   along the cutting plane when one exists, otherwise along the area
   gradient, with backtracking line search in both cases.

The loop exits when an iteration decreases total area by no more than
``eps_area`` (or the iteration cap is hit); it *converged* when that
final iteration also performed no combinatorial moves.  An interior
vertex is jittered once before the first iteration to knock the input
off razor-edge symmetric configurations; the amplitude is relative to
the disc diameter and the generator is seeded, so runs are exactly
reproducible.

Why a stationary sweep certifies as saddle: the derivative of area
with respect to one star edge length is l/2 (cot t1 + cot t2) with
t1, t2 the angles opposite the edge, which is nonnegative exactly when
the hinge sum sigma is at least pi.  Hinges with sigma below pi get
flipped away (or expose an empty triangle and get cut), and moving a
non-saddle vertex along its cutting direction shortens every star edge
at once, so while any incident hinge has sigma strictly above pi the
move strictly decreases area.  Stalling while non-saddle therefore
requires every incident hinge to sit at sigma = pi simultaneously,
which the jitter makes vanishingly unlikely.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    CycleBoundsBoundary,
    DegenerateTriangle,
    DegenerationBlocked,
    FlipForbidden,
    NotAViolation,
    NotCuttable,
)
from .flips import FanReduction, _opposite_vertices, bulk_hinges, flip, reduce_fan
from .mesh import PolyhedralDisc, area_rows, edge_key, row_norms
from .saddle import SaddleCertificate, _vertex_verdict, certify_saddle


# =====================================================================
# Configuration
# =====================================================================


def _is_number(x, integer: bool = False) -> bool:
    """A finite real (an integer when ``integer``); bools excluded."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    return isinstance(x, numbers.Integral) or (not integer and math.isfinite(x))


def _check(name: str, value, ok: bool, wanted: str) -> None:
    if not ok:
        raise ValueError(f"{name} must be {wanted}, got {value!r}")


def _check_tolerance(name: str, value) -> None:
    _check(name, value, _is_number(value) and value >= 0.0, "a finite number >= 0")


@dataclass(frozen=True)
class LineSearch:
    """Backtracking schedule: start at ``initial_step`` times the safe
    step scale, multiply by ``shrink`` on rejection."""

    initial_step: float = 0.5
    shrink: float = 0.5
    max_backtracks: int = 30


# JSON names of the LineSearch fields.
_LINE_SEARCH_KEYS = {"step": "initial_step", "shrink": "shrink", "max_backtracks": "max_backtracks"}


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of :func:`minimize`.

    ``eps_area`` of None resolves to ``1e-12 * diameter**2`` of the
    input disc.  ``triangle_budget`` rejects oversized inputs up
    front; no move ever increases the triangle count.
    """

    triangle_budget: Optional[int] = None
    eps_flip: float = 1e-9
    eps_saddle: float = 1e-7
    eps_area: Optional[float] = None
    max_outer_iterations: int = 10000
    line_search: LineSearch = LineSearch()
    jitter_amplitude: float = 1e-9
    rng_seed: int = 0
    enable_flips: bool = True
    enable_reductions: bool = True

    def __post_init__(self):
        ls = self.line_search
        _check("line_search", ls, isinstance(ls, LineSearch), "a LineSearch")
        for name, value in (
            ("eps_flip", self.eps_flip),
            ("eps_saddle", self.eps_saddle),
            ("eps_area", 0.0 if self.eps_area is None else self.eps_area),
            ("jitter_amplitude", self.jitter_amplitude),
        ):
            _check_tolerance(name, value)
        budget = 1 if self.triangle_budget is None else self.triangle_budget
        for name, value, low in (
            ("triangle_budget", budget, 1),
            ("max_outer_iterations", self.max_outer_iterations, 1),
            ("line_search.max_backtracks", ls.max_backtracks, 0),
            ("seed", self.rng_seed, 0),
        ):
            ok = _is_number(value, integer=True) and value >= low
            _check(name, value, ok, f"an integer >= {low}")
        step, shrink = ls.initial_step, ls.shrink
        _check("line_search.step", step, _is_number(step) and step > 0.0, "a finite number > 0")
        _check("line_search.shrink", shrink, _is_number(shrink) and 0.0 < shrink < 1.0,
               "strictly between 0 and 1")
        for name in ("enable_flips", "enable_reductions"):
            value = getattr(self, name)
            _check(name, value, isinstance(value, bool), "true or false")

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        """Build from a JSON-style dict; unknown keys are an error.

        Recognized keys: the scalar field names, ``seed``, and
        ``line_search`` with subkeys step/shrink/max_backtracks.
        """
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        kwargs = {}
        if "seed" in data:
            kwargs["rng_seed"] = data.pop("seed")
        ls = data.pop("line_search", None)
        if ls is not None:
            if not isinstance(ls, dict):
                raise ValueError(f"line_search must be a JSON object, got {ls!r}")
            unknown = set(ls) - _LINE_SEARCH_KEYS.keys()
            if unknown:
                raise ValueError(f"unknown line_search keys: {sorted(unknown)}")
            kwargs["line_search"] = LineSearch(**{_LINE_SEARCH_KEYS[k]: v for k, v in ls.items()})
        for f in fields(cls):
            if f.name != "rng_seed" and f.name in data:
                kwargs[f.name] = data.pop(f.name)
        if data:
            raise ValueError(f"unknown config keys: {sorted(data)}")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["line_search"] = {
            key: getattr(self.line_search, name) for key, name in _LINE_SEARCH_KEYS.items()
        }
        data["seed"] = data.pop("rng_seed")
        return data


# =====================================================================
# Records
# =====================================================================


@dataclass(frozen=True)
class FlipRecord:
    edge: tuple[int, int]
    sigma: float
    area_decrease: float


@dataclass(frozen=True)
class MoveRecord:
    """One vertex update.  ``mode`` is "cut" or "gradient"; ``blocked``
    is None for an applied move, or the reason it was abandoned."""

    vertex: int
    displacement: tuple[float, float, float]
    area_decrease: float
    mode: str
    blocked: Optional[str] = None


@dataclass(frozen=True)
class IterationRecord:
    index: int
    area: float
    flips: tuple[FlipRecord, ...]
    reductions: tuple[FanReduction, ...]
    moves: tuple[MoveRecord, ...]
    triangle_count: int
    flip_cap_exceeded: bool
    unresolved_violations: int


@dataclass(frozen=True, eq=False)
class OptimizationTrace:
    iterations: tuple[IterationRecord, ...]
    converged: bool
    initial_area: float
    final_area: float
    eps_area: float
    seed: int
    certificate: SaddleCertificate

    def csv_text(self) -> str:
        """Per-iteration counters, one row per outer iteration."""
        lines = ["iter,area,flips,reductions,moves,triangles"]
        for rec in self.iterations:
            lines.append(
                f"{rec.index},{rec.area:.17g},{len(rec.flips)},"
                f"{len(rec.reductions)},{len(rec.moves)},{rec.triangle_count}"
            )
        return "\n".join(lines) + "\n"

    def summary_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": len(self.iterations),
            "initial_area": self.initial_area,
            "final_area": self.final_area,
            "flips": sum(len(r.flips) for r in self.iterations),
            "reductions": sum(len(r.reductions) for r in self.iterations),
            "moves": sum(len(r.moves) for r in self.iterations),
            "saddle": self.certificate.saddle,
            "eps_area": self.eps_area,
            "seed": self.seed,
        }


# =====================================================================
# Passes
# =====================================================================


@dataclass(frozen=True, eq=False)
class FlipPassResult:
    disc: PolyhedralDisc
    flips: tuple[FlipRecord, ...]
    cap_exceeded: bool


def flip_pass(
    disc: PolyhedralDisc, eps_flip: float = 1e-9, cap: Optional[int] = None
) -> FlipPassResult:
    """Flip hinges with sigma < pi - eps_flip until none remain.

    Measures every interior hinge with one ``bulk_hinges`` call, flips
    the first eligible edge in sorted order and rescans after every
    flip.  Each flip strictly decreases area, so the pass terminates;
    ``cap`` (default 100 edges' worth) is a safety stop.  Flips that
    ``flip`` refuses (opposite vertices already joined, or a triangle
    that would degenerate) are skipped.
    """
    if cap is None:
        cap = 100 * len(disc.complex.edges)
    records: list[FlipRecord] = []
    cap_exceeded = False
    while True:
        if len(records) >= cap:
            cap_exceeded = True
            break
        cx, p = disc.complex, disc.positions
        edges = cx.interior_edges()
        hinges = [(*e, *_opposite_vertices(cx, e)[1]) for e in edges]
        hinges = np.array(hinges, dtype=np.intp).reshape(-1, 4)
        sigma, gain = bulk_hinges(*(p[hinges[:, k]] for k in range(4)))
        progressed = False
        for k in np.flatnonzero(sigma < np.pi - eps_flip):
            e = edges[k]
            try:
                disc = flip(disc, e)
            except (FlipForbidden, DegenerateTriangle):
                continue
            records.append(FlipRecord(e, float(sigma[k]), float(gain[k])))
            progressed = True
            break
        if not progressed:
            break
    return FlipPassResult(disc=disc, flips=tuple(records), cap_exceeded=cap_exceeded)


def _star_area(disc: PolyhedralDisc, v: int) -> float:
    return float(sum(disc.triangle_area(i) for i in disc.complex.vertex_faces[v]))


def _line_search(
    disc: PolyhedralDisc, v: int, star: tuple[int, ...], direction: np.ndarray, scale: float,
    line_search: LineSearch, floor: float, shorten: bool = False,
) -> Optional[tuple[PolyhedralDisc, float]]:
    """Backtracking search for vertex ``v`` along ``direction``, from
    ``initial_step * scale`` times the shortest edge to ``star`` down
    by factors of ``line_search.shrink``.

    A trial is accepted when the star stays nondegenerate, every edge
    to ``star`` got shorter (if ``shorten``), and the star area dropped
    by more than ``floor``.  Returns (trial, decrease) or None; raises
    DegenerationBlocked when every trial degenerated the star.
    """
    p, star = disc.positions, list(star)
    lengths = row_norms(p[star] - p[v])
    step = line_search.initial_step * scale * float(lengths.min())
    before = _star_area(disc, v)
    nondegenerate = False
    for _ in range(line_search.max_backtracks + 1):
        try:
            trial = disc.moved(v, p[v] + step * direction)
        except DegenerateTriangle:
            step *= line_search.shrink
            continue
        nondegenerate = True
        q = trial.positions
        if not shorten or not np.any(row_norms(q[star] - q[v]) >= lengths):
            decrease = before - _star_area(trial, v)
            if decrease > floor:
                return trial, float(decrease)
        step *= line_search.shrink
    if not nondegenerate:
        raise DegenerationBlocked(f"every step at vertex {v} degenerates its star")
    return None


def vertex_descent_step(
    disc: PolyhedralDisc,
    v: int,
    eps_saddle: float = 1e-7,
    line_search: LineSearch = LineSearch(),
    eps_area: Optional[float] = None,
) -> tuple[PolyhedralDisc, float]:
    """Move vertex ``v`` along its cutting direction.

    The first trial step is initial_step * margin * (shortest star
    edge) / 2, well inside the range where every star edge strictly
    shortens.  A trial is accepted when the star stays nondegenerate,
    every star edge got shorter, and the star area dropped by more
    than ``eps_area`` (None means any positive drop).

    Returns (new disc, decrease); (same disc, 0.0) when no trial was
    acceptable.  Raises NotCuttable for a saddle vertex and
    DegenerationBlocked when every trial degenerated the star.
    """
    if disc.complex.is_boundary_vertex(v):
        raise ValueError(f"vertex {v} is on the boundary")
    verdict = _vertex_verdict(disc, v, eps_saddle)
    if verdict.is_saddle:
        raise NotCuttable(f"vertex {v} admits no cutting plane")
    floor = 0.0 if eps_area is None else eps_area
    found = _line_search(disc, v, verdict.star, verdict.cut_normal, 0.5 * verdict.margin,
                         line_search, floor, shorten=True)
    return found or (disc, 0.0)


# =====================================================================
# Gradients
# =====================================================================


def edge_length_area_derivative(disc: PolyhedralDisc, edge) -> float:
    """Derivative of total area with respect to one edge's length,
    holding every other side length fixed: l/2 times the sum of the
    cotangents of the angles opposite the edge in its one or two
    triangles."""
    (u, v), opposite = _opposite_vertices(disc.complex, edge)
    p = disc.positions
    w = p[list(opposite)]
    # cot of the angle at w is (u - w).(v - w) over twice the area.
    cot = np.einsum("ij,ij->i", p[u] - w, p[v] - w) / (2.0 * area_rows(p[u], p[v], w))
    return 0.5 * disc.edge_length(u, v) * float(cot.sum())


def edge_length_area_gradient(
    disc: PolyhedralDisc, v: int
) -> list[tuple[tuple[int, int], float]]:
    """Per star edge of interior vertex ``v``, the derivative of total
    area in that edge's length with all other lengths frozen."""
    if disc.complex.is_boundary_vertex(v):
        raise ValueError(f"vertex {v} is on the boundary")
    return [
        (edge_key(v, u), edge_length_area_derivative(disc, (v, u)))
        for u in disc.complex.vertex_star(v)
    ]


def position_area_gradient(disc: PolyhedralDisc, v: int) -> np.ndarray:
    """Exact gradient of total area with respect to the position of
    ``v``: sum over incident triangles (v, a, b) of (a - b) x n / 2
    with n the triangle's unit normal."""
    cx, p = disc.complex, disc.positions
    faces = [cx.triangles[i] for i in cx.vertex_faces[v]]
    rotated = np.array([t[t.index(v):] + t[:t.index(v)] for t in faces], dtype=np.intp)
    a, b = p[rotated[:, 1]], p[rotated[:, 2]]
    n = np.cross(a - p[v], b - p[v])
    norms = row_norms(n)
    if np.any(norms == 0.0):
        raise DegenerateTriangle(f"triangle {faces[int(np.argmin(norms))]} has zero area")
    return 0.5 * np.cross(a - b, n / norms[:, None]).sum(axis=0)


def _gradient_step(
    disc: PolyhedralDisc, v: int, line_search: LineSearch, eps_area: float
) -> tuple[PolyhedralDisc, float]:
    """Backtracking descent along the negative area gradient.  Returns
    (new disc, decrease); (same disc, 0.0) when no improving step was
    found, including when every trial degenerated the star."""
    g = position_area_gradient(disc, v)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        return disc, 0.0
    star = disc.complex.vertex_star(v)
    try:
        found = _line_search(disc, v, star, -g / norm, 1.0, line_search, eps_area)
    except DegenerationBlocked:
        found = None
    return found or (disc, 0.0)


# =====================================================================
# Driver
# =====================================================================


def minimize(
    disc: PolyhedralDisc, config: Optional[OptimizerConfig] = None
) -> tuple[PolyhedralDisc, OptimizationTrace]:
    """Minimize disc area under flips, fan reductions and vertex moves.

    Returns the final disc and a trace whose ``certificate`` reports
    the cutting-plane test at every interior vertex of the result.
    """
    cfg = config if config is not None else OptimizerConfig()
    if (
        cfg.triangle_budget is not None
        and len(disc.complex.triangles) > cfg.triangle_budget
    ):
        raise BudgetExceeded(
            f"{len(disc.complex.triangles)} triangles exceed the budget "
            f"of {cfg.triangle_budget}"
        )
    rng = np.random.default_rng(cfg.rng_seed)
    eps_area = (
        cfg.eps_area if cfg.eps_area is not None else 1e-12 * disc.diameter**2
    )
    initial_area = disc.total_area()

    interior = disc.complex.interior_vertices()
    if cfg.jitter_amplitude > 0.0 and interior:
        offsets = (
            cfg.jitter_amplitude
            * disc.diameter
            * rng.uniform(-1.0, 1.0, (len(interior), 3))
        )
        jittered = np.array(disc.positions)
        jittered[list(interior)] += offsets
        try:
            disc = disc.with_positions(jittered)
        except DegenerateTriangle:
            pass  # keep the unjittered input

    iterations: list[IterationRecord] = []
    converged = False
    for index in range(1, cfg.max_outer_iterations + 1):
        area_start = disc.total_area()
        flips: tuple[FlipRecord, ...] = ()
        reductions: list[FanReduction] = []
        moves: list[MoveRecord] = []
        cap_exceeded = False
        unresolved = 0

        if cfg.enable_reductions:
            while True:
                progressed = False
                failures = 0
                for triple in disc.complex.no_triangle_violations():
                    try:
                        disc, record = reduce_fan(disc, triple)
                    except (CycleBoundsBoundary, NotAViolation, DegenerateTriangle):
                        failures += 1
                        continue
                    reductions.append(record)
                    progressed = True
                    break  # vertex ids changed, rescan
                if not progressed:
                    unresolved = failures
                    break

        if cfg.enable_flips:
            result = flip_pass(disc, cfg.eps_flip)
            disc = result.disc
            flips = result.flips
            cap_exceeded = result.cap_exceeded

        for v in disc.complex.interior_vertices():
            mode = "cut"
            try:
                trial, decrease = vertex_descent_step(
                    disc,
                    v,
                    eps_saddle=cfg.eps_saddle,
                    line_search=cfg.line_search,
                    eps_area=eps_area,
                )
            except NotCuttable:
                mode = "gradient"
                trial, decrease = _gradient_step(disc, v, cfg.line_search, eps_area)
            except DegenerationBlocked:
                moves.append(MoveRecord(v, (0.0, 0.0, 0.0), 0.0, mode, blocked="degeneration"))
                continue
            if decrease > 0.0:
                disp = tuple(float(x) for x in (trial.positions[v] - disc.positions[v]))
                moves.append(MoveRecord(v, disp, decrease, mode))
                disc = trial

        area_end = disc.total_area()
        iterations.append(
            IterationRecord(
                index=index,
                area=area_end,
                flips=flips,
                reductions=tuple(reductions),
                moves=tuple(moves),
                triangle_count=len(disc.complex.triangles),
                flip_cap_exceeded=cap_exceeded,
                unresolved_violations=unresolved,
            )
        )
        if area_start - area_end <= eps_area:
            converged = not flips and not reductions and not cap_exceeded
            break

    certificate = certify_saddle(disc, cfg.eps_saddle)
    trace = OptimizationTrace(
        iterations=tuple(iterations),
        converged=converged,
        initial_area=initial_area,
        final_area=disc.total_area(),
        eps_area=eps_area,
        seed=cfg.rng_seed,
        certificate=certificate,
    )
    return disc, trace
