"""The area minimization loop.

Each outer iteration runs three passes:

1. fan reductions: cut along empty triangles while any can be cut;
2. flips: ``flips.flip_pass`` flips hinges whose adjacent angle sum is
   below pi, first eligible edge in sorted order after every flip;
3. vertex sweep: for every interior vertex in ascending order, a damped
   Newton step on the star area, which is convex in the vertex; where
   no trial of it lowers the area by more than ``eps_area``, the cut
   move where the shared vertex test finds the star non-saddle and the
   gradient move otherwise.  Each is searched by backtracking and
   recorded as blocked when every trial step degenerates the star.

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
flipped away (or expose an empty triangle and get cut).  The position
gradient of the star area is minus the sum of these derivatives times
the unit star directions, so where the Newton steps bring it to zero,
the origin lies in the hull of the star directions and the vertex is
saddle, unless every incident derivative vanishes.  Likewise, moving a
non-saddle vertex along its cutting direction shortens every star edge
at once, so while any incident hinge has sigma strictly above pi the
move strictly decreases area.  Stalling while non-saddle therefore
requires every incident hinge to sit at sigma = pi simultaneously,
which the jitter makes vanishingly unlikely.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateTriangle,
    DegenerationBlocked,
    InvalidInput,
    NotCuttable,
    _check,
    _check_tolerance,
    _is_number,
)
from .flips import FanReduction, FlipPassResult, FlipRecord, _opposite_vertices
from .flips import flip_pass, reduce_fan
from .mesh import PolyhedralDisc, area_rows, cross_rows, edge_key, row_norms
from .saddle import SaddleCertificate, VertexVerdict, _vertex_verdict, certify_saddle


# =====================================================================
# Configuration
# =====================================================================


@dataclass(frozen=True)
class LineSearch:
    """Backtracking schedule: multiply the trial step by ``shrink`` on
    rejection, at most ``max_backtracks`` times.  ``step`` scales the
    first trial of the cut and steepest-descent moves, which start from
    the shortest star edge; Newton's first trial is the full Newton
    step."""

    step: float = 0.5
    shrink: float = 0.5
    max_backtracks: int = 30


def _reject_unknown(what: str, data: dict, cls) -> None:
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidInput(f"unknown {what} keys: {sorted(unknown)}")


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
    seed: int = 0
    enable_flips: bool = True
    enable_reductions: bool = True

    def __post_init__(self):
        ls = self.line_search
        _check("line_search", ls, isinstance(ls, LineSearch), "a LineSearch")
        for name, value in (
            ("eps_flip", self.eps_flip),
            ("eps_saddle", self.eps_saddle),
            ("eps_area", 0.0 if self.eps_area is None else self.eps_area),
        ):
            _check_tolerance(name, value)
        # relative to the disc diameter: above 1 the jitter outgrows the disc
        jitter = self.jitter_amplitude
        _check("jitter_amplitude", jitter, _is_number(jitter) and 0.0 <= jitter <= 1.0,
               "a number between 0 and 1")
        budget = 1 if self.triangle_budget is None else self.triangle_budget
        for name, value, low in (
            ("triangle_budget", budget, 1),
            ("max_outer_iterations", self.max_outer_iterations, 1),
            ("line_search.max_backtracks", ls.max_backtracks, 0),
            ("seed", self.seed, 0),
        ):
            ok = _is_number(value, integer=True) and value >= low
            _check(name, value, ok, f"an integer >= {low}")
        step, shrink = ls.step, ls.shrink
        _check("line_search.step", step, _is_number(step) and step > 0.0, "a finite number > 0")
        _check("line_search.shrink", shrink, _is_number(shrink) and 0.0 < shrink < 1.0,
               "strictly between 0 and 1")
        for name in ("enable_flips", "enable_reductions"):
            value = getattr(self, name)
            _check(name, value, isinstance(value, bool), "true or false")

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        """Build from a JSON-style dict keyed by the field names, with
        ``line_search`` a dict keyed by LineSearch's; unknown keys are
        an error, and a missing or null ``line_search`` the default."""
        if not isinstance(data, dict):
            raise InvalidInput(f"config must be a JSON object, got {type(data).__name__}")
        kwargs = dict(data)
        ls = kwargs.pop("line_search", None)
        if ls is not None:
            if not isinstance(ls, dict):
                raise InvalidInput(f"line_search must be a JSON object, got {ls!r}")
            _reject_unknown("line_search", ls, LineSearch)
            kwargs["line_search"] = LineSearch(**ls)
        _reject_unknown("config", kwargs, cls)
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return asdict(self)


# =====================================================================
# Records
# =====================================================================


@dataclass(frozen=True)
class MoveRecord:
    """One vertex update.  ``mode`` is "cut" for the cutting-plane move
    or "gradient" for a descent step on the smooth star area: damped
    Newton, with steepest descent as fallback.  ``blocked`` is None for
    an applied move, or the reason it was abandoned."""

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


def _line_search(
    disc: PolyhedralDisc, v: int, first: np.ndarray, gradient: np.ndarray,
    line_search: LineSearch, floor: float, shorten: bool = False,
) -> tuple[Optional[PolyhedralDisc], float, bool]:
    """Backtracking search for vertex ``v``: the displacement ``first``,
    then shorter ones by factors of ``line_search.shrink``.

    A trial is accepted when the star stays nondegenerate, every star
    edge got shorter (if ``shorten``), and the star area dropped by more
    than ``floor``.  As the star area is convex, with ``gradient`` g at
    the start, the trial ``t * first`` lowers it by at most -t g.first,
    and the search ends once that is no more than ``floor``.  Returns
    (trial or None, decrease, blocked), with ``blocked`` true when every
    trial made degenerated the star.
    """
    slope = -float(gradient @ first)
    p = disc.positions
    faces = disc.complex.vertex_faces[v]
    if shorten:
        star = list(disc.complex.vertex_star(v))
        lengths = row_norms(p[star] - p[v])
    before = sum(disc.triangle_area(f) for f in faces)
    tried = nondegenerate = False
    step = 1.0
    for _ in range(line_search.max_backtracks + 1):
        if step * slope <= floor:
            break
        tried = True
        try:
            trial = disc.moved(v, p[v] + step * first)
        except DegenerateTriangle:
            step *= line_search.shrink
            continue
        nondegenerate = True
        q = trial.positions
        if not shorten or not np.any(row_norms(q[star] - q[v]) >= lengths):
            decrease = before - sum(trial.triangle_area(f) for f in faces)
            if decrease > floor:
                return trial, decrease, False
        step *= line_search.shrink
    return None, 0.0, tried and not nondegenerate


def _first_step(
    disc: PolyhedralDisc, verdict: VertexVerdict, direction: np.ndarray, scale: float,
    line_search: LineSearch,
) -> np.ndarray:
    """First trial of a cut or steepest-descent move: ``step * scale``
    times the shortest star edge, along the unit ``direction``."""
    p, v = disc.positions, verdict.vertex
    shortest = float(row_norms(p[list(verdict.star)] - p[v]).min())
    return line_search.step * scale * shortest * direction


def _cut_move(
    disc: PolyhedralDisc, verdict: VertexVerdict, gradient: np.ndarray,
    line_search: LineSearch, floor: float,
) -> tuple[Optional[PolyhedralDisc], float, bool]:
    """The paper's move of a non-saddle vertex: along its cutting
    direction from half the margin, every star edge shortening."""
    first = _first_step(disc, verdict, verdict.cut_normal, 0.5 * verdict.margin, line_search)
    return _line_search(disc, verdict.vertex, first, gradient, line_search, floor, shorten=True)


def _vertex_move(
    disc: PolyhedralDisc, v: int, eps_saddle: float, line_search: LineSearch, floor: float
) -> tuple[str, Optional[PolyhedralDisc], float, bool]:
    """Pick and search the move of interior vertex ``v``.

    The damped Newton step -(H + 1e-8 tr(H) I)^-1 g on the star area
    comes first: in full, then shrinking.  Only where no trial of it
    lowers the star area by more than ``floor`` does the shared vertex
    test decide: the cut move where the star is non-saddle, the
    gradient move along -g (from the shortest star edge) otherwise.
    The gradient move applies where a sliver in the star defeats
    Newton: every trial pushes it through the degeneracy floor, or
    across the kink of its area.  Returns (mode, trial or None,
    decrease, blocked), ``mode`` being "cut" or "gradient", the latter
    for Newton steps too.
    """
    _, g, h = _star_area(disc, v)
    if np.any(g):
        newton = -np.linalg.solve(h + 1e-8 * np.trace(h) * np.eye(3), g)
        trial, decrease, _ = _line_search(disc, v, newton, g, line_search, floor)
        if trial is not None:
            return "gradient", trial, decrease, False
    verdict = _vertex_verdict(disc, v, eps_saddle)
    if not verdict.is_saddle:
        return ("cut", *_cut_move(disc, verdict, g, line_search, floor))
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        return "gradient", None, 0.0, False
    first = _first_step(disc, verdict, -g / norm, 1.0, line_search)
    return ("gradient", *_line_search(disc, v, first, g, line_search, floor))


def vertex_descent_step(
    disc: PolyhedralDisc,
    v: int,
    eps_saddle: float = 1e-7,
    line_search: LineSearch = LineSearch(),
    eps_area: Optional[float] = None,
) -> tuple[PolyhedralDisc, float]:
    """Move vertex ``v`` along its cutting direction.

    The first trial step is line_search.step * margin * (shortest
    star edge) / 2, well inside the range where every star edge strictly
    shortens.  A trial is accepted when the star stays nondegenerate,
    every star edge got shorter, and the star area dropped by more
    than ``eps_area``, a finite number >= 0 (None means any positive drop).

    Returns (new disc, decrease); (same disc, 0.0) when no trial was
    acceptable.  Raises NotCuttable for a saddle vertex and
    DegenerationBlocked when every trial degenerated the star.
    """
    floor = 0.0 if eps_area is None else eps_area
    _check_tolerance("eps_area", floor)
    if disc.complex.is_boundary_vertex(v):
        raise InvalidInput(f"vertex {v} is on the boundary")
    verdict = _vertex_verdict(disc, v, eps_saddle)
    if verdict.is_saddle:
        raise NotCuttable(f"vertex {v} admits no cutting plane")
    gradient = position_area_gradient(disc, v)
    trial, decrease, blocked = _cut_move(disc, verdict, gradient, line_search, floor)
    if blocked:
        raise DegenerationBlocked(f"every step at vertex {v} degenerates its star")
    return (disc, 0.0) if trial is None else (trial, decrease)


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
        raise InvalidInput(f"vertex {v} is on the boundary")
    return [
        (edge_key(v, u), edge_length_area_derivative(disc, (v, u)))
        for u in disc.complex.vertex_star(v)
    ]


def _star_area(disc: PolyhedralDisc, v: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Area of the star of ``v`` with its gradient and Hessian in the
    position x of ``v``.

    An incident triangle (v, a, b) has normal n = (a - x) x (b - x)
    = a x b + x x d with d = a - b, so the star area f = 1/2 sum |n| is
    convex in x, with gradient 1/2 sum d x n^ (n^ = n / |n|) and Hessian
    1/2 sum [d]x^T (I - n^ n^T) [d]x / |n|.  As d lies in the triangle's
    plane, the Hessian term is |d|^2 / |n| n^ n^T: only moves off the
    plane curve the triangle's area.
    """
    cx, p = disc.complex, disc.positions
    faces = [cx.triangles[i] for i in cx.vertex_faces[v]]
    rotated = np.array([t[t.index(v):] + t[:t.index(v)] for t in faces], dtype=np.intp)
    a, b = p[rotated[:, 1]], p[rotated[:, 2]]
    n = cross_rows(a - p[v], b - p[v])
    norms = row_norms(n)
    if np.any(norms == 0.0):
        raise DegenerateTriangle(f"triangle {faces[int(np.argmin(norms))]} has zero area")
    d = a - b
    unit = n / norms[:, None]
    gradient = 0.5 * cross_rows(d, unit).sum(axis=0)
    hessian = 0.5 * (unit.T * (np.einsum("ij,ij->i", d, d) / norms)) @ unit
    return 0.5 * float(norms.sum()), gradient, hessian


def position_area_gradient(disc: PolyhedralDisc, v: int) -> np.ndarray:
    """Exact gradient of total area with respect to the position of
    ``v``: sum over incident triangles (v, a, b) of (a - b) x n / 2
    with n the triangle's unit normal."""
    return _star_area(disc, v)[1]


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
    rng = np.random.default_rng(cfg.seed)
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
        except (DegenerateTriangle, InvalidInput):
            pass  # a degenerate triangle or past the coordinate bound: keep the input

    iterations: list[IterationRecord] = []
    converged = False
    for index in range(1, cfg.max_outer_iterations + 1):
        area_start = disc.total_area()
        reductions: list[FanReduction] = []
        moves: list[MoveRecord] = []
        unresolved = 0

        while cfg.enable_reductions:
            unresolved = 0  # the refusals of the last scan, which cut nothing
            for triple in disc.complex.no_triangle_violations():
                try:
                    disc, record = reduce_fan(disc, triple)
                except DegenerateTriangle:  # the one refusal of a genuine empty triangle
                    unresolved += 1
                    continue
                reductions.append(record)
                break  # vertex ids changed, rescan
            else:
                break

        flipped = (flip_pass(disc, cfg.eps_flip) if cfg.enable_flips
                   else FlipPassResult(disc, (), False))
        disc = flipped.disc

        for v in disc.complex.interior_vertices():
            mode, trial, decrease, blocked = _vertex_move(
                disc, v, cfg.eps_saddle, cfg.line_search, eps_area
            )
            if trial is None and not blocked:
                continue
            moved = disc if trial is None else trial
            disp = tuple(float(x) for x in moved.positions[v] - disc.positions[v])
            moves.append(MoveRecord(v, disp, decrease, mode, "degeneration" if blocked else None))
            disc = moved

        area_end = disc.total_area()
        iterations.append(
            IterationRecord(
                index=index,
                area=area_end,
                flips=flipped.flips,
                reductions=tuple(reductions),
                moves=tuple(moves),
                triangle_count=len(disc.complex.triangles),
                flip_cap_exceeded=flipped.cap_exceeded,
                unresolved_violations=unresolved,
            )
        )
        if area_start - area_end <= eps_area:
            converged = not flipped.flips and not reductions and not flipped.cap_exceeded
            break

    certificate = certify_saddle(disc, cfg.eps_saddle)
    trace = OptimizationTrace(
        iterations=tuple(iterations),
        converged=converged,
        initial_area=initial_area,
        final_area=disc.total_area(),
        eps_area=eps_area,
        seed=cfg.seed,
        certificate=certificate,
    )
    return disc, trace
