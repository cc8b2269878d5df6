"""The area minimization loop.

Each outer iteration runs three passes:

1. fan reductions: cut along empty triangles while any can be cut; the
   topology is scanned for them once, before the first iteration, and
   cuts and flip passes carry the list over (``_carried``, ``_flipped``);
2. flips, unless ``enable_flips`` is false: ``flips.flip_pass`` flips
   hinges whose adjacent angle sum is below pi, first eligible edge in
   sorted order after every flip;
3. vertex sweep: for every interior vertex, colour class by colour
   class, a damped Newton step on the star area, which is convex in the
   vertex; where no trial of it lowers the area by more than
   ``eps_area``, the cut move where the shared vertex test finds the
   star non-saddle and the gradient move otherwise.  Each is searched
   by backtracking, halving the step at most 30 times, and recorded as
   blocked when every trial step degenerates the star.

No colour class holds two neighbors, and two vertices that share no
edge share no face, so no move in a class changes the star of another;
the degeneracy floor is measured on the pinned boundary, so no move
changes another star's floor either.  Each class takes its Newton steps
from one call of the star kernel and one stacked solve, a multicolour
Gauss-Seidel sweep (Adams, SC 2001).

The sweep works on one mutable state: the positions and triangle areas
as Python floats, and a positions array whose moved rows are set in one
assignment when it is read.  A line-search trial is scored and checked
on the moved vertex's star alone, on Python floats, under the checks a
``PolyhedralDisc`` makes: the coordinate bound, and the disc's
degeneracy floor, which no interior move changes; a trial failing them
is refused as None.  An accepted trial is written into the state, and
its disc is built from the state, unvalidated, when the sweep ends; fan
reductions check only their flat triangle, so a run validates a disc in
full only at the jitter.  Every float is formed in the operations the
numpy rows of ``mesh`` use, so a run is bit-identical to one that
validated a disc per trial.  The kernel gives each star the bits it
gives that star alone, so a run is also bit-identical to one that
sweeps in the same order a vertex at a time.

The loop exits in one of three ways, which the trace records as its
``stop_reason``.  *stationary*: an iteration whose reductions and flips
changed nothing, short of the flip cap, finds before its sweep that
every interior vertex has a Newton decrement with lambda^2 / 2 at most
``eps_area`` (Boyd & Vandenberghe, *Convex Optimization*, 9.5.1), and
the saddle certificate of the disc is saddle.  Along any line, the
quadratic model of a star area falls by at most lambda^2 / 2, so no
trial of that sweep would lower the area by more than ``eps_area``: the
sweep is skipped, the iteration is recorded without moves, and the
certificate is the trace's.  Where the test fails, the stars and Newton
steps it computed are handed to the sweep, so nothing is computed
twice.  *stalled*: an iteration decreased total area by no more than
``eps_area``.  *iteration_cap*: neither happened.  The run has
*converged* exactly when it stopped stationary.

Where each threshold lives: ``eps_area``, the one a caller sets, is
resolved here and is every line search's ``min_gain`` and the stall
and stationarity tests' bound; the flip margin is ``flips.EPS_FLIP``;
the margin above which a star is cut, as the certificate decides it,
is ``saddle.EPS_SADDLE``; the degeneracy floor is ``PolyhedralDisc._floor``,
set by the pinned boundary, which every disc a flip, fan reduction or
sweep derives inherits; the jitter amplitude ``_JITTER`` is this module's.

An interior vertex is jittered once before the first iteration to
knock the input off razor-edge symmetric configurations; the amplitude
is relative to the disc diameter and the generator is seeded, so runs
are exactly reproducible.

Why a stationary sweep certifies as saddle: the derivative of area
with respect to one star edge length is l/2 (cot t1 + cot t2) with
t1, t2 the angles opposite the edge, which is nonnegative exactly when
the hinge sum sigma is at least pi.  Hinges with sigma below pi get
flipped away (or expose an empty triangle and get cut).  The position
gradient of the star area is minus the sum of these derivatives times
the unit star directions, so where the Newton steps bring it to zero,
the origin lies in the hull of the star directions and the vertex is
saddle, unless every incident derivative vanishes.  A stall proves no
such thing: a line search that finds no step can leave vertices
non-saddle, pinned as the tent's apex is or on slivered stars.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .errors import (
    DegenerateTriangle,
    DegenerationBlocked,
    InvalidInput,
    NotCuttable,
    _check,
    _check_tolerance,
    _is_number,
)
from .flips import EPS_FLIP, FanReduction, FlipPassResult, FlipRecord
from .flips import flip_pass, reduce_fan
from .mesh import _MAX_COORDINATE, PolyhedralDisc, _areas, _check_disc, _check_index, area_rows
from .mesh import edge_key, row_norms
from .saddle import EPS_SADDLE, SaddleCertificate, VertexVerdict, _vertex_verdicts, certify_saddle

_EYE = np.eye(3)  # damps every star Hessian
_STEP, _SHRINK, _MAX_BACKTRACKS = 0.5, 0.5, 30  # the schedule of _line_search
_JITTER = 1e-9  # relative to the disc diameter


# =====================================================================
# Configuration
# =====================================================================


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of :func:`minimize`: ``eps_area``, ``max_outer_iterations``,
    ``seed`` and ``enable_flips``.

    ``eps_area`` of None resolves to ``1e-12 * diameter**2`` of the
    input disc, the diameter of its pinned boundary, so it holds for the
    whole run.  ``enable_flips`` false keeps the flips out; fan
    reductions always run.
    """

    eps_area: Optional[float] = None
    max_outer_iterations: int = 10000
    seed: int = 0
    enable_flips: bool = True

    def __post_init__(self):
        _check_tolerance("eps_area", 0.0 if self.eps_area is None else self.eps_area)
        for name, value, low in (("max_outer_iterations", self.max_outer_iterations, 1),
                                 ("seed", self.seed, 0)):
            ok = _is_number(value, integer=True) and value >= low
            _check(name, value, ok, f"an integer >= {low}")
        flips = self.enable_flips
        _check("enable_flips", flips, isinstance(flips, bool), "true or false")

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        """Build from a JSON-style dict keyed by the field names;
        unknown keys are an error."""
        if not isinstance(data, dict):
            raise InvalidInput(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown, key=str)}")
        return cls(**data)

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
    an applied move, or the reason it was abandoned.  An iteration
    records its moves in sweep order: colour class by colour class."""

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
    """The record of a :func:`minimize` run.  ``stop_reason`` says why
    it ended: "stationary" (the certified exit), "stalled" (an iteration
    lowered the area by at most ``eps_area``) or "iteration_cap";
    ``converged`` is true exactly when it is "stationary"."""

    iterations: tuple[IterationRecord, ...]
    converged: bool
    stop_reason: str
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
        """The run in numbers, for ``--summary``: besides the totals,
        whether any flip pass hit the cap, the empty triangles the last
        iteration could not cut, and the vertex closest to failing
        certification, with the largest verdict margin (both None when
        the disc has no interior vertex)."""
        closest = max(self.certificate.verdicts, key=lambda v: v.margin, default=None)
        return {
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "iterations": len(self.iterations),
            "initial_area": self.initial_area,
            "final_area": self.final_area,
            "flips": sum(len(r.flips) for r in self.iterations),
            "reductions": sum(len(r.reductions) for r in self.iterations),
            "moves": sum(len(r.moves) for r in self.iterations),
            "saddle": self.certificate.saddle,
            "max_margin": None if closest is None else closest.margin,
            "max_margin_vertex": None if closest is None else closest.vertex,
            "flip_cap_exceeded": any(r.flip_cap_exceeded for r in self.iterations),
            "unresolved_violations": self.iterations[-1].unresolved_violations,
            "eps_area": self.eps_area,
            "seed": self.seed,
        }


# =====================================================================
# Passes
# =====================================================================


class _Stars:
    """The stars of ``vertices`` in a complex, one row per vertex.  Row r
    holds the faces ``faces[bounds[r]:bounds[r + 1]]``, ascending, the
    order in which its sums add them; ``corners`` are those triangles as
    stored, and ``xab`` the same rotated to start at the row's vertex.
    ``classes`` are the row ranges that a sweep moves together."""

    def __init__(self, cx, vertices, classes=()):
        self.vertices, self.classes = list(vertices), classes
        offsets, ring = cx.ring_offsets.tolist(), cx.ring_faces.tolist()
        self.faces, self.xab, self.bounds = [], [], [0]
        for v in self.vertices:
            faces = sorted(ring[offsets[v]:offsets[v + 1]])
            if faces[0] < 0:  # a boundary vertex's last ring slot has no face
                del faces[0]
            self.faces += faces
            self.bounds.append(len(self.faces))
            for t in map(cx.triangles.__getitem__, faces):
                k = t.index(v)
                self.xab.append((v, t[k - 2], t[k - 1]))
        self.corners = list(map(cx.triangles.__getitem__, self.faces))


def _sweep_stars(cx) -> _Stars:
    """The stars of the interior vertices of ``cx``, one class of rows per
    colour.  Largest degree first, ties by id, each vertex takes the
    smallest colour that no neighbor coloured before it holds (Welsh &
    Powell, *Computer J.* 10, 1967); each class keeps that order."""
    ring, offsets = cx.ring_vertices.tolist(), cx.ring_offsets.tolist()
    colour: dict[int, int] = {}
    classes: list[list[int]] = []
    for v in sorted(cx.interior_vertices(), key=lambda v: (offsets[v] - offsets[v + 1], v)):
        taken, c = {colour.get(u) for u in ring[offsets[v]:offsets[v + 1]]}, 0
        while c in taken:
            c += 1
        colour[v] = c
        if c == len(classes):
            classes.append([])
        classes[c].append(v)
    ends = list(itertools.accumulate(map(len, classes), initial=0))
    return _Stars(cx, [v for c in classes for v in c], list(zip(ends, ends[1:])))


def _star_terms(points: list, stars: _Stars, r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the star area in the vertex position, for
    the stars of rows ``r0`` to ``r1`` of ``stars`` at ``points`` (the
    positions as Python floats): arrays of shape (m, 3) and (m, 3, 3).

    An incident triangle (v, a, b) has normal n = (a - x) x (b - x)
    = a x b + x x d with d = a - b, so the star area f = 1/2 sum |n| is
    convex in x, with gradient 1/2 sum d x n^ (n^ = n / |n|) and Hessian
    1/2 sum [d]x^T (I - n^ n^T) [d]x / |n|.  As d lies in the triangle's
    plane, the Hessian term is |d|^2 / |n| n^ n^T: only moves off the
    plane curve the triangle's area.

    One loop forms each face's terms on Python floats, in the operations
    of ``cross_rows`` and ``row_norms``, and adds the gradient in face
    order as numpy's row sum does; d, n^ and |n| of all the rows become
    one table.  |d|^2 is one ``einsum`` over it, and the Hessians of each
    run of rows of one degree one stacked matmul, with no padding: a
    row's floats depend on its own star alone.
    """
    bounds, xab, corners = stars.bounds, stars.xab, stars.corners
    rows, gradients = [], []
    for lo, hi in zip(bounds[r0:r1], bounds[r0 + 1:r1 + 1]):
        g0 = g1 = g2 = -0.0
        for f, (x, a, b) in enumerate(xab[lo:hi], lo):
            x0, x1, x2 = points[x]
            a0, a1, a2 = points[a]
            b0, b1, b2 = points[b]
            u0, u1, u2 = a0 - x0, a1 - x1, a2 - x2
            w0, w1, w2 = b0 - x0, b1 - x1, b2 - x2
            n0, n1, n2 = u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0
            norm = math.sqrt(n0 * n0 + n1 * n1 + n2 * n2)
            if norm == 0.0:
                raise DegenerateTriangle(f"triangle {corners[f]} has zero area")
            e0, e1, e2 = n0 / norm, n1 / norm, n2 / norm
            d0, d1, d2 = a0 - b0, a1 - b1, a2 - b2
            g0 += d1 * e2 - d2 * e1
            g1 += d2 * e0 - d0 * e2
            g2 += d0 * e1 - d1 * e0
            rows += (d0, d1, d2, e0, e1, e2, norm)
        gradients += (0.5 * g0, 0.5 * g1, 0.5 * g2)
    table = np.array(rows).reshape(-1, 7)
    d, unit, norms = table[:, :3], table[:, 3:6], table[:, 6]
    weights = np.einsum("ij,ij->i", d, d) / norms
    hessians, lo = [], 0
    for k, run in itertools.groupby(b - a for a, b in zip(bounds[r0:r1], bounds[r0 + 1:r1 + 1])):
        hi = lo + k * len(list(run))  # the faces of a run of stars of degree k
        star = unit[lo:hi].reshape(-1, k, 3)
        hessians.append(0.5 * (star.transpose(0, 2, 1) * weights[lo:hi].reshape(-1, 1, k)) @ star)
        lo = hi
    return np.array(gradients).reshape(-1, 3), np.concatenate(hessians)


class _Sweep:
    """The working state of one vertex sweep: a disc's complex, the
    ``_Stars`` it sweeps, its positions and triangle areas as Python
    floats, always as valid as a PolyhedralDisc of them, and a writable
    copy of its positions, brought up to date when read (:attr:`positions`).
    It keeps the disc it was built from as ``source``, whose floor
    (``PolyhedralDisc._floor``) every trial is checked against and every
    built disc inherits, as the sweep moves only interior vertices.

    A line-search trial moves the vertex of one row and is scored and
    checked on its star alone (:meth:`trial`); an accepted trial is
    written back (:meth:`apply`), and :meth:`disc` builds the disc of
    the checked state, not validating it again.  The gradients and
    Newton steps of a row range (:meth:`newton`) are kept until a move
    is applied, so the stationarity test hands its work to the sweep's
    first class.
    """

    def __init__(self, disc: PolyhedralDisc, stars: _Stars):
        self.source, self.complex, self.stars = disc, disc.complex, stars
        self._positions, self._moved = np.array(disc.positions), set()
        self.points = self._positions.tolist()
        self.areas = disc._areas.tolist()
        self._newton: Optional[tuple] = None

    @property
    def positions(self) -> np.ndarray:
        """The positions array, the rows moved since the last read set from ``points``."""
        if self._moved:
            moved, self._moved = list(self._moved), set()
            self._positions[moved] = list(map(self.points.__getitem__, moved))
        return self._positions

    def newton(self, r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
        """The gradients g of the star areas of rows ``r0`` to ``r1`` and
        their damped Newton steps -(H + 1e-8 tr(H) I)^-1 g, from one
        stacked solve (a zero g has a zero step), kept until a move is
        applied.  A row's Newton decrement is -g.step."""
        if self._newton is None or self._newton[0] != (r0, r1):
            g, h = _star_terms(self.points, self.stars, r0, r1)
            damped = h + (1e-8 * h.trace(axis1=1, axis2=2))[:, None, None] * _EYE
            self._newton = (r0, r1), g, -np.linalg.solve(damped, g[:, :, None])[:, :, 0]
        return self._newton[1:]

    def trial(self, r: int, point) -> Optional[list[float]]:
        """The areas of the star faces of row ``r``, with its vertex moved
        to ``point`` (three Python floats), or None wherever constructing
        the moved disc would fail: a coordinate that is not finite or past
        the bound, or a star area below the floor of ``source``, which the
        move leaves as it is, with every face outside the star.
        """
        if not (abs(point[0]) <= _MAX_COORDINATE and abs(point[1]) <= _MAX_COORDINATE
                and abs(point[2]) <= _MAX_COORDINATE):
            return None
        stars, v, points = self.stars, self.stars.vertices[r], self.points
        start, points[v] = points[v], point  # the star's faces, with v at the trial point
        areas = _areas(points, stars.corners[stars.bounds[r]:stars.bounds[r + 1]])
        points[v] = start
        return areas if min(areas) >= self.source._floor else None

    def apply(self, r: int, trial) -> tuple[float, float, float]:
        """Move the vertex of row ``r`` as the accepted ``trial`` (point,
        star areas) says, in the Python floats, dropping the kept Newton
        steps; returns the displacement."""
        (p0, p1, p2), areas = trial
        v, stars = self.stars.vertices[r], self.stars
        (q0, q1, q2), self.points[v] = self.points[v], [p0, p1, p2]
        self._moved.add(v)
        for f, area in zip(stars.faces[stars.bounds[r]:stars.bounds[r + 1]], areas):
            self.areas[f] = area
        self._newton = None
        return p0 - q0, p1 - q1, p2 - q2

    def disc(self) -> PolyhedralDisc:
        return self.source._derived(self.complex, self.positions.copy(), np.array(self.areas))


def _line_search(
    sweep: _Sweep, r: int, first: np.ndarray, gradient: np.ndarray,
    min_gain: float, scale: Optional[float] = None, shorten: bool = False,
) -> tuple[Optional[tuple], float, bool]:
    """Backtracking search for the vertex of row ``r``: the displacement
    ``first``, then at most ``_MAX_BACKTRACKS`` shorter ones by factors
    of ``_SHRINK``.  Given a ``scale``, ``first`` is a unit direction,
    and the first trial goes ``_STEP * scale`` times the shortest star
    edge along it.

    A trial is accepted when ``_Sweep.trial`` returns its star areas,
    not None (its faces clear the floor of ``sweep.source`` and it stays
    within the coordinate bound), every star edge got shorter (if
    ``shorten``, which needs a ``scale``), and the star area dropped by
    more than ``min_gain``: the run's ``eps_area`` in the loop, 0 in
    ``vertex_descent_step``.  As the star area is convex, with
    ``gradient`` g at the start, the trial ``t * first`` lowers it by at
    most -t g.first, and the search ends once that is no more than
    ``min_gain``.  Returns (trial or None, decrease, blocked), the trial
    being the (point, star areas) that ``_Sweep.apply`` takes, with
    ``blocked`` true when ``_Sweep.trial`` refused every trial made.
    """
    stars, v = sweep.stars, sweep.stars.vertices[r]
    x0, x1, x2 = sweep.points[v]
    if scale is not None:
        neighbors = sweep.positions[list(sweep.complex.vertex_star(v))]
        lengths = row_norms(neighbors - sweep.positions[v])
        first = _STEP * scale * float(lengths.min()) * first
    slope = -float(gradient @ first)
    before = sum(map(sweep.areas.__getitem__, stars.faces[stars.bounds[r]:stars.bounds[r + 1]]))
    d0, d1, d2 = first.tolist()
    tried = nondegenerate = False
    step = 1.0
    for _ in range(_MAX_BACKTRACKS + 1):
        if step * slope <= min_gain:
            break
        tried = True
        point = (x0 + step * d0, x1 + step * d1, x2 + step * d2)
        areas = sweep.trial(r, point)
        if areas is not None:
            nondegenerate = True
            if not shorten or (row_norms(neighbors - point) < lengths).all():
                decrease = before - sum(areas)
                if decrease > min_gain:
                    return (point, areas), decrease, False
        step *= _SHRINK
    return None, 0.0, tried and not nondegenerate


def _cut_move(
    sweep: _Sweep, r: int, verdict: VertexVerdict, gradient: np.ndarray, min_gain: float
) -> tuple[Optional[tuple], float, bool]:
    """The paper's move of a non-saddle vertex (row ``r``): along its
    cutting direction from half the margin, every star edge shortening."""
    return _line_search(sweep, r, verdict.cut_normal, gradient, min_gain,
                        scale=0.5 * verdict.margin, shorten=True)


def _vertex_move(
    sweep: _Sweep, r: int, gradient: np.ndarray, newton: np.ndarray, min_gain: float
) -> tuple[str, Optional[tuple], float, bool]:
    """Pick and search the move of the vertex of row ``r``.

    The damped Newton step ``newton`` on the star area comes first: in
    full, then shrinking.  Only where no trial of it lowers the star
    area by more than ``min_gain`` does the shared vertex test decide: the
    cut move where the star is non-saddle, the gradient move along -g
    (from the shortest star edge) otherwise.  The gradient move applies
    where a sliver in the star defeats Newton: every trial pushes it
    through the degeneracy floor, or across the kink of its area.
    Returns (mode, trial or None, decrease, blocked), ``mode`` being
    "cut" or "gradient", the latter for Newton steps too.
    """
    trial, decrease, _ = _line_search(sweep, r, newton, gradient, min_gain)
    if trial is not None:
        return "gradient", trial, decrease, False
    (verdict,) = _vertex_verdicts(sweep, (sweep.stars.vertices[r],), EPS_SADDLE)
    if not verdict.is_saddle:
        return ("cut", *_cut_move(sweep, r, verdict, gradient, min_gain))
    norm = float(np.linalg.norm(gradient))
    if norm == 0.0:
        return "gradient", None, 0.0, False
    return ("gradient", *_line_search(sweep, r, -gradient / norm, gradient, min_gain, scale=1.0))


def _stationary(sweep: _Sweep, eps_area: float) -> bool:
    """Whether every vertex the sweep would move has a Newton decrement
    lambda^2 = g^T (H + 1e-8 tr(H) I)^-1 g = -g.step with lambda^2 / 2 at
    most ``eps_area`` (Boyd & Vandenberghe, *Convex Optimization*,
    9.5.1), taken class by class from one batched call each and stopping
    at the first class that has one above.  The steps of the class it
    stops at stay in ``sweep``: the sweep's first class takes them over."""
    for r0, r1 in sweep.stars.classes:
        g, step = sweep.newton(r0, r1)
        if any(-0.5 * float(gv @ sv) > eps_area for gv, sv in zip(g, step)):
            return False
    return True


def vertex_descent_step(disc: PolyhedralDisc, v: int) -> tuple[PolyhedralDisc, float]:
    """Move vertex ``v`` along its cutting direction.

    The first trial step is ``_STEP`` * margin * (shortest star edge)
    / 2, well inside the range where every star edge strictly
    shortens.  A trial is accepted when the star stays nondegenerate,
    every star edge got shorter, and the star area dropped at all.

    Returns (new disc, decrease); (same disc, 0.0) when no trial was
    acceptable.  Raises InvalidInput unless ``v`` is an interior vertex
    id, NotCuttable for a saddle vertex and DegenerationBlocked when
    every trial degenerated the star.
    """
    _check_disc(disc)
    if disc.complex.is_boundary_vertex(v):
        raise InvalidInput(f"vertex {v} is on the boundary")
    (verdict,) = _vertex_verdicts(disc, (v,), EPS_SADDLE)
    if verdict.is_saddle:
        raise NotCuttable(f"vertex {v} admits no cutting plane")
    sweep = _Sweep(disc, _Stars(disc.complex, (v,)))
    gradient = _star_terms(sweep.points, sweep.stars, 0, 1)[0][0]
    trial, decrease, blocked = _cut_move(sweep, 0, verdict, gradient, 0.0)
    if blocked:
        raise DegenerationBlocked(f"every step at vertex {v} degenerates its star")
    if trial is None:
        return disc, 0.0
    sweep.apply(0, trial)
    return sweep.disc(), decrease


# =====================================================================
# Gradients
# =====================================================================


def edge_length_area_derivative(disc: PolyhedralDisc, edge) -> float:
    """Derivative of total area with respect to one edge's length,
    holding every other side length fixed: l/2 times the sum of the
    cotangents of the angles opposite the edge in its one or two
    triangles."""
    _check_disc(disc)
    (u, v), opposite = disc.complex.opposite_vertices(edge)
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
    _check_disc(disc)
    if disc.complex.is_boundary_vertex(v):
        raise InvalidInput(f"vertex {v} is on the boundary")
    v = int(v)  # a numpy integer id still gives keys of Python ints
    return [
        (edge_key(v, u), edge_length_area_derivative(disc, (v, u)))
        for u in disc.complex.vertex_star(v)
    ]


def position_area_gradient(disc: PolyhedralDisc, v: int) -> np.ndarray:
    """Exact gradient of total area with respect to the position of
    ``v``: sum over incident triangles (v, a, b) of (a - b) x n / 2
    with n the triangle's unit normal."""
    _check_disc(disc)
    _check_index("vertex", v, disc.complex.vertex_count)
    return _star_terms(disc.positions.tolist(), _Stars(disc.complex, (v,)), 0, 1)[0][0]


# =====================================================================
# Driver
# =====================================================================


def _carried(violations: list, record: FanReduction) -> list:
    """The empty triangles after the cut ``record``: those before it, but
    its own and those that lost a vertex, renumbered.  A cut adds no edge
    among kept vertices and no face but its triple, and renumbers in
    order, so this is the sorted scan of the reduced complex."""
    ids = record.vertex_map
    return [tuple(map(ids.__getitem__, u)) for u in violations
            if u != record.triple and all(map(ids.__contains__, u))]


def _flipped(violations: list, flipped: FlipPassResult) -> list:
    """The empty triangles after the flip pass ``flipped``: those before it
    that still are, and each recorded diagonal still an edge with each common
    neighbour of its ends but its two opposite vertices.  A flip changes the
    edges or faces of no other triangles, so this is the sorted scan."""
    cx = flipped.disc.complex
    ring, offsets = cx.ring_vertices.tolist(), cx.ring_offsets.tolist()

    def opposite(u, v):  # the vertices opposite the edge (u, v), u < v; [] for no edge
        i = bisect_left(cx.edges, (u, v))
        return cx.opposite_array[i].tolist() if cx.edges[i:i + 1] == ((u, v),) else []

    found = {(u, v, w) for u, v, w in violations
             if (o := opposite(u, v)) and w not in o and opposite(u, w) and opposite(v, w)}
    for x, y in {r.diagonal for r in flipped.flips}:
        around = set(ring[offsets[x]:offsets[x + 1]]).intersection(ring[offsets[y]:offsets[y + 1]])
        if len(around) > 2 and y in ring[offsets[x]:offsets[x + 1]]:  # 2: its opposite vertices
            found.update(tuple(sorted((x, y, w))) for w in around.difference(opposite(x, y)))
    return sorted(found)


def minimize(
    disc: PolyhedralDisc, config: Optional[OptimizerConfig] = None
) -> tuple[PolyhedralDisc, OptimizationTrace]:
    """Minimize disc area under flips, fan reductions and vertex moves.

    Returns the final disc and a trace whose ``certificate`` reports
    the cutting-plane test at every interior vertex of the result.
    ``disc`` must be a PolyhedralDisc and ``config`` an OptimizerConfig
    or None (InvalidInput).
    """
    _check_disc(disc)
    cfg = config if config is not None else OptimizerConfig()
    _check("config", cfg, isinstance(cfg, OptimizerConfig), "an OptimizerConfig or None")
    rng = np.random.default_rng(cfg.seed)
    eps_area = (
        cfg.eps_area if cfg.eps_area is not None else 1e-12 * disc.diameter**2
    )
    initial_area = disc.total_area()

    interior = disc.complex.interior_vertices()
    if interior:
        offsets = (
            _JITTER
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
    stop_reason = "iteration_cap"
    violations = disc.complex.no_triangle_violations()  # cuts and flip passes carry it over
    swept = stars = None
    for index in range(1, cfg.max_outer_iterations + 1):
        area_start = disc.total_area()
        reductions: list[FanReduction] = []
        moves: list[MoveRecord] = []

        while True:
            unresolved = 0  # the refusals of the last pass over the list, which cut nothing
            for triple in violations:
                try:
                    disc, record = reduce_fan(disc, triple)
                except DegenerateTriangle:  # the one refusal of a genuine empty triangle
                    unresolved += 1
                    continue
                reductions.append(record)
                violations = _carried(violations, record)
                break  # vertex ids changed: start over on the carried list
            else:
                break

        flipped = (flip_pass(disc, EPS_FLIP) if cfg.enable_flips
                   else FlipPassResult(disc, (), False))
        if flipped.flips:  # the pass carries the list over, as a cut does
            violations = _flipped(violations, flipped)
        disc = flipped.disc

        if disc.complex is not swept:  # the colouring reads only the topology
            swept, stars = disc.complex, _sweep_stars(disc.complex)
        sweep = _Sweep(disc, stars)
        classes = stars.classes
        if (not flipped.flips and not reductions and not flipped.cap_exceeded
                and _stationary(sweep, eps_area)):
            certificate = certify_saddle(disc, EPS_SADDLE)
            if certificate.saddle:  # the sweep would move nothing: skip it
                stop_reason, classes = "stationary", ()
        for r0, r1 in classes:  # no move in a class changes the star of another
            g, step = sweep.newton(r0, r1)
            for r in range(r0, r1):
                mode, trial, decrease, blocked = _vertex_move(sweep, r, g[r - r0], step[r - r0],
                                                              eps_area)
                if trial is None and not blocked:
                    continue
                disp = (0.0, 0.0, 0.0) if trial is None else sweep.apply(r, trial)
                moves.append(MoveRecord(stars.vertices[r], disp, decrease, mode,
                                        "degeneration" if blocked else None))
        if any(m.blocked is None for m in moves):  # a blocked move leaves v in place
            disc = sweep.disc()

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
        if stop_reason == "stationary":
            break
        if area_start - area_end <= eps_area:
            stop_reason = "stalled"
            break

    trace = OptimizationTrace(
        iterations=tuple(iterations),
        converged=stop_reason == "stationary",
        stop_reason=stop_reason,
        initial_area=initial_area,
        final_area=disc.total_area(),
        eps_area=eps_area,
        seed=cfg.seed,
        certificate=(certificate if stop_reason == "stationary"
                     else certify_saddle(disc, EPS_SADDLE)),
    )
    return disc, trace
