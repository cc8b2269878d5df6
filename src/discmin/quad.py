"""One-parameter family of hinged quadrilaterals.

Fix four side lengths p, q, r, s and consider two triangles sharing a
diagonal of length d: one with sides p, q, d and one with sides r, s,
d.  Write theta_x and theta_y for the angles opposite the diagonal.
As d sweeps its feasible interval the angle sum

    alpha = theta_x + theta_y

increases strictly, so alpha parameterizes the family just as well,
and the combined area

    A(alpha) = (p q sin theta_x + r s sin theta_y) / 2

is a smooth function of alpha.  A increases up to alpha = pi and
decreases beyond it, which is the engine behind every flip inequality
in this package: any pair of triangles sharing an edge in R^3 is a
member of such a family, whichever diagonal you hinge on.

Equating the law of cosines for d in both triangles, with
theta_y = alpha - theta_x, gives R cos(theta_x + phi) = C, where

    A = 2pq - 2rs cos alpha,  B = 2rs sin alpha,  C = p^2 + q^2 - r^2 - s^2,
    R = hypot(A, B),  phi = atan2(B, A).

``diagonal_from_alpha`` takes the root theta_x = arccos(C / R) - phi,
where sin(theta_x + phi) > 0: on the feasible interval the gap
C - R cos(theta_x + phi) between the two squared diagonals rises with
theta_x.  Then d^2 = (p - q)^2 + 4pq sin^2(theta_x / 2), the law of
cosines as a sum of two terms >= 0, so a short diagonal loses no digits
to cancellation.  Both angles carry the same error, and each moves d by
its triangle's area over d, so d comes from the triangle of smaller area
(the r-s one with theta_y = alpha - theta_x when that is smaller).  The
ends of the interval map to d_min and d_max exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphaOutOfRange, InvalidInput, InvalidSpec, _check, _is_number
from .mesh import _MAX_COORDINATE, _real_array

_RANGE_SLACK = 1e-9
# 1 / _MAX_COORDINATE: within these bounds no p**2, 2 p q or p q r s over- or underflows
_MIN_SIDE = 1e-75


@dataclass(frozen=True)
class QuadSpec:
    """Side lengths of the family: p, q on one side of the hinge, r, s
    on the other.  The diagonal runs between the p-q and r-s apexes'
    shared endpoints.  Each must be a real number (InvalidInput) in
    [1e-75, 1e75], the bound that ``PolyhedralDisc`` puts on coordinates,
    so no law-of-cosines term over- or underflows (InvalidSpec)."""

    p: float
    q: float
    r: float
    s: float

    def __post_init__(self):
        sides = (self.p, self.q, self.r, self.s)
        for name, x in zip("pqrs", sides):
            _check(name, x, _is_number(x, finite=False), "a real number")
        if not all(_MIN_SIDE <= x <= _MAX_COORDINATE for x in sides):
            raise InvalidSpec(
                f"side lengths must lie in [{_MIN_SIDE:g}, {_MAX_COORDINATE:g}], "
                f"got {sides}"
            )
        if not self.diagonal_max - self.diagonal_min > 0.0:
            raise InvalidSpec(
                f"sides {sides} admit no open interval of diagonals "
                f"(d_min={self.diagonal_min}, d_max={self.diagonal_max})"
            )

    @property
    def diagonal_min(self) -> float:
        return max(abs(self.p - self.q), abs(self.r - self.s))

    @property
    def diagonal_max(self) -> float:
        return min(self.p + self.q, self.r + self.s)


@dataclass(frozen=True)
class HingeState:
    """One member of the family: achieved angles, their sum, and the
    diagonal length realizing them."""

    spec: QuadSpec
    alpha: float
    diagonal: float
    angle_x: float
    angle_y: float

    def area(self) -> float:
        return _area(self.spec, self.angle_x, self.angle_y)


def _area(spec: QuadSpec, ax, ay):
    """(p q sin theta_x + r s sin theta_y) / 2, for scalars or arrays."""
    return 0.5 * (spec.p * spec.q * np.sin(ax) + spec.r * spec.s * np.sin(ay))


def _angles(spec: QuadSpec, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Law of cosines both sides of the hinge, squares as products (``**``
    # takes pow for a numpy scalar, a multiply for an array); clamp for
    # roundoff at the collapsed and stretched ends of the interval.
    cx = (spec.p * spec.p + spec.q * spec.q - d * d) / (2.0 * spec.p * spec.q)
    cy = (spec.r * spec.r + spec.s * spec.s - d * d) / (2.0 * spec.r * spec.s)
    return np.arccos(np.clip(cx, -1.0, 1.0)), np.arccos(np.clip(cy, -1.0, 1.0))


def alpha_range(spec: QuadSpec) -> tuple[float, float]:
    """Feasible interval of the opposite-angle sum; InvalidInput unless
    ``spec`` is a QuadSpec, which every inversion checks through here."""
    _check("spec", spec, isinstance(spec, QuadSpec), "a QuadSpec")
    lo = float(np.add(*_angles(spec, np.float64(spec.diagonal_min))))
    hi = float(np.add(*_angles(spec, np.float64(spec.diagonal_max))))
    return lo, hi


def _invert_alpha(spec: QuadSpec, alphas: np.ndarray) -> np.ndarray:
    """Diagonals realizing the angle sums ``alphas``, in closed form;
    AlphaOutOfRange for any value (NaN included) outside the feasible
    interval by more than the slack.  Values past an end map to its diagonal."""
    lo, hi = alpha_range(spec)
    slack = _RANGE_SLACK * (hi - lo)
    if not np.all((lo - slack <= alphas) & (alphas <= hi + slack)):
        raise AlphaOutOfRange(
            f"alpha {alphas} outside [{lo}, {hi}] for sides "
            f"({spec.p}, {spec.q}, {spec.r}, {spec.s})"
        )
    p, q, r, s = spec.p, spec.q, spec.r, spec.s
    a = 2.0 * p * q - 2.0 * r * s * np.cos(alphas)
    b = 2.0 * r * s * np.sin(alphas)
    radius = np.hypot(a, b)  # 0 only at an end, where the ratio is 0 / 0
    ratio = np.divide(p**2 + q**2 - r**2 - s**2, radius,
                      out=np.zeros_like(radius), where=radius > 0.0)
    theta_x = np.arccos(np.clip(ratio, -1.0, 1.0)) - np.arctan2(b, a)
    theta_y = alphas - theta_x
    dx = np.sqrt((p - q) ** 2 + 4.0 * p * q * np.sin(0.5 * theta_x) ** 2)
    dy = np.sqrt((r - s) ** 2 + 4.0 * r * s * np.sin(0.5 * theta_y) ** 2)
    d = np.where(p * q * np.sin(theta_x) <= r * s * np.sin(theta_y), dx, dy)
    d = np.clip(d, spec.diagonal_min, spec.diagonal_max)
    return np.where(alphas <= lo, spec.diagonal_min, np.where(alphas >= hi, spec.diagonal_max, d))


def diagonal_from_alpha(spec: QuadSpec, alpha: float) -> HingeState:
    """Member of the family with opposite-angle sum ``alpha``.

    Raises
    ------
    InvalidInput
        If ``spec`` is not a QuadSpec or ``alpha`` not a real number.
    AlphaOutOfRange
        If ``alpha`` lies outside the feasible interval by more than a
        relative 1e-9 slack.  Values inside the slack are clamped.
    """
    _check("alpha", alpha, _is_number(alpha, finite=False), "a real number")
    d = float(_invert_alpha(spec, np.array([alpha], dtype=float))[0])
    ax, ay = _angles(spec, np.float64(d))
    return HingeState(
        spec=spec,
        alpha=float(ax + ay),
        diagonal=d,
        angle_x=float(ax),
        angle_y=float(ay),
    )


def area_of_alpha(spec: QuadSpec, alpha: float) -> float:
    return float(diagonal_from_alpha(spec, alpha).area())


def area_curve(spec: QuadSpec, alphas) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sweep of the family.

    Parameters
    ----------
    alphas:
        Array of real angle sums (InvalidInput otherwise); all must lie
        in the feasible interval (up to the same slack as
        :func:`diagonal_from_alpha`).

    Returns
    -------
    (diagonals, areas):
        Arrays of the same shape as ``alphas``.
    """
    array = _real_array(alphas)
    if array is None:
        raise InvalidInput(f"alphas must be real numbers, got {alphas!r}")
    d = _invert_alpha(spec, array)
    ax, ay = _angles(spec, d)
    return d, _area(spec, ax, ay)


def d_area_d_alpha(spec: QuadSpec, alpha: float) -> float:
    """Slope of the area curve, p q r s sin(alpha) / (4 A(alpha)).

    With the diagonal d as intermediate variable, dA/dd is
    d/2 (cot theta_x + cot theta_y) and dalpha/dd is
    d/(p q sin theta_x) + d/(r s sin theta_y); their quotient reduces
    to the form above.  Where both triangles collapse at once (A = 0
    at an end of the interval) the slope tends to +-sqrt(p q r s)/2.
    """
    state = diagonal_from_alpha(spec, alpha)
    area = state.area()
    pqrs = spec.p * spec.q * spec.r * spec.s
    if area == 0.0:
        return float(np.copysign(0.5 * np.sqrt(pqrs), np.pi - state.alpha))
    return float(pqrs * np.sin(state.alpha) / (4.0 * area))


def embed_planar(state: HingeState) -> np.ndarray:
    """Planar realization of a family member, as four points in R^3.

    Rows are a, x, b, y with the hinge [a, b] on the x-axis, apex x at
    distance p from a and q from b above it, apex y at distance r from
    a and s from b below it.  When the diagonal collapses to zero the
    hinge endpoints coincide at the origin.  InvalidInput unless ``state``
    is a HingeState.
    """
    _check("state", state, isinstance(state, HingeState), "a HingeState")
    p, q, r, s = state.spec.p, state.spec.q, state.spec.r, state.spec.s
    d = state.diagonal
    if d == 0.0:
        return np.array(
            [[0.0, 0.0, 0.0], [0.0, p, 0.0], [0.0, 0.0, 0.0], [0.0, -r, 0.0]]
        )
    x1 = (p**2 - q**2 + d**2) / (2.0 * d)
    y1 = (r**2 - s**2 + d**2) / (2.0 * d)
    h = np.sqrt(max(p**2 - x1**2, 0.0))
    k = np.sqrt(max(r**2 - y1**2, 0.0))
    return np.array(
        [[0.0, 0.0, 0.0], [x1, h, 0.0], [d, 0.0, 0.0], [y1, -k, 0.0]]
    )
