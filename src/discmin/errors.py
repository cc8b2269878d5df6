"""Exception hierarchy for discmin, and the checks that raise InvalidInput.

Structural problems with a simplicial complex raise subclasses of
``TopologyError``; a malformed argument raises ``InvalidInput``, also a
``ValueError``; geometric and numerical problems raise the flat
exception types below, and ``InvariantViolation`` marks a defect in
this package rather than in its input.  Everything inherits from
``DiscminError`` so callers can catch the whole family at once; the
command line reports any of them with exit code 4, not a traceback.
"""

from __future__ import annotations

import math
import numbers


class DiscminError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(DiscminError, ValueError):
    """An argument has the wrong type, shape or value."""


def _is_number(x, integer: bool = False, finite: bool = True) -> bool:
    """A real, finite unless not ``finite`` (an integer when ``integer``); bools excluded."""
    if type(x) is int:  # the common cases, without the abstract-class checks below
        return True
    if type(x) is float:
        return not integer and (not finite or math.isfinite(x))
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    return isinstance(x, numbers.Integral) or (not integer and (not finite or math.isfinite(x)))


def _check(name: str, value, ok: bool, wanted: str) -> None:
    if not ok:
        raise InvalidInput(f"{name} must be {wanted}, got {value!r}")


def _check_tolerance(name: str, value) -> None:
    _check(name, value, _is_number(value) and value >= 0.0, "a finite number >= 0")


# =====================================================================
# Combinatorial structure
# =====================================================================


class TopologyError(DiscminError):
    """The triangle list does not describe a triangulated disc."""


class NonManifoldEdge(TopologyError):
    """Some edge is shared by three or more triangles."""


class MultipleBoundaryComponents(TopologyError):
    """The boundary edges do not form a single closed cycle."""


class WrongEuler(TopologyError):
    """V - E + F != 1, so the surface is not a disc."""


class DisconnectedComplex(TopologyError):
    """The triangles do not form a single edge-connected component."""


# =====================================================================
# Geometry
# =====================================================================


class DegenerateTriangle(DiscminError):
    """A triangle's area fell below the degeneracy threshold."""


class DegenerateParameters(DiscminError):
    """Scenario parameters fail the constructor's own postconditions."""


# =====================================================================
# Quadrilateral hinge family
# =====================================================================


class InvalidSpec(DiscminError):
    """Side lengths cannot form a nondegenerate quadrilateral family."""


class AlphaOutOfRange(DiscminError):
    """Requested opposite-angle sum lies outside the feasible interval."""


# =====================================================================
# Moves
# =====================================================================


class BoundaryEdge(DiscminError):
    """Operation requires an interior edge but got a boundary edge."""


class FlipForbidden(DiscminError):
    """The requested edge flip is combinatorially disallowed."""


class NotAViolation(DiscminError):
    """The given triple is not an empty triangle of the complex."""


class CycleBoundsBoundary(DiscminError):
    """The violating cycle does not enclose a reducible region."""


class EmptyStar(DiscminError):
    """A vertex star with no incident edges was given to the certifier."""


class NotCuttable(DiscminError):
    """No cutting plane exists: the vertex star is already saddle."""


class DegenerationBlocked(DiscminError):
    """Every candidate descent step would degenerate a star triangle."""


class InvariantViolation(DiscminError):
    """A guarantee the package checks for itself broke: a flip, flip pass or
    fan reduction changed the boundary cycle, a fan reduction increased
    area, Wolfe's solver had a minor cycle that dropped no point or hit its
    major-cycle cap, or the OBJ reader's bulk checks refused a file its line checks accept."""


# =====================================================================
# Input/output
# =====================================================================


class ParseError(DiscminError):
    """Malformed mesh file.  Carries 1-based line and column numbers."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
