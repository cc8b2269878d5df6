"""Exception hierarchy for discmin.

Structural problems with a simplicial complex raise subclasses of
``TopologyError``; geometric and numerical problems raise the flat
exception types below, and ``InvariantViolation`` marks a defect in
this package rather than in its input.  Everything inherits from
``DiscminError`` so callers can catch the whole family at once; the
command line reports any of them with exit code 4, not a traceback.
"""

from __future__ import annotations


class DiscminError(Exception):
    """Base class for every error raised by this package."""


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


class BudgetExceeded(DiscminError):
    """The triangle budget was exhausted before the move could apply."""


class InvariantViolation(DiscminError):
    """A move broke a guarantee it checks for itself: a flip changed the
    boundary cycle, or a fan reduction increased area."""


# =====================================================================
# Input/output
# =====================================================================


class ParseError(DiscminError):
    """Malformed mesh file.  Carries 1-based line and column numbers."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
