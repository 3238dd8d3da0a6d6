"""Exception hierarchy for geometric degeneracies.

Every error below derives from GeometryError so callers can catch the whole
family.  Errors that carry a meaningful witness (e.g. the point a cyclic
quadrilateral collapses to) store it on the exception.
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for all geometric failures."""


class CollinearInput(GeometryError):
    """Three points that should span a triangle are collinear."""


class CoincidentPoints(GeometryError):
    """Two points that must be distinct coincide."""


class IdenticalCurves(GeometryError):
    """Two generalized circles coincide within tolerance."""


class ConcentricCircles(GeometryError):
    """Two circles share a center, so their circle of similitude fails."""


class DegenerateRay(GeometryError):
    """A ray endpoint coincides with its vertex."""


class NotALine(GeometryError):
    """A line was given where a circle is needed, or a circle where a line is."""


class CyclicDegeneration(GeometryError):
    """The quadrilateral is cyclic; the next generation collapses to a point."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class OrthocentricDegeneration(GeometryError):
    """An isogonal conjugate needed for the reverse step is at infinity."""


class IllConditionedAngles(GeometryError):
    """An interior angle is too close to 0 or pi for cotangents."""


class NonConvergent(GeometryError):
    """The iterative process does not converge (|r| = 1, periodic regime)."""


class DegenerateConjugate(GeometryError):
    """A triangle isogonal conjugate is undefined for this input."""


class PointAtInfinity(GeometryError):
    """A finite point was required but the construction escapes to infinity."""


class ParallelConsecutiveLines(GeometryError):
    """Two consecutive reconstruction lines are parallel."""


class NonCollinearFeet(GeometryError):
    """Simson reconstruction requires collinear pedal feet."""


class Underdetermined(GeometryError):
    """The reconstruction input admits a family of solutions."""


class NoIntersection(GeometryError):
    """Two curves that must intersect do not."""


class DegenerateCircle(GeometryError):
    """A circle required by a construction degenerates."""


class RejectionExhausted(GeometryError):
    """The random generator failed to produce a valid case in its retry budget."""
