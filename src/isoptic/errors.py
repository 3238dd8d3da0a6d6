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


class IdenticalCurves(GeometryError):
    """Two circles or two lines coincide within tolerance."""


class ConcentricCircles(GeometryError):
    """Two circles share a center, so their circle of similitude fails."""


class DegenerateRay(GeometryError):
    """A ray endpoint coincides with its vertex."""


class NotALine(GeometryError):
    """A line was given where a circle is needed, or a circle where a line is."""


class CyclicDegeneration(GeometryError):
    """The quadrilateral is cyclic: its next generation collapses to the
    circumcenter (``point``), and no quadrilateral precedes it."""

    def __init__(self, message: str, point):
        super().__init__(message)
        self.point = point


class IllConditionedAngles(GeometryError):
    """An interior angle is too close to 0 or pi for cotangents."""


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
