"""Floating-point primitives for inversive plane geometry.

Points, and the one curve format of the package: circles as ``Circle`` (a
complex center and a radius) and lines as ``Line`` (a complex point and a
unit direction), with the circumcenter that every triad construction
solves.  The constructions on curves (circumcircles, intersections,
inversion, circles of similitude and triangle-level conjugations) are in
``curves``, which a command loads only when it draws or checks them.
``quad`` reads directed angles and spiral similarities as phases and factors
of complex ratios, with no type of their own.  ``Point``, the type of the
public inputs and outputs, is itself a complex number.

All tolerances are relative: an operation taking ``tol`` compares against
``tol * D`` where ``D`` is the diameter of its input point set.  Whatever
squares a length does so in an exact power of two near its inverse
(``unit_near``), as a ratio of lengths or along unit directions, so no size
of input overflows or underflows it.
"""

from __future__ import annotations

import math
from cmath import isfinite

from . import lazy_attributes
from .errors import CollinearInput, DegenerateCircle, PointAtInfinity

DEFAULT_TOL = 1e-9

# the benchmark's tracer reads these names of curves on kernel: they resolve here
# on their first read (PEP 562)
__getattr__ = lazy_attributes(globals(), {
    "curves": ("circumcircle", "intersect", "circle_of_similitude", "invert_point",
               "invert_circle", "isogonal_conjugate_triangle", "orthocenter")})

_set = object.__setattr__  # stores inline; vars(self).update would give each record a dict


def check_tol(tol: float) -> float:
    """tol itself when it is finite and positive, else ValueError: at nan
    every comparison with tol reads false, at inf every bound holds, and
    similarity_ratio takes sqrt(tol)."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    return tol


class Record:
    """An immutable record of the fields named in _fields, set by __init__;
    equality (within one class), hash and repr read them.  Not a dataclass,
    whose import and generated methods slowed every cold start."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = zip(self._fields, self._values())
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"


class Report(Record):
    """A Record whose fields may be assigned, and so with no hash."""
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class Point(complex):
    """A finite point x + iy: a complex number whose parts also read as x and
    y, and which compares, hashes and tests false at 0 as that complex does.
    Arithmetic on Points gives plain complex numbers, so a construction
    wraps each point it returns: is_finite tells one by its type."""

    __slots__ = ()
    _fields = ("x", "y")
    x = complex.real
    y = complex.imag

    def __repr__(self):
        return f"Point(x={self.real!r}, y={self.imag!r})"


class AtInfinity(Record):
    """A point at infinity with a unit direction vector."""

    _fields = ("dx", "dy")

    def __init__(self, dx: float, dy: float):
        _set(self, "dx", dx)
        _set(self, "dy", dy)

    @staticmethod
    def along(dx: float, dy: float) -> "AtInfinity":
        n = math.hypot(dx, dy)
        if n == 0.0:
            return AtInfinity(1.0, 0.0)
        # canonical sign so (d) and (-d) compare equal
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        return AtInfinity(dx / n, dy / n)


# A MaybePoint is a Point or an AtInfinity; a construction with no answer
# raises a GeometryError.
MaybePoint = Point | AtInfinity


def is_finite(p: MaybePoint) -> bool:
    return isinstance(p, Point)


def require_finite(*points: MaybePoint) -> None:
    """Raise PointAtInfinity at a point at infinity: a complex number is finite."""
    for p in points:
        if isinstance(p, AtInfinity):
            raise PointAtInfinity("a finite point is required, not a point at infinity")


def finite_point(z: complex, what: str) -> Point:
    """z as a Point, or PointAtInfinity when it lies beyond the float range."""
    if not isfinite(z):
        raise PointAtInfinity(f"{what} is not a finite float")
    return Point(z)


def max_or_nan(*terms: float) -> float:
    """max(0.0, *terms) of residual terms, each >= 0 or nan, but nan when a term
    is nan, which max passes over unless it comes first and their sum does not."""
    total = sum(terms)
    return max(0.0, *terms) if total == total else math.nan


class Circle(Record):
    """A proper circle: complex center o and radius r > 0."""

    _fields = ("o", "r")
    is_line = False

    def __init__(self, o: complex, r: float):
        if not 0.0 < r < math.inf:
            raise DegenerateCircle(f"invalid radius {r}")
        _set(self, "o", o)
        _set(self, "r", r)

    def distance_to(self, p: complex) -> float:
        return abs(abs(p - self.o) - self.r)


class Line(Record):
    """A line through the complex point p with the unit direction u."""

    _fields = ("p", "u")
    is_line = True

    def __init__(self, p: complex, u: complex):
        _set(self, "p", p)
        _set(self, "u", u)

    def distance_to(self, q: complex) -> float:
        # the cross of u with q - p
        return abs(((q - self.p) * self.u.conjugate()).imag)


# ---------------------------------------------------------------------------
# basic constructions


def circumcenter(a: complex, b: complex, tol: float) -> complex:
    """The circumcenter of 0, a and b: the X with a.X = |a|^2 / 2 and
    b.X = |b|^2 / 2.  Raises CollinearInput on a flat triangle, at most tol
    * its longest side high: |a x b| <= tol * longest side^2."""
    na, nb, ba = a.real * a.real + a.imag * a.imag, b.real * b.real + b.imag * b.imag, b - a
    cross = a.real * b.imag - a.imag * b.real
    if abs(cross) <= tol * max(na, nb, ba.real * ba.real + ba.imag * ba.imag):
        raise CollinearInput("cannot circumscribe collinear points")
    return (0.5 * nb * a - 0.5 * na * b) * 1j / cross


# the rounding of an Apollonius gradient |e1 - k e2|, a difference of two unit
# vectors of a few eps a part: at or below it the gradient has lost its digits
CS_GRADIENT_NOISE = 16 * 2.220446049250313e-16


def bisector_distance(d1: float, d2: float, k: float, gap: float) -> float:
    """|d1^2 - k^2 d2^2| / (2 gap), formed with no product of two distances: the
    distance of a point, d1 and d2 from two centers gap apart, from their circle of
    similitude |X - c1| = k |X - c2| where k = 1 to rounding, the perpendicular
    bisector.  It stands for the Apollonius defect over its gradient where that
    gradient is within CS_GRADIENT_NOISE of 0: k = 1 and the point on the line of
    the centers, outside them.  Centers at one point have no bisector: inf."""
    return abs(d1 - k * d2) / gap * (0.5 * (d1 + k * d2)) if gap else math.inf


def unit_near(x: float) -> float:
    """An exact power of two near 1 / x, at most 2^1023 (so that a subnormal
    x gives about 1e-12 rather than an overflow)."""
    return math.ldexp(1.0, min(-math.frexp(x)[1], 1023))
