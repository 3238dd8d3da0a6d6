"""Floating-point primitives for inversive plane geometry.

Points, and the one curve format of the package: circles as ``Circle`` (a
complex center and a radius) and lines as ``Line`` (a complex point and a
unit direction).  On them: circumcircles, intersections, inversion of points
and curves, circles of similitude and triangle-level conjugations.  ``quad``
reads directed angles and spiral similarities as phases and factors of
complex ratios, with no type of their own.  ``Point`` is the type of the
public inputs and outputs.

All tolerances are relative: an operation taking ``tol`` compares against
``tol * D`` where ``D`` is the diameter of its input point set.  Whatever
squares a length does so in an exact power of two near its inverse
(``unit_near``) or as a ratio of lengths, so no size of input overflows or
underflows it.
"""

from __future__ import annotations

import math

from .errors import (
    CollinearInput,
    ConcentricCircles,
    DegenerateCircle,
    DegenerateConjugate,
    IdenticalCurves,
    NotALine,
)

DEFAULT_TOL = 1e-9

_MACHINE_EPS = 2.220446049250313e-16

_set = object.__setattr__  # stores inline; vars(self).update would give each record a dict


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


class Point(Record):
    _fields = ("x", "y")

    def __init__(self, x: float, y: float):
        _set(self, "x", x)
        _set(self, "y", y)

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Point":
        return Point(self.x * k, self.y * k)

    __rmul__ = __mul__

    def dot(self, other: "Point") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def to_complex(self) -> complex:
        return complex(self.x, self.y)

    @staticmethod
    def from_complex(z: complex) -> "Point":
        return Point(z.real, z.imag)


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


def diameter(points) -> float:
    """Diameter of a point set; the scale for all relative tolerances."""
    pts = [p for p in points if isinstance(p, Point)]
    if len(pts) < 2:
        return 1.0
    best = 0.0
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            best = max(best, p.dist(q))
    return best if best > 0.0 else 1.0


class Circle(Record):
    """A proper circle: complex center o and radius r > 0."""

    _fields = ("o", "r")
    is_line = False

    def __init__(self, o: complex, r: float):
        if not (r > 0.0 and math.isfinite(r)):
            raise DegenerateCircle(f"invalid radius {r}")
        _set(self, "o", o)
        _set(self, "r", r)

    def center(self) -> Point:
        return Point(self.o.real, self.o.imag)

    def radius(self) -> float:
        return self.r

    def distance_to(self, p: Point) -> float:
        return abs(abs(p.to_complex() - self.o) - self.r)


class Line(Record):
    """A line through the complex point p with the unit direction u."""

    _fields = ("p", "u")
    is_line = True

    def __init__(self, p: complex, u: complex):
        _set(self, "p", p)
        _set(self, "u", u)

    def direction(self) -> Point:
        return Point(self.u.real, self.u.imag)

    def distance_to(self, q: Point) -> float:
        # the cross of u with q - p
        return abs(((q.to_complex() - self.p) * self.u.conjugate()).imag)


# ---------------------------------------------------------------------------
# basic constructions


def norm2(z: complex) -> float:
    """Squared modulus, with no square root."""
    return z.real * z.real + z.imag * z.imag


def _flat(a: complex, b: complex, tol: float) -> bool:
    """Whether the triangle 0, a, b is at most tol * its longest side high:
    |a x b| <= tol * longest side^2."""
    return abs(a.real * b.imag - a.imag * b.real) <= tol * max(norm2(a), norm2(b), norm2(b - a))


def circumcenter(a: complex, b: complex, ka: float, kb: float, tol: float) -> complex:
    """The X with a.X = ka and b.X = kb: the circumcenter of p, p + a, p + b
    when ka and kb are the lifts |v|^2 / 2 of p + a and p + b less p's.
    Raises CollinearInput on a flat triangle."""
    if _flat(a, b, tol):
        raise CollinearInput("cannot circumscribe collinear points")
    return (kb * a - ka * b) * 1j / (a.real * b.imag - a.imag * b.real)


def unit_near(x: float) -> float:
    """An exact power of two near 1 / x, at most 2^1023 (so that a subnormal
    x gives about 1e-12 rather than an overflow)."""
    return math.ldexp(1.0, min(-math.frexp(x)[1], 1023))


def circumcircle(p: Point, q: Point, r: Point, tol: float = DEFAULT_TOL) -> Circle:
    """Circle through three points, solved from the differences to p in the
    unit_near of the longer, so that no square overflows or underflows;
    raises CollinearInput as circumcenter does."""
    a, b = complex(q.x - p.x, q.y - p.y), complex(r.x - p.x, r.y - p.y)
    unit = unit_near(max(abs(a), abs(b)))
    a, b = a * unit, b * unit
    c = circumcenter(a, b, 0.5 * norm2(a), 0.5 * norm2(b), tol)
    return Circle(complex(p.x + c.real / unit, p.y + c.imag / unit),
                  (abs(c) + abs(c - a) + abs(c - b)) / 3.0 / unit)


def _foot(line: Line, z: complex) -> complex:
    """The foot of the perpendicular from z onto the line."""
    return line.p + line.u * ((z - line.p) * line.u.conjugate()).real


def intersect(g1: Circle | Line, g2: Circle | Line, tol: float = DEFAULT_TOL) -> list[Point]:
    """Intersection points of two curves, 0 to 2 of them, ordered
    lexicographically by (x, y); tangency within max((tol r)^2, 64 eps r^2)
    of the squared half chord gives the foot alone.  Two circles meet on
    their radical line, normal to d = c2 - c1 at
    (|d| + (r1 - r2)(r1 + r2) / |d|) / 2 from c1; concentric ones nowhere.
    Circles whose centers and radii agree within max(tol, 64 eps) of the
    larger radius, and parallel lines through each other's point within
    that share of its distance, raise IdenticalCurves."""
    same = max(tol, 64.0 * _MACHINE_EPS)
    if g1.is_line and g2.is_line:
        gap, cross = g2.p - g1.p, (g1.u.conjugate() * g2.u).imag
        if abs(cross) > tol:
            return [Point.from_complex(g1.p + g1.u * ((gap.conjugate() * g2.u).imag / cross))]
        if abs((gap * g1.u.conjugate()).imag) <= same * abs(gap):
            raise IdenticalCurves("curves coincide within tolerance")
        return []
    if g1.is_line or g2.is_line:
        circ, line = (g2, g1) if g1.is_line else (g1, g2)
        foot, u = _foot(line, circ.o), line.u
    else:
        circ, d, big = g1, g2.o - g1.o, max(g1.r, g2.r)
        gap = abs(d)
        if gap <= same * big and abs(g1.r - g2.r) <= same * big:
            raise IdenticalCurves("curves coincide within tolerance")
        if gap == 0.0:
            return []
        e = d / gap
        foot, u = g1.o + e * (0.5 * (gap + (g1.r - g2.r) * ((g1.r + g2.r) / gap))), 1j * e
    t = abs(foot - circ.o) / circ.r
    h2 = (1.0 - t) * (1.0 + t)  # in units of r^2
    if h2 <= 0.0:
        return [Point.from_complex(foot)] if h2 > -max(tol * tol, 64.0 * _MACHINE_EPS) else []
    h = circ.r * math.sqrt(h2)
    return sorted((Point.from_complex(z) for z in (foot + u * h, foot - u * h)),
                  key=lambda p: (p.x, p.y))


def invert_point(mirror: Circle, p: MaybePoint, tol: float = DEFAULT_TOL) -> MaybePoint:
    """Inversive image of a point in a circle mirror, o + r (r / conj(p - o)),
    which squares no coordinate.  A point within tol r of the center maps to
    infinity and a point at infinity to the center; a line mirror raises
    NotALine."""
    if mirror.is_line:
        raise NotALine("cannot invert in a line")
    o, r = mirror.o, mirror.r
    if isinstance(p, AtInfinity):
        return Point(o.real, o.imag)
    v = p.to_complex() - o
    if abs(v) < tol * r:
        return AtInfinity.along(1.0, 0.0)
    return Point.from_complex(o + r * (r / v.conjugate()))


def invert_circle(mirror: Circle, g: Circle | Line, tol: float = DEFAULT_TOL) -> Circle | Line:
    """Inversive image of a circle or line in a circle mirror of center c and
    radius R, in closed form; a line mirror raises NotALine.  A circle of
    center c + d and radius r goes to the circle of center c + s d and radius
    |s| r, s = R^2 / (|d|^2 - r^2), or, through c (||d| - r| <= tol r), to the
    line normal to d at R^2 / 2r from c.  A line with foot c + v goes to the
    circle through c whose diameter ends at c + R^2 v / |v|^2, or, through c
    (|v| <= tol R), to itself."""
    if mirror.is_line:
        raise NotALine("cannot invert in a line")
    c, big = mirror.o, mirror.r
    if g.is_line:
        v = _foot(g, c) - c
        dist = abs(v)
        if dist <= tol * big:
            return g
        half = 0.5 * big * (big / dist)
        return Circle(c + v / dist * half, half)
    d = g.o - c
    gap = abs(d)
    if abs(gap - g.r) <= tol * g.r:
        e = d / gap
        return Line(c + e * (big * (0.5 * big / g.r)), 1j * e)
    s = (big / (gap - g.r)) * (big / (gap + g.r))
    return Circle(c + d * s, abs(s) * g.r)


def _center_gap(o1: Circle, o2: Circle, tol: float) -> float:
    """|c1 - c2| for two circles; ConcentricCircles if the centers are
    within tol times the largest of the radii and their distance."""
    gap = abs(o1.o - o2.o)
    if gap < tol * max(o1.r, o2.r, gap):
        raise ConcentricCircles("circle of similitude of concentric circles")
    return gap


def circle_of_similitude(o1: Circle, o2: Circle, tol: float = DEFAULT_TOL) -> Circle | Line:
    """The locus |X - c1| = k |X - c2| of the centers with the ratio k = R1 / R2
    of the radii: the circle of center (c1 - k^2 c2) / (1 - k^2) and radius
    k |c1 - c2| / |1 - k^2|, or the perpendicular bisector of the centers
    when |1 - k^2| < tol max(1, k^2)."""
    gap = _center_gap(o1, o2, tol)
    k = o1.r / o2.r
    k2 = k * k
    a = 1.0 - k2
    if abs(a) < tol * max(1.0, k2):
        return Line(0.5 * (o1.o + o2.o), 1j * (o2.o - o1.o) / gap)
    return Circle((o1.o - k2 * o2.o) / a, k * gap / abs(a))


def cs_distance(w: complex, o1: Circle, o2: Circle, tol: float = DEFAULT_TOL) -> float:
    """First-order distance of w from the circle of similitude of o1 and o2,
    with no circle built: the Apollonius defect d1 - k d2, d_i = |w - c_i| and
    k = R1 / R2, over its gradient (w - c1) / d1 - k (w - c2) / d2, so that no
    product of a distance and a radius forms; w at a center has no gradient
    and is infinitely far."""
    _center_gap(o1, o2, tol)
    k = o1.r / o2.r
    u, v = w - o1.o, w - o2.o
    d1, d2 = abs(u), abs(v)
    grad = abs(u / d1 - k * v / d2) if d1 and d2 else 0.0
    return abs(d1 - k * d2) / grad if grad else math.inf


def orthocenter(p: Point, q: Point, r: Point) -> Point:
    """Orthocenter via H = P + Q + R - 2*O."""
    o = circumcircle(p, q, r).o
    return Point(p.x + q.x + r.x - 2.0 * o.real, p.y + q.y + r.y - 2.0 * o.imag)


# ---------------------------------------------------------------------------
# triangle conjugations


def isogonal_conjugate(a: complex, b: complex, c: complex, p: complex,
                       tol: float = DEFAULT_TOL) -> MaybePoint:
    """Isogonal conjugate of p in the triangle a, b, c, relative to p: with
    x, y, z the signed areas of (p, b, c), (p, c, a) and (p, a, b), the
    weights u, v, w = |b - c|^2 yz, |c - a|^2 zx, |a - b|^2 xy and their sum
    s, it is p + ((a - p) u + (b - p) v + (c - p) w) / s.

    The scale of the tests is the largest of the six pairwise distances.  A
    point on the circumcircle (s = 0) goes to infinity, and a point on a
    side line collapses to the opposite vertex (the limit of the
    construction).  A vertex raises DegenerateConjugate.
    """
    pa, pb, pc, ab, bc, ca = a - p, b - p, c - p, b - a, c - b, a - c
    scale = max(abs(pa), abs(pb), abs(pc), abs(ab), abs(bc), abs(ca)) or 1.0
    # an exact power-of-two rescaling keeps the degree-6 weights in range
    unit = unit_near(scale)
    pa, pb, pc, ab, bc, ca = pa * unit, pb * unit, pc * unit, ab * unit, bc * unit, ca * unit
    x = 0.5 * (pb.real * pc.imag - pb.imag * pc.real)
    y = 0.5 * (pc.real * pa.imag - pc.imag * pa.real)
    z = 0.5 * (pa.real * pb.imag - pa.imag * pb.real)
    thresh = tol * (scale * unit) ** 2
    on_side = (abs(x) < thresh, abs(y) < thresh, abs(z) < thresh)
    sides = sum(on_side)
    if sides >= 2:
        raise DegenerateConjugate("conjugate of a triangle vertex")
    if sides:
        return Point.from_complex((a, b, c)[on_side.index(True)])
    u, v, w = norm2(bc) * y * z, norm2(ca) * z * x, norm2(ab) * x * y
    s, rel = u + v + w, pa * u + pb * v + pc * w
    if abs(s) < tol * (abs(u) + abs(v) + abs(w)):
        return AtInfinity.along(rel.real, rel.imag)
    return Point.from_complex(p + rel / s / unit)


def isogonal_conjugate_triangle(a: Point, b: Point, c: Point, p: MaybePoint,
                                tol: float = DEFAULT_TOL) -> MaybePoint:
    """Isogonal conjugate of p in the triangle a, b, c (see
    isogonal_conjugate).  A triangle flat within tol, read in the unit_near
    of its longer side from a, raises CollinearInput; a point at infinity
    raises DegenerateConjugate."""
    za, zb, zc = a.to_complex(), b.to_complex(), c.to_complex()
    u, v = zb - za, zc - za
    unit = unit_near(max(abs(u), abs(v)))
    if _flat(u * unit, v * unit, tol):
        raise CollinearInput("triangle vertices are collinear within tolerance")
    if not is_finite(p):
        raise DegenerateConjugate("conjugate of a point at infinity")
    return isogonal_conjugate(za, zb, zc, p.to_complex(), tol)
