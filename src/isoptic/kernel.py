"""Floating-point primitives for inversive plane geometry.

Points, circles as ``Circle`` (a complex center and a radius), lines as
``Line`` (a complex point and a unit direction), inversion, circles of
similitude and triangle-level conjugations; ``quad`` reads directed angles and
spiral similarities as phases and factors of complex ratios, with no type of
their own.  ``Point`` is the type of the public inputs and outputs.

``GenCircle`` stores the equation a*(x^2 + y^2) + b*x + c*y + d = 0,
normalized so that max(|a|,|b|,|c|,|d|) = 1, with ``a == 0`` for a line.  No
construction of the package builds one: it remains for ``intersect`` and
``invert_circle``, which the benchmark's tracer still wraps.

All tolerances are relative: an operation taking ``tol`` compares against
``tol * D`` where ``D`` is the diameter of its input point set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CoincidentPoints,
    CollinearInput,
    ConcentricCircles,
    DegenerateCircle,
    DegenerateConjugate,
    IdenticalCurves,
    NotALine,
)

DEFAULT_TOL = 1e-9

_MACHINE_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class Point:
    x: float
    y: float

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


@dataclass(frozen=True)
class AtInfinity:
    """A point at infinity with a unit direction vector."""

    dx: float
    dy: float

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


@dataclass(frozen=True)
class Circle:
    """A proper circle: complex center o and radius r > 0."""

    o: complex
    r: float
    is_line = False

    def __post_init__(self):
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise DegenerateCircle(f"invalid radius {self.r}")

    def center(self) -> Point:
        return Point(self.o.real, self.o.imag)

    def radius(self) -> float:
        return self.r

    def distance_to(self, p: Point) -> float:
        return abs(abs(p.to_complex() - self.o) - self.r)


@dataclass(frozen=True)
class Line:
    """A line through the complex point p with the unit direction u."""

    p: complex
    u: complex
    is_line = True

    def direction(self) -> Point:
        return Point(self.u.real, self.u.imag)

    def distance_to(self, q: Point) -> float:
        # the cross of u with q - p
        return abs(((q.to_complex() - self.p) * self.u.conjugate()).imag)


@dataclass(frozen=True)
class GenCircle:
    """Generalized circle a(x^2+y^2) + bx + cy + d = 0 (a = 0 means line)."""

    a: float
    b: float
    c: float
    d: float

    @staticmethod
    def from_coeffs(a: float, b: float, c: float, d: float) -> "GenCircle":
        m = max(abs(a), abs(b), abs(c), abs(d))
        if m == 0.0:
            raise DegenerateCircle("all coefficients zero")
        coeffs = [a / m, b / m, c / m, d / m]
        # canonical sign: make the largest-magnitude coefficient positive
        idx = max(range(4), key=lambda i: abs(coeffs[i]))
        if coeffs[idx] < 0:
            coeffs = [-v for v in coeffs]
        return GenCircle(*coeffs)

    @staticmethod
    def circle(center: Point, radius: float) -> "GenCircle":
        if radius <= 0.0 or not math.isfinite(radius):
            raise DegenerateCircle(f"invalid radius {radius}")
        return GenCircle.from_coeffs(
            1.0, -2.0 * center.x, -2.0 * center.y,
            center.x * center.x + center.y * center.y - radius * radius,
        )

    @staticmethod
    def line_through(p: Point, q: Point) -> "GenCircle":
        # the normal (b, c) is q - p turned by 90 degrees
        b, c = p.y - q.y, q.x - p.x
        if b == 0.0 and c == 0.0:
            raise CoincidentPoints("line through coincident points")
        return GenCircle.from_coeffs(0.0, b, c, -(b * p.x + c * p.y))

    @property
    def is_line(self) -> bool:
        return self.a == 0.0

    def center(self) -> Point:
        if self.is_line:
            raise NotALine("a line has no center")
        return Point(-self.b / (2.0 * self.a), -self.c / (2.0 * self.a))

    def radius(self) -> float:
        if self.is_line:
            raise NotALine("a line has no radius")
        disc = self.b * self.b + self.c * self.c - 4.0 * self.a * self.d
        if disc <= 0.0:
            raise DegenerateCircle("degenerate circle (empty or a point)")
        return math.sqrt(disc) / (2.0 * abs(self.a))

    def evaluate(self, p: Point) -> float:
        return (self.a * (p.x * p.x + p.y * p.y)
                + self.b * p.x + self.c * p.y + self.d)

    def distance_to(self, p: Point) -> float:
        """Geometric distance from a point to the curve."""
        if self.is_line:
            return abs(self.b * p.x + self.c * p.y + self.d) / math.hypot(self.b, self.c)
        return abs(p.dist(self.center()) - self.radius())


def coeff_distance(g1: GenCircle, g2: GenCircle) -> float:
    """Max-norm distance of the normalized coefficient vectors, the smaller
    over both signs of one curve's equation (a tie for the largest
    coefficient makes the canonical sign of near-equal curves differ)."""
    u = GenCircle.from_coeffs(g1.a, g1.b, g1.c, g1.d)
    v = GenCircle.from_coeffs(g2.a, g2.b, g2.c, g2.d)
    d1 = max(abs(u.a - v.a), abs(u.b - v.b), abs(u.c - v.c), abs(u.d - v.d))
    d2 = max(abs(u.a + v.a), abs(u.b + v.b), abs(u.c + v.c), abs(u.d + v.d))
    return min(d1, d2)


def circles_equal(g1: GenCircle, g2: GenCircle, tol: float = DEFAULT_TOL) -> bool:
    return coeff_distance(g1, g2) <= max(tol, 64 * _MACHINE_EPS)


@dataclass(frozen=True)
class Triangle:
    p1: Point
    p2: Point
    p3: Point

    def __post_init__(self):
        if _flat((self.p2 - self.p1).to_complex(), (self.p3 - self.p1).to_complex(), DEFAULT_TOL):
            raise CollinearInput("triangle vertices are collinear within tolerance")

    def vertices(self):
        return (self.p1, self.p2, self.p3)


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


def circumcircle(p: Point, q: Point, r: Point, tol: float = DEFAULT_TOL) -> Circle:
    """Circle through three points, solved from the differences to p; raises
    CollinearInput as circumcenter does."""
    a, b = complex(q.x - p.x, q.y - p.y), complex(r.x - p.x, r.y - p.y)
    c = circumcenter(a, b, 0.5 * norm2(a), 0.5 * norm2(b), tol)
    return Circle(complex(p.x + c.real, p.y + c.imag), (abs(c) + abs(c - a) + abs(c - b)) / 3.0)


def _line_line(g1: GenCircle, g2: GenCircle, tol: float) -> list[Point]:
    det = g1.b * g2.c - g1.c * g2.b
    n1 = math.hypot(g1.b, g1.c)
    n2 = math.hypot(g2.b, g2.c)
    if abs(det) <= tol * n1 * n2:
        return []
    x = (-g1.d * g2.c + g1.c * g2.d) / det
    y = (-g1.b * g2.d + g1.d * g2.b) / det
    return [Point(x, y)]


def _circle_line(circ: GenCircle, line: GenCircle, tol: float) -> list[Point]:
    o = circ.center()
    r = circ.radius()
    n = math.hypot(line.b, line.c)
    # signed distance from center to line
    t = (line.b * o.x + line.c * o.y + line.d) / n
    foot = Point(o.x - line.b / n * t, o.y - line.c / n * t)
    h2 = r * r - t * t
    clip = max((tol * r) ** 2, 64.0 * _MACHINE_EPS * r * r)
    if h2 <= 0.0:
        if h2 > -clip:
            return [foot]
        return []
    h = math.sqrt(h2)
    u = Point(-line.c / n, line.b / n)
    return [foot + u * h, foot + u * (-h)]


def intersect(g1: GenCircle, g2: GenCircle, tol: float = DEFAULT_TOL) -> list[Point]:
    """Intersection points of two generalized circles, 0 to 2 of them.

    Two-point results are ordered lexicographically by (x, y) for
    reproducibility; tangency yields a single point.
    """
    if circles_equal(g1, g2, tol):
        raise IdenticalCurves("curves coincide within tolerance")
    if g1.is_line and g2.is_line:
        pts = _line_line(g1, g2, tol)
    elif g1.is_line:
        pts = _circle_line(g2, g1, tol)
    elif g2.is_line:
        pts = _circle_line(g1, g2, tol)
    else:
        # radical line of the two circles, then circle-line intersection
        rb = g1.b / g1.a - g2.b / g2.a
        rc = g1.c / g1.a - g2.c / g2.a
        rd = g1.d / g1.a - g2.d / g2.a
        if max(abs(rb), abs(rc)) == 0.0:
            return []  # concentric, unequal radii
        radical = GenCircle.from_coeffs(0.0, rb, rc, rd)
        pts = _circle_line(g1, radical, tol)
    return sorted(pts, key=lambda p: (p.x, p.y))


def invert_point(mirror: Circle, p: MaybePoint, tol: float = DEFAULT_TOL) -> MaybePoint:
    """Inversive image of a point in a circle mirror.

    The center maps to infinity and a point at infinity to the center.  A
    line mirror raises NotALine.
    """
    if mirror.is_line:
        raise NotALine("cannot invert in a line")
    o = mirror.center()
    r = mirror.radius()
    if isinstance(p, AtInfinity):
        return o
    v = p - o
    rho2 = v.dot(v)
    if rho2 < (tol * r) ** 2:
        return AtInfinity.along(1.0, 0.0)
    k = r * r / rho2
    return o + v * k


def invert_circle(mirror: Circle | GenCircle, g: GenCircle,
                  tol: float = DEFAULT_TOL) -> GenCircle:
    """Inversive image of a generalized circle in a circle mirror; a line
    mirror raises NotALine."""
    o = mirror.center()
    k = mirror.radius() ** 2
    # translate so the mirror center is the origin
    a = g.a
    b = g.b + 2.0 * g.a * o.x
    c = g.c + 2.0 * g.a * o.y
    d = g.evaluate(o)
    # inversion about the origin with power k
    a2, b2, c2, d2 = d, b * k, c * k, a * k * k
    # translate back
    b3 = b2 - 2.0 * a2 * o.x
    c3 = c2 - 2.0 * a2 * o.y
    d3 = a2 * o.dot(o) - b2 * o.x - c2 * o.y + d2
    out = GenCircle.from_coeffs(a2, b3, c3, d3)
    # snap to an exact line when the curve passed through the mirror center
    if out.a != 0.0 and abs(out.a) < tol * max(abs(out.b), abs(out.c)):
        out = GenCircle.from_coeffs(0.0, out.b, out.c, out.d)
    return out


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


# weights of isogonal_conjugate whose sum s falls below this share of
# |u| + |v| + |w| have cancelled too far for float and are redone exactly
_CANCELLED = 1e-3


def _exact_weights(a: complex, b: complex, c: complex, p: complex,
                   unit: float) -> tuple[float, complex]:
    """s and (a - p) u + (b - p) v + (c - p) w of isogonal_conjugate in units
    of 1 / unit, from exact rationals of the input, each rounded once."""
    from fractions import Fraction  # rarely reached: kept off the start-up path
    px, py, k = Fraction(p.real), Fraction(p.imag), Fraction(unit)
    (ax, ay), (bx, by), (cx, cy) = (((Fraction(v.real) - px) * k, (Fraction(v.imag) - py) * k)
                                    for v in (a, b, c))
    x, y, z = bx * cy - by * cx, cx * ay - cy * ax, ax * by - ay * bx  # twice the areas
    u = ((bx - cx) ** 2 + (by - cy) ** 2) * y * z
    v = ((cx - ax) ** 2 + (cy - ay) ** 2) * z * x
    w = ((ax - bx) ** 2 + (ay - by) ** 2) * x * y
    return (0.25 * float(u + v + w),
            0.25 * complex(float(ax * u + bx * v + cx * w), float(ay * u + by * v + cy * w)))


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
    unit = math.ldexp(1.0, -math.frexp(scale)[1])
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
    if abs(s) < _CANCELLED * (abs(u) + abs(v) + abs(w)):
        s, rel = _exact_weights(a, b, c, p, unit)
    if abs(s) < tol * (abs(u) + abs(v) + abs(w)):
        return AtInfinity.along(rel.real, rel.imag)
    return Point.from_complex(p + rel / s / unit)


def isogonal_conjugate_triangle(t: Triangle, p: MaybePoint,
                                tol: float = DEFAULT_TOL) -> MaybePoint:
    """Isogonal conjugate of p with respect to triangle t (see
    isogonal_conjugate); a point at infinity raises DegenerateConjugate."""
    if not is_finite(p):
        raise DegenerateConjugate("conjugate of a point at infinity")
    return isogonal_conjugate(*(v.to_complex() for v in t.vertices()), p.to_complex(), tol)

