"""Constructions on circles and lines, loaded on first use.

Circumscribed circles, intersections, inversion of points and curves,
circles of similitude and triangle-level conjugations, on ``kernel``'s
``Circle`` and ``Line``.  Tolerances are relative, as in ``kernel``.
"""

from __future__ import annotations

import math

from .errors import (
    ConcentricCircles,
    DegenerateCircle,
    DegenerateConjugate,
    IdenticalCurves,
    NotALine,
)
from .kernel import (
    DEFAULT_TOL,
    AtInfinity,
    Circle,
    Line,
    MaybePoint,
    Point,
    check_tol,
    circumcenter,
    finite_point,
    unit_near,
)

_MACHINE_EPS = 2.220446049250313e-16


def circumscribe(p: complex, q: complex, r: complex, tol: float,
                 with_radius: bool = True) -> tuple[complex, float] | complex:
    """Center and radius (the mean distance to the three) of the circle through three points,
    or the center alone, tol unchecked, solved from the differences to p in the unit_near of
    their largest part (their moduli may overflow); raises as circumcenter does, and
    DegenerateCircle as Circle does."""
    a, b = q - p, r - p
    unit = unit_near(max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag)))
    a, b = a * unit, b * unit
    c = circumcenter(a, b, tol)
    if not with_radius:
        return p + c / unit
    radius = (abs(c) + abs(c - a) + abs(c - b)) / 3.0 / unit
    if not 0.0 < radius < math.inf:
        raise DegenerateCircle(f"invalid radius {radius}")
    return p + c / unit, radius


def circumcircle(p: Point, q: Point, r: Point, tol: float = DEFAULT_TOL) -> Circle:
    """The Circle through three points (circumscribe)."""
    return Circle(*circumscribe(p, q, r, check_tol(tol)))


def _foot(line: Line, z: complex) -> complex:
    """The foot of the perpendicular from z onto the line."""
    return line.p + line.u * ((z - line.p) * line.u.conjugate()).real


def _direction(z: complex) -> complex:
    """z over its modulus, or 0 for 0."""
    return z / abs(z) if z else z


def line_meet(p: complex, u: complex, q: complex, v: complex, tol: float) -> complex | None:
    """The meet of the lines p + t u and q + t v, solved along their unit
    directions so that no product of lengths forms; None when they are
    parallel within tol, |u x v| <= tol |u| |v|, or a direction is 0."""
    u, v = _direction(u), _direction(v)
    det = (u.conjugate() * v).imag
    if abs(det) <= tol:
        return None
    return p + u * (((q - p).conjugate() * v).imag / det)


def intersect(g1: Circle | Line, g2: Circle | Line, tol: float = DEFAULT_TOL) -> list[Point]:
    """Intersection points of two curves, 0 to 2 of them, ordered
    lexicographically by (x, y); tangency within max((tol r)^2, 64 eps r^2)
    of the squared half chord gives the foot alone.  Two circles meet on
    their radical line, normal to d = c2 - c1 at
    (|d| + (r1 - r2)(r1 + r2) / |d|) / 2 from c1; concentric ones nowhere.
    Circles whose centers and radii agree within max(tol, 64 eps) of the
    larger radius, and parallel lines through each other's point within
    that share of its distance, raise IdenticalCurves."""
    same = max(check_tol(tol), 64.0 * _MACHINE_EPS)
    if g1.is_line and g2.is_line:
        m = line_meet(g1.p, g1.u, g2.p, g2.u, tol)
        if m is not None:
            return [Point(m)]
        if g1.distance_to(g2.p) <= same * abs(g2.p - g1.p):
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
        return [Point(foot)] if h2 > -max(tol * tol, 64.0 * _MACHINE_EPS) else []
    h = circ.r * math.sqrt(h2)
    return sorted((Point(z) for z in (foot + u * h, foot - u * h)),
                  key=lambda p: (p.real, p.imag))


def invert_point(mirror: Circle, p: MaybePoint, tol: float = DEFAULT_TOL) -> MaybePoint:
    """Inversive image of a point in a circle mirror, o + r (r / conj(p - o)),
    which squares no coordinate.  A point within tol r of the center maps to
    infinity and a point at infinity to the center; a line mirror raises
    NotALine, and an image that is not a finite float PointAtInfinity."""
    if not 0.0 < tol < math.inf:
        check_tol(tol)
    if mirror.is_line:
        raise NotALine("cannot invert in a line")
    o, r = mirror.o, mirror.r
    if p.__class__ is AtInfinity:
        return Point(o)
    v = p - o
    # relative to r: tol * r underflows to 0 at subnormal sizes, and v can be 0
    try:
        near = abs(v / r) < tol
    except OverflowError:  # |v| beyond the float range, so p is no center
        near = False
    if near:
        return AtInfinity.along(1.0, 0.0)
    return finite_point(o + r * (r / v.conjugate()), "the inverse point")


def invert_circle(mirror: Circle, g: Circle | Line, tol: float = DEFAULT_TOL) -> Circle | Line:
    """Inversive image of a circle or line in a circle mirror of center c and
    radius R, in closed form; a line mirror raises NotALine.  A circle of
    center c + d and radius r goes to the circle of center c + s d and radius
    |s| r, s = R^2 / (|d|^2 - r^2), or, through c (||d| - r| <= tol r), to the
    line normal to d at R^2 / 2r from c.  A line with foot c + v goes to the
    circle through c whose diameter ends at c + R^2 v / |v|^2, or, through c
    (|v| <= tol R), to itself."""
    check_tol(tol)
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


def circle_of_similitude(o1: Circle, o2: Circle, tol: float = DEFAULT_TOL) -> Circle | Line:
    """The locus |X - c1| = k |X - c2| of the centers with the ratio k = R1 / R2
    of the radii: the circle of center (c1 - k^2 c2) / (1 - k^2) and radius
    k |c1 - c2| / |1 - k^2|, or the perpendicular bisector of the centers
    when |1 - k^2| < tol max(1, k^2).  Centers within tol times the largest
    of the radii and their distance raise ConcentricCircles."""
    gap = abs(o1.o - o2.o)
    if gap < check_tol(tol) * max(o1.r, o2.r, gap):
        raise ConcentricCircles("circle of similitude of concentric circles")
    k = o1.r / o2.r
    k2 = k * k
    a = 1.0 - k2
    if abs(a) < tol * max(1.0, k2):
        return Line(0.5 * (o1.o + o2.o), 1j * (o2.o - o1.o) / gap)
    return Circle((o1.o - k2 * o2.o) / a, k * gap / abs(a))


def max_cs_distance(w: complex, circles: tuple[Circle, ...] | list[Circle],
                    tol: float = DEFAULT_TOL, min_gap: float = 0.0, unit: float = 1.0) -> float:
    """Largest first-order distance of w from the circles of similitude of
    the pairs of circles, with no circle built: the Apollonius defect d1 - k d2
    (d_i = |w - c_i|, k = R1 / R2) over its gradient (w - c1) / d1 - k (w - c2)
    / d2, with each circle's w - c, d and (w - c) / d formed once, so that no
    product of a distance and a radius forms.  w at a center is infinitely
    far; a pair of centers less than min_gap apart is skipped (0.0 if all
    are) and a concentric pair raises ConcentricCircles.  Everything is read
    times unit, an exact power of two, so that no distance overflows."""
    terms, wu = [], w * unit
    for c in circles:
        o, r = c.o * unit, c.r  # r unscaled: their ratio is the same, and no r underflows
        u = wu - o
        d = abs(u)
        terms.append((o, r, tol * (r * unit), u, d, u / d if d else u))
    min_gap *= unit
    worst = None  # max(defects): the first, then each larger one, so a first nan stays
    for i, (o1, r1, tr1, _, d1, e1) in enumerate(terms):
        for o2, r2, tr2, v, d2, _ in terms[i + 1:]:
            gap = abs(o1 - o2)
            if gap < min_gap:
                continue
            # gap < tol * max(r1, r2, gap), term by term: rounding keeps the order
            if gap < tr1 or gap < tr2 or gap < tol * gap:
                raise ConcentricCircles("circle of similitude of concentric circles")
            k = r1 / r2
            grad = abs(e1 - k * v / d2) if d1 and d2 else 0.0
            defect = abs(d1 - k * d2) / grad if grad else math.inf
            if worst is None or defect > worst:
                worst = defect
    return 0.0 if worst is None else worst / unit


def orthocenter(p: complex, q: complex, r: complex) -> Point:
    """Orthocenter via H = P + Q + R - 2*O."""
    o = circumscribe(p, q, r, DEFAULT_TOL, with_radius=False)
    return finite_point(p + q + r - 2.0 * o, "the orthocenter")


# ---------------------------------------------------------------------------
# triangle conjugations


def mirrored_cevian(v: complex, x: complex, y: complex, p: complex) -> complex:
    """The unit direction of the line from v to p mirrored in the bisector of
    the angle x v y: the product of the unit vectors of x - v, y - v and
    conj(p - v), or 0 when one of them is 0."""
    return _direction(x - v) * _direction(y - v) * _direction(p - v).conjugate()


def meet_of_cevians(a: complex, ua: complex, b: complex, ub: complex, c: complex,
                    uc: complex, tol: float) -> MaybePoint:
    """The meet of the two of the lines a + t ua, b + t ub and c + t uc that cross at the widest
    angle (the first on a tie), or the point at infinity along parallel ones (line_meet)."""
    lines, best = (c, uc, a, ua), abs((uc.conjugate() * ua).imag)
    cross = abs((ua.conjugate() * ub).imag)
    if cross > best:
        lines, best = (a, ua, b, ub), cross
    if abs((ub.conjugate() * uc).imag) > best:
        lines = (b, ub, c, uc)
    m = line_meet(*lines, tol)
    if m is None:
        return AtInfinity.along(lines[3].real, lines[3].imag)
    return finite_point(m, "the isogonal conjugate")


def isogonal_conjugate_triangle(a: complex, b: complex, c: complex, p: MaybePoint,
                                tol: float = DEFAULT_TOL) -> MaybePoint:
    """Isogonal conjugate of p in the triangle a, b, c: the meet_of_cevians of
    its three mirrored_cevian lines, the two that cross at the widest angle.  A
    point on the circumcircle, where the three are parallel, goes to infinity
    along them; one on a side line to the opposite vertex, where the lines of
    the other two vertices meet.  A triangle flat within tol, read in the
    unit_near of its longer side from a, raises circumcenter's CollinearInput;
    a point at infinity, or one within tol of a vertex, DegenerateConjugate."""
    u, v = b - a, c - a
    unit = unit_near(max(abs(u), abs(v)))
    circumcenter(u * unit, v * unit, check_tol(tol))
    if isinstance(p, AtInfinity):
        raise DegenerateConjugate("conjugate of a point at infinity")
    gaps = abs(a - p), abs(b - p), abs(c - p)
    if min(gaps) < tol * (max(*gaps, abs(b - a), abs(c - b), abs(a - c)) or 1.0):
        raise DegenerateConjugate("conjugate of a triangle vertex")
    return meet_of_cevians(a, mirrored_cevian(a, b, c, p), b, mirrored_cevian(b, c, a, p),
                           c, mirrored_cevian(c, a, b, p), tol)
