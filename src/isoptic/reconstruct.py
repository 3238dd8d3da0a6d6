"""The reconstructions, which invert the constructions of ``quad``, loaded on
first use: a quadrilateral from W or S and its pedal feet, and the fourth
vertex from three vertices and W.
"""

from __future__ import annotations

from .curves import circumcircle, invert_point, line_meet
from .errors import (
    DegenerateConjugate,
    NoIntersection,
    NonCollinearFeet,
    ParallelConsecutiveLines,
    Underdetermined,
)
from .kernel import (
    DEFAULT_TOL,
    Point,
    check_tol,
    finite_point,
    is_finite,
    require_finite,
    unit_near,
)
from .quad import Quadrilateral, collinearity_residual


def _framed(points: list[Point], tol: float) -> tuple[list[complex], float, float]:
    """points times unit, a power of two near 1 / their largest part, unit and their
    diameter there (1.0 for one point), which no difference overflows; checks tol."""
    check_tol(tol)
    unit = unit_near(max(max(abs(p.real), abs(p.imag)) for p in points))
    pts = [p * unit for p in points]
    return pts, unit, max(abs(x - y) for i, x in enumerate(pts) for y in pts[:i]) or 1.0


def reconstruct_from_pedal_w(w: Point, feet: list[Point],
                             tol: float = DEFAULT_TOL) -> Quadrilateral:
    """Rebuild the quadrilateral from W and its four pedal feet (_from_feet)."""
    return _from_feet(w, feet, tol, "w")


def reconstruct_from_simson(s: Point, feet: list[Point],
                            tol: float = DEFAULT_TOL) -> Quadrilateral:
    """Rebuild the quadrilateral from the Simson point and its collinear feet (_from_feet)."""
    return _from_feet(s, feet, tol, "s")


def _from_feet(p: Point, feet: list[Point], tol: float, name: str) -> Quadrilateral:
    """Rebuild the quadrilateral from the point p, which errors call name, and its
    pedal feet; the Simson point s needs them collinear.

    Each side line passes through a foot perpendicular to the segment from
    p; vertices are the consecutive-line meets, solved relative to p (_framed).
    """
    require_finite(p, *feet)
    (pu, *fu), unit, scale = _framed([p, *feet], tol)
    if name == "s" and collinearity_residual(fu) > 1e3 * tol * scale:
        raise NonCollinearFeet("Simson feet must be collinear")
    z = [f - pu for f in fu]
    if min(map(abs, z)) < tol * scale:
        raise DegenerateConjugate(f"a pedal foot coincides with {name}")
    corners = []
    for k in range(4):  # A = DA ^ AB, B = AB ^ BC, ...
        m = line_meet(z[k - 1], 1j * z[k - 1], z[k], 1j * z[k], tol)
        if m is None:
            raise ParallelConsecutiveLines("consecutive reconstruction lines are parallel")
        corners.append(Point(p + m / unit))
    return Quadrilateral(*corners, tol=tol)


def reconstruct_fourth_vertex(a: Point, b: Point, c: Point, w: Point,
                              tol: float = DEFAULT_TOL) -> Point:
    """Recover the fourth vertex from three vertices and the isoptic point, in _framed.

    Inversion in the circles (a w b) and (b w c) takes the circumcenter B2 of
    (a b c) to the triad centers A2 and C2.  Their circles o1 and o3 meet in B
    and D, so D is B mirrored in line A2C2: A2 + e / conj(e) conj(B - A2), e = C2 - A2.
    """
    require_finite(a, b, c, w)
    (a, b, c, w), unit, scale = _framed([a, b, c, w], tol)
    o2 = circumcircle(a, b, c, tol)
    if abs(w - o2.o) < 1e3 * tol * scale:
        raise Underdetermined("w at the circumcenter: any concyclic point works")
    if o2.distance_to(w) < 1e3 * tol * scale:
        raise Underdetermined("w on the circumcircle of the three vertices")
    cs21 = circumcircle(a, w, b, tol)
    cs23 = circumcircle(b, w, c, tol)
    a2 = invert_point(cs21, o2.o, tol)
    c2 = invert_point(cs23, o2.o, tol)
    if not (is_finite(a2) and is_finite(c2)):
        raise Underdetermined("triad centers escape to infinity")
    e = c2 - a2
    if abs(e) <= tol * scale:
        raise NoIntersection("the transferred triad centers coincide")
    d = a2 + e / e.conjugate() * (b - a2).conjugate()
    if abs(d - b) <= tol * scale:
        raise NoIntersection("the transferred triad circles touch only at B")
    return finite_point(d / unit, "the fourth vertex")
