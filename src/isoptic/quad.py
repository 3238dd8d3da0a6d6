"""Quadrilateral constructions: triad circles, the generation maps, the
similarity ratio, the isoptic point W by several routes, the Simson point,
pedal and Varignon parallelograms, isogonal conjugation with respect to a
quadrilateral, and the reconstruction procedures.

Vertex conventions: a quadrilateral is the ordered tuple (A, B, C, D).  The
triad circles are o1 = (D A B), o2 = (A B C), o3 = (B C D), o4 = (C D A); the
center of o_i is the i-th vertex of the next generation, so A2 = center(o1)
and so on cyclically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .errors import (
    CollinearInput,
    CyclicDegeneration,
    DegenerateConjugate,
    DegenerateRay,
    IllConditionedAngles,
    NoIntersection,
    NonCollinearFeet,
    NonConvergent,
    OrthocentricDegeneration,
    ParallelConsecutiveLines,
    PointAtInfinity,
    Underdetermined,
)
from .kernel import (
    DEFAULT_TOL,
    AtInfinity,
    Circle,
    GenCircle,
    MaybePoint,
    Point,
    circumcenter,
    circumcircle,
    cs_distance,
    diameter,
    invert_point,
    is_finite,
    isogonal_conjugate,
    norm2,
)


@dataclass(frozen=True)
class Quadrilateral:
    """Four ordered, pairwise distinct vertices with no collinear triple."""

    a: Point
    b: Point
    c: Point
    d: Point
    _diffs: tuple[complex, ...] = field(init=False, repr=False, compare=False)
    _scale: float = field(init=False, repr=False, compare=False)
    _height: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the side table _diffs = (B - A, C - A, D - A, C - B, D - B, D - C),
        # which every side and diagonal construction reads; one pass over it
        # gives the diameter and the least triad height, |cross| / longest
        # side (0 if the triad is one point)
        a, b, c, d = (self.a.to_complex(), self.b.to_complex(), self.c.to_complex(),
                      self.d.to_complex())
        diffs = ab, ac, ad, bc, bd, cd = b - a, c - a, d - a, c - b, d - b, d - c
        nab, nac, nad, nbc, nbd, ncd = [math.hypot(v.real, v.imag) for v in diffs]
        height = min(abs(_cross(bc, bd)) / (max(nbc, ncd, nbd) or math.inf),
                     abs(_cross(ac, ad)) / (max(nac, ncd, nad) or math.inf),
                     abs(_cross(ab, ad)) / (max(nab, nbd, nad) or math.inf),
                     abs(_cross(ab, ac)) / (max(nab, nbc, nac) or math.inf))
        vars(self).update(_diffs=diffs, _scale=max(nab, nac, nad, nbc, nbd, ncd) or 1.0,
                          _height=height)
        # a triad holding two vertices delta apart is at most delta high, so
        # this also rejects coincident vertices
        if height < DEFAULT_TOL * self._scale:
            raise CollinearInput("three vertices are collinear within tolerance")

    def vertices(self) -> tuple[Point, Point, Point, Point]:
        return (self.a, self.b, self.c, self.d)

    def sides(self) -> tuple[complex, complex, complex, complex]:
        """The side vectors B - A, C - B, D - C and A - D."""
        ab, _, ad, bc, _, cd = self._diffs
        return (ab, bc, cd, -ad)

    def scale(self) -> float:
        return self._scale

    def centroid(self) -> Point:
        return Point.from_complex(sum(v.to_complex() for v in self.vertices()) / 4.0)

    def min_triad_height(self) -> float:
        """Least height of the four triangles of three vertices."""
        return self._height

    def is_convex(self) -> bool:
        s = self.sides()
        crosses = [_cross(s[i - 1], s[i]) for i in range(4)]
        return all(c > 0 for c in crosses) or all(c < 0 for c in crosses)

    def signed_area(self) -> float:
        """Positive for counterclockwise vertex order."""
        # edge vectors from A: the absolute-coordinate shoelace cancels to 0
        # on a quadrilateral far smaller than its distance from the origin
        ab, ac, ad = self._diffs[:3]
        return (_cross(ab, ac) + _cross(ac, ad)) / 2.0

    def area(self) -> float:
        return abs(self.signed_area())

    def reordered(self, order: str) -> "Quadrilateral":
        """Same vertex set in a different cyclic order, e.g. 'acbd'."""
        m = {"a": self.a, "b": self.b, "c": self.c, "d": self.d}
        return Quadrilateral(*(m[ch] for ch in order))


@dataclass(frozen=True)
class TriadSystem:
    """The triad circles o1 = (D A B), o2 = (A B C), o3 = (B C D) and
    o4 = (C D A), each a center and a radius."""

    o1: Circle
    o2: Circle
    o3: Circle
    o4: Circle

    @property
    def circles(self) -> tuple[Circle, ...]:
        return (self.o1, self.o2, self.o3, self.o4)


@dataclass(frozen=True)
class ShapeClass:
    convex: bool
    cyclic: bool
    orthocentric: bool
    trapezoid: bool
    parallelogram: bool

    @property
    def concave(self) -> bool:
        return not self.convex


@dataclass
class AnalysisReport:
    """Everything derived from one quadrilateral, with invariant residuals."""

    quad: Quadrilateral
    triads: TriadSystem
    r: float
    w: MaybePoint
    s: MaybePoint
    shape: ShapeClass
    pedal_w: list[Point] | None
    pedal_s: list[Point] | None
    varignon: list[Point]
    isoptic_quantity: float | None
    residuals: dict[str, float] = field(default_factory=dict)


class QuadState:
    """One quadrilateral and what is derived from it, each part computed
    once, on first use.

    The constructions below that read cached parts take a QuadState
    wherever they take a quadrilateral, and then reuse its parts and its
    tol; the properties call them through this module's globals.  ``next``
    (the state of Q2) and ``prev`` (that of prev_generation(q)) chain the
    generations, so that each one and its triad circles are built once.
    """

    def __init__(self, q: Quadrilateral, tol: float = DEFAULT_TOL):
        self.q = q
        self.tol = tol

    @cached_property
    def scale(self) -> float:
        return self.q.scale()

    @cached_property
    def triads(self) -> TriadSystem:
        return triad_circles(self.q, self.tol)

    @cached_property
    def cyclic(self) -> bool:
        """D lies within tol * scale of the circle o2 through A, B, C."""
        return self.triads.o2.distance_to(self.q.d) / self.scale < self.tol

    @cached_property
    def shape(self) -> ShapeClass:
        return classify(self)

    @cached_property
    def r(self) -> float:
        return similarity_ratio(self.q, self.tol)

    @cached_property
    def q2(self) -> Quadrilateral:
        return next_generation(self)

    @cached_property
    def next(self) -> QuadState:
        return QuadState(self.q2, self.tol)

    @cached_property
    def prev(self) -> QuadState:
        return QuadState(prev_generation(self.q, self.tol), self.tol)

    @cached_property
    def w(self) -> MaybePoint:
        return isoptic_point(self.q)

    @cached_property
    def s(self) -> MaybePoint:
        return simson_point(self.q)

    @cached_property
    def pedal_w(self) -> list[Point] | None:
        return pedal_quadrilateral(self.q, self.w) if is_finite(self.w) else None

    @cached_property
    def pedal_s(self) -> list[Point] | None:
        return pedal_quadrilateral(self.q, self.s) if is_finite(self.s) else None


QuadOrState = Quadrilateral | QuadState


def _state(q: QuadOrState, tol: float) -> QuadState:
    return q if isinstance(q, QuadState) else QuadState(q, tol)


# ---------------------------------------------------------------------------
# angles and shape


def _dot(u: complex, v: complex) -> float:
    return u.real * v.real + u.imag * v.imag


def _cross(u: complex, v: complex) -> float:
    return u.real * v.imag - u.imag * v.real


def interior_angles(q: Quadrilateral) -> tuple[float, float, float, float]:
    """Interior angles in (0, 2*pi); a reflex vertex of a concave
    quadrilateral gets its actual reflex angle."""
    s = q.sides()
    orient = 1.0 if q.signed_area() > 0.0 else -1.0
    out = []
    for i in range(4):
        nxt, prv = s[i], -s[i - 1]
        out.append(math.atan2(orient * _cross(nxt, prv), _dot(nxt, prv)) % (2.0 * math.pi))
    return tuple(out)


def noncyclicity_measure(q: Quadrilateral) -> float:
    """|alpha + gamma - pi|; zero exactly for cyclic quadrilaterals."""
    a, _, g, _ = interior_angles(q)
    return abs(a + g - math.pi)


def classify(q: QuadOrState, tol: float = DEFAULT_TOL) -> ShapeClass:
    st = _state(q, tol)
    tol = st.tol
    vs = st.q.vertices()
    scale = st.scale
    convex = st.q.is_convex()
    cyclic = st.cyclic

    # each vertex v is the orthocenter of the other three, their sum minus
    # twice the center o of their triad circle: 2 (v + o) = sum of all four
    t = st.triads
    total = sum(v.to_complex() for v in vs)
    ortho = all(abs(2.0 * (v.to_complex() + circ.o.to_complex()) - total) <= tol * scale
                for v, circ in zip(vs, (t.o3, t.o4, t.o1, t.o2)))

    def parallel(u: complex, v: complex) -> bool:
        return (abs(_cross(u, v)) / (math.hypot(u.real, u.imag) * math.hypot(v.real, v.imag))
                < 1e3 * tol)

    ab, bc, cd, da = st.q.sides()
    ab_cd = parallel(ab, cd)
    bc_da = parallel(bc, da)
    trapezoid = ab_cd or bc_da
    parallelogram = ab_cd and bc_da
    return ShapeClass(convex=convex, cyclic=cyclic, orthocentric=ortho,
                      trapezoid=trapezoid, parallelogram=parallelogram)


def similarity_ratio(q: Quadrilateral, tol: float = DEFAULT_TOL) -> float:
    """r = (cot a + cot g)(cot b + cot d) / 4 over the interior angles.

    Each cot is _cot of the two edges at the vertex; reversing the
    orientation negates all four and leaves r as it is.  |cot| >
    cot(sqrt(tol)), an angle within sqrt(tol) of 0 or pi, raises
    IllConditionedAngles.  r < 0 convex noncyclic, 0 cyclic, >= 1 concave.
    """
    s = q.sides()
    cots = [_cot(s[i], -s[i - 1]) for i in range(4)]
    max_cot = 1.0 / math.tan(math.sqrt(tol))
    for vertex, cot in zip("ABCD", cots):
        if abs(cot) > max_cot:
            raise IllConditionedAngles(f"interior angle at {vertex} too close to a multiple of pi")
    ca, cb, cg, cd = cots
    return 0.25 * (ca + cg) * (cb + cd)


def _cot(u: complex, w: complex) -> float:
    """Cotangent of the directed angle from ray u to ray w: dot over cross
    (never 0 for two rays of a valid quadrilateral)."""
    return _dot(u, w) / _cross(u, w)


def cotangent_identity_residuals(q: Quadrilateral) -> tuple[float, float]:
    """Residuals of the two side-diagonal cotangent identities against 4r.

    The diagonals split each interior angle into two directed angles, one
    from the outgoing side to the diagonal and one from the diagonal to the
    incoming side; each identity pairs the cotangents of four of them.
    """
    ab, ac, ad, bc, bd, cd = q._diffs
    lhs = 4.0 * similarity_ratio(q)
    # pairing fixed by requiring equality with 4*r of the reordered
    # quadrilaterals ACBD / ACDB, whose ratio coincides with the original;
    # the angle at D between DB and DC is _cot(-bd, -cd) = _cot(bd, cd)
    r1 = (_cot(ab, ac) - _cot(bd, cd)) * (_cot(bd, -ab) - _cot(cd, -ac))
    r2 = (_cot(ac, ad) - _cot(bc, bd)) * (_cot(ad, bd) - _cot(ac, bc))
    scale = max(1.0, abs(lhs))
    return (abs(lhs - r1) / scale, abs(lhs - r2) / scale)


# ---------------------------------------------------------------------------
# triad circles and the generation maps


_TRIADS = ((3, 0, 1), (0, 1, 2), (1, 2, 3), (2, 3, 0))  # DAB, ABC, BCD, CDA


def _triad_centers(z: list[complex], tol: float) -> list[complex]:
    """Centers of the four triads of z in z's frame, from one lift |z_k|^2 / 2
    per vertex shared by all four: their rounding errors are those of one
    perturbed input, so Q2 keeps its shape as it shrinks."""
    lift = [0.5 * norm2(v) for v in z]
    return [circumcenter(z[j] - z[i], z[k] - z[i], lift[j] - lift[i], lift[k] - lift[i], tol)
            for i, j, k in _TRIADS]


def triad_circles(q: Quadrilateral, tol: float = DEFAULT_TOL) -> TriadSystem:
    """The four triad circles, solved in one shared frame in two passes: the
    first, in the centroid frame, finds the center nearest the centroid; the
    second solves again with the origin there, where a nearly cyclic input's
    centers are small.  A nearly flat triad's center runs far off, so no
    fixed triad's center serves.  The origin is added back once, at the end.
    Both passes run on the vertices times unit, an exact power of two near
    1 / diameter, so the lifts neither overflow nor underflow."""
    vs = [v.to_complex() for v in q.vertices()]
    g = sum(vs) / 4.0
    unit = math.ldexp(1.0, -math.frexp(q.scale())[1])
    origin = g + min(_triad_centers([(v - g) * unit for v in vs], tol), key=abs) / unit
    z = [(v - origin) * unit for v in vs]
    return TriadSystem(*(
        Circle(Point.from_complex(origin + c / unit),
               (abs(z[i] - c) + abs(z[j] - c) + abs(z[k] - c)) / 3 / unit)
        for (i, j, k), c in zip(_TRIADS, _triad_centers(z, tol))))


def next_generation(q: QuadOrState, tol: float = DEFAULT_TOL) -> Quadrilateral:
    """Quadrilateral of the triad-circle centers.

    Raises CyclicDegeneration (carrying the circumcenter) when the input is
    cyclic, since all four centers then coincide.
    """
    st = _state(q, tol)
    if st.cyclic:
        raise CyclicDegeneration("cyclic quadrilateral degenerates to a point",
                                 point=st.triads.o2.center())
    return Quadrilateral(*(o.o for o in st.triads.circles))


def prev_generation(q: Quadrilateral, tol: float = DEFAULT_TOL) -> Quadrilateral:
    """Reverse of the perpendicular-bisector step by isogonal conjugation.

    Treating q as a second-generation quadrilateral (A2, B2, C2, D2), each
    first-generation vertex is the conjugate of the opposite vertex in the
    triangle of the remaining three.
    """
    out = _conjugates_in_triads(q, tol)
    if not all(is_finite(p) for p in out):
        raise OrthocentricDegeneration("isogonal conjugate escapes to infinity")
    return Quadrilateral(*out)


def _conjugates_in_triads(q: Quadrilateral, tol: float) -> list[MaybePoint]:
    """The isogonal conjugate of the vertex left out of each triad DAB, ABC,
    BCD and CDA (C, D, A and B) in the triangle of that triad."""
    z = [v.to_complex() for v in q.vertices()]
    return [isogonal_conjugate(z[i], z[j], z[k], z[(k + 1) % 4], tol) for i, j, k in _TRIADS]


# ---------------------------------------------------------------------------
# the isoptic point W


_AT_INFINITY = 1e-12


def isoptic_point(q: Quadrilateral) -> MaybePoint:
    """The unique point whose pedal quadrilateral is a parallelogram.

    With z_k the vertices relative to the centroid g, e_k = z_{k+1} - z_k
    and u_k^2 = e_k / conj(e_k), the foot of p on side k is
    (p + z_k + u_k^2 conj(p - z_k)) / 2.  The alternating sum of the feet
    vanishes at W, so with s = (+1, -1, +1, -1)

        conj(W - g) sum s_k u_k^2 = sum s_k (u_k^2 conj(z_k) - z_k).

    A cyclic input gives its circumcenter.  On orthocentric systems (r = 1)
    the denominator vanishes: below _AT_INFINITY (1 + |g| / diameter), the
    input's rounding level, W is at infinity along AB (the line of
    similitude of the congruent o1 and o2).
    """
    g = q.centroid().to_complex()
    z = [v.to_complex() - g for v in q.vertices()]
    num = den = 0j
    for k, sign in enumerate((1.0, -1.0, 1.0, -1.0)):
        e = z[(k + 1) % 4] - z[k]
        u2 = e / e.conjugate()
        den += sign * u2
        num += sign * (u2 * z[k].conjugate() - z[k])
    scale = q.scale()
    if abs(den) * scale < _AT_INFINITY * (scale + abs(g)):
        v = q.b - q.a
        return AtInfinity.along(v.x, v.y)
    return Point.from_complex(g + (num / den).conjugate())


def _aitken(zs: list[complex], scale: float) -> Point:
    """Aitken extrapolation of three iterates, one coordinate at a time."""
    out = []
    for x0, x1, x2 in ((z.real for z in zs), (z.imag for z in zs)):
        den = x2 - 2.0 * x1 + x0
        out.append(x2 if abs(den) < 1e-14 * scale else x2 - (x2 - x1) ** 2 / den)
    return Point(*out)


def isoptic_point_via_limit(q: QuadOrState, max_gen: int = 60,
                            tol: float = DEFAULT_TOL) -> MaybePoint:
    """Limit of the forward (|r| < 1) or reverse (|r| > 1) iteration, walked
    along the state's next or prev chain.

    Q^(k+2) = W + r (Q^(k) - W), so each same-parity centroid subsequence
    is geometric with the real ratio r and Aitken extrapolation of three of
    its terms is exact up to rounding: on generic input the route returns
    after five generations, when the two subsequences agree.  max_gen is
    only a budget for inputs where they do not.
    """
    st = _state(q, tol)
    tol, r = st.tol, st.r
    if abs(abs(r) - 1.0) < 1e-6:
        raise NonConvergent(f"|r| = {abs(r)} is on the periodic locus")
    current, scale, forward = st, st.scale, abs(r) < 1.0
    cents = [st.q.centroid().to_complex()]
    for _ in range(max_gen):
        try:
            current = current.next if forward else current.prev
        except (CyclicDegeneration, OrthocentricDegeneration) as exc:
            if isinstance(exc, CyclicDegeneration) and exc.point is not None:
                return exc.point
            raise NonConvergent("iteration hit a degeneration") from exc
        cents.append(current.q.centroid().to_complex())
        if current.scale < tol * scale:
            return current.q.centroid()
        if len(cents) >= 6:
            # extrapolate the two same-parity subsequences and cross-check
            w, u = _aitken(cents[-6:-1:2], scale), _aitken(cents[-5::2], scale)
            if w.dist(u) < 0.5 * tol * scale:
                return Point(0.5 * (w.x + u.x), 0.5 * (w.y + u.y))
    # fall back to the extrapolate of the subsequence before the last iterate
    if len(cents) >= 6:
        return _aitken(cents[-6:-1:2], scale)
    raise NonConvergent("iteration budget exhausted")


def _mean_image(images: list[MaybePoint]) -> MaybePoint:
    """The mean of four images, or the first of them at infinity."""
    for img in images:
        if not is_finite(img):
            return img
    return Point(sum(p.x for p in images) / 4.0, sum(p.y for p in images) / 4.0)


def isoptic_point_via_inversion(q: QuadOrState, tol: float = DEFAULT_TOL) -> MaybePoint:
    """W as the inversion of each vertex in the matching second-generation
    triad circle; the four images are averaged."""
    st = _state(q, tol)   # its Q2 raises CyclicDegeneration when cyclic
    return _mean_image([invert_point(mirror, v, st.tol)
                        for mirror, v in zip(st.next.triads.circles, st.q.vertices())])


def isoptic_point_via_inv_iso(q: QuadOrState, tol: float = DEFAULT_TOL) -> MaybePoint:
    """W as inversion-of-conjugate: each vertex is conjugated in the triangle
    of the remaining three, then inverted in that triangle's circumcircle."""
    st = _state(q, tol)
    return _mean_image([invert_point(mirror, p, st.tol) for mirror, p
                        in zip(st.triads.circles, _conjugates_in_triads(st.q, st.tol))])


def isoptic_quantity(q: QuadOrState, w: Point, tol: float = DEFAULT_TOL) -> list[float]:
    """d_i / R_i for the four triad circles; all equal exactly at W."""
    return [w.dist(o.center()) / o.radius() for o in _state(q, tol).triads.circles]


def isodynamic_ratios(q: QuadOrState, w: Point, tol: float = DEFAULT_TOL) -> float:
    """Relative spread of |w - vertex_k| * R_sigma(k); ~0 exactly at W.

    sigma pairs each vertex with the radius of the triad circle through the
    other three: (A, R3), (B, R4), (C, R1), (D, R2).
    """
    st = _state(q, tol)
    q = st.q
    r1, r2, r3, r4 = (o.r for o in st.triads.circles)
    prods = [w.dist(q.a) * r3, w.dist(q.b) * r4, w.dist(q.c) * r1, w.dist(q.d) * r2]
    mean = sum(prods) / 4.0
    if mean == 0.0:
        return 0.0
    return max(abs(p - mean) for p in prods) / mean


def angle_sums_at_point(q: Quadrilateral, w: Point) -> float:
    """Max residual of angle(X w Y) = angle(X u Y) + angle(X v Y) over the
    four sides XY, in directed angles mod pi; ~0 exactly at W.  The sides differ
    by the phase of t = (Y - w) / (X - w) (X - u) / (Y - u) (X - v) / (Y - v),
    atan2(|Im t|, |Re t|) from a multiple of pi.  w at a vertex raises DegenerateRay."""
    a, b, c, d = (v.to_complex() for v in q.vertices())
    p = w.to_complex()
    worst = 0.0
    for x, y, u, v in ((a, b, c, d), (b, c, a, d), (c, d, a, b), (d, a, b, c)):
        if p == x or p == y:
            raise DegenerateRay("w coincides with a vertex")
        t = (y - p) / (x - p) * (x - u) / (y - u) * (x - v) / (y - v)
        worst = max(worst, math.atan2(abs(t.imag), abs(t.real)))
    return worst


# ---------------------------------------------------------------------------
# pedals, Simson point, Varignon


def pedal_quadrilateral(q: Quadrilateral, p: Point) -> list[Point]:
    """Feet of the perpendiculars from p onto the side lines AB, BC, CD, DA:
    with v the side's first vertex, e its vector, u^2 = e / conj(e) and
    d = p - v, the foot is v + (d + u^2 conj(d)) / 2, where u^2 conj(d) is d
    mirrored in the side."""
    z = p.to_complex()
    feet = []
    for v, e in zip(q.vertices(), q.sides()):
        v = v.to_complex()
        d = z - v
        feet.append(Point.from_complex(v + 0.5 * (d + e / e.conjugate() * d.conjugate())))
    return feet


def varignon(q: Quadrilateral) -> list[Point]:
    vs = q.vertices()
    return [0.5 * (vs[i] + vs[(i + 1) % 4]) for i in range(4)]


def simson_point(q: Quadrilateral) -> MaybePoint:
    """The unique point whose four pedal feet are collinear.

    S is the Miquel point of the complete quadrilateral, the center of the
    spiral similarity taking A to D and B to C: with a, b, c, d the vertices
    relative to the centroid G, S = G + (ac - bd) / (a + c - b - d).  The
    denominator vanishes on parallelograms: below _AT_INFINITY
    (diameter + |G|) S is at infinity along AD.
    """
    g = q.centroid().to_complex()
    a, b, c, d = (v.to_complex() - g for v in q.vertices())
    den = a + c - b - d
    if abs(den) < _AT_INFINITY * (q.scale() + abs(g)):
        v = q.d - q.a
        return AtInfinity.along(v.x, v.y)
    return Point.from_complex(g + (a * c - b * d) / den)


def _tls_axis(points: list[Point]) -> tuple[complex, complex, list[complex]]:
    """The centroid g of the points, the unit direction of their
    total-least-squares line through g, and the points relative to g."""
    z = [p.to_complex() for p in points]
    g = sum(z) / len(z)
    rel = [v - g for v in z]
    # sum (z - g)^2 = sxx - syy + 2i sxy: half its phase is the principal
    # direction of the scatter matrix
    return g, cmath.rect(1.0, 0.5 * cmath.phase(sum(v * v for v in rel))), rel


def best_fit_line(points: list[Point]) -> GenCircle:
    """Total-least-squares line through a point cloud."""
    g, u, _ = _tls_axis(points)
    return GenCircle.line_point_direction(Point.from_complex(g), Point.from_complex(u))


def collinearity_residual(points: list[Point]) -> float:
    """Largest distance of the points from their total-least-squares line."""
    _, u, rel = _tls_axis(points)
    return max(abs(_cross(u, v)) for v in rel)


def simson_line(q: QuadOrState, tol: float = DEFAULT_TOL) -> GenCircle:
    feet = _state(q, tol).pedal_s
    if feet is None:
        raise PointAtInfinity("the Simson point is not finite")
    return best_fit_line(feet)


def parallelogram_residual(pts: list[Point], scale: float) -> float:
    """Scale-free deviation of the opposite-side vector sums from zero."""
    e1 = (pts[1] - pts[0]) + (pts[3] - pts[2])
    e2 = (pts[2] - pts[1]) + (pts[0] - pts[3])
    return max(e1.norm(), e2.norm()) / scale


def _meet(p: complex, u: complex, q: complex, v: complex, tol: float) -> complex | None:
    """The meet of the lines p + t u and q + t v; None when they are
    parallel within tol, |u x v| <= tol |u| |v|."""
    det = _cross(u, v)
    if abs(det) <= tol * abs(u) * abs(v):
        return None
    return p + u * (_cross(q - p, v) / det)


# ---------------------------------------------------------------------------
# isogonal conjugation with respect to the quadrilateral


def isogonal_conjugate_quad(q: Quadrilateral, p: Point,
                            tol: float = DEFAULT_TOL) -> list[MaybePoint]:
    """The four adjacent intersections of the reflections of the lines
    vertex-to-p in the angle bisectors at the vertices.

    The rays at vertex i run along s_i and -s_(i-1), so the reflection of
    the direction p - v in their bisector is s_i (-s_(i-1)) conj(p - v), up
    to a positive factor.  Parallel adjacent reflected lines put that vertex
    of the conjugate at infinity (along their common direction).
    """
    vs = q.vertices()
    scale = diameter(list(vs) + [p])
    z, s = p.to_complex(), q.sides()
    lines = []
    for i, v in enumerate(vs):
        if v.dist(p) < tol * scale:
            raise DegenerateConjugate("p coincides with a vertex")
        v = v.to_complex()
        lines.append((v, s[i] * -s[i - 1] * (z - v).conjugate()))
    out: list[MaybePoint] = []
    # P_A = l_A ^ l_B, P_B = l_B ^ l_C, P_C = l_C ^ l_D, P_D = l_D ^ l_A
    for (v1, d1), (v2, d2) in zip(lines, lines[1:] + lines[:1]):
        m = _meet(v1, d1, v2, d2, tol)
        out.append(AtInfinity.along(d1.real, d1.imag) if m is None else Point.from_complex(m))
    return out


# ---------------------------------------------------------------------------
# reconstructions


def reconstruct_from_pedal_w(w: Point, feet: list[Point],
                             tol: float = DEFAULT_TOL) -> Quadrilateral:
    """Rebuild the quadrilateral from W and its four pedal feet.

    Each side line passes through a foot perpendicular to the segment from
    w; vertices are the consecutive-line meets, solved relative to w.
    """
    scale = diameter(feet + [w])
    for f in feet:
        if f.dist(w) < tol * scale:
            raise DegenerateConjugate("a pedal foot coincides with w")
    o = w.to_complex()
    z = [f.to_complex() - o for f in feet]
    corners = []
    for k in range(4):  # A = DA ^ AB, B = AB ^ BC, ...
        m = _meet(z[k - 1], 1j * z[k - 1], z[k], 1j * z[k], tol)
        if m is None:
            raise ParallelConsecutiveLines("consecutive reconstruction lines are parallel")
        corners.append(Point.from_complex(o + m))
    return Quadrilateral(*corners)


def reconstruct_from_simson(s: Point, feet: list[Point],
                            tol: float = DEFAULT_TOL) -> Quadrilateral:
    """Rebuild the quadrilateral from the Simson point and its collinear feet."""
    scale = diameter(feet + [s])
    if collinearity_residual(feet) > 1e3 * tol * scale:
        raise NonCollinearFeet("Simson feet must be collinear")
    return reconstruct_from_pedal_w(s, feet, tol)


def reconstruct_fourth_vertex(a: Point, b: Point, c: Point, w: Point,
                              tol: float = DEFAULT_TOL) -> Point:
    """Recover the fourth vertex from three vertices and the isoptic point.

    Inversion in the circles (a w b) and (b w c) takes the circumcenter B2 of
    (a b c) to the triad centers A2 and C2.  Their circles o1 and o3 meet in B
    and D, so D is B mirrored in line A2C2: A2 + e / conj(e) conj(B - A2), e = C2 - A2.
    """
    if not is_finite(w):
        raise PointAtInfinity("the isoptic point is not finite")
    o2 = circumcircle(a, b, c, tol)
    scale = diameter([a, b, c, w])
    if w.dist(o2.center()) < 1e3 * tol * scale:
        raise Underdetermined("w at the circumcenter: any concyclic point works")
    if o2.distance_to(w) < 1e3 * tol * scale:
        raise Underdetermined("w on the circumcircle of the three vertices")
    cs21 = circumcircle(a, w, b, tol)
    cs23 = circumcircle(b, w, c, tol)
    b2 = o2.center()
    a2 = invert_point(cs21, b2, tol)
    c2 = invert_point(cs23, b2, tol)
    if not (is_finite(a2) and is_finite(c2)):
        raise Underdetermined("triad centers escape to infinity")
    z = a2.to_complex()
    e = c2.to_complex() - z
    if abs(e) <= tol * scale:
        raise NoIntersection("the transferred triad centers coincide")
    d = Point.from_complex(z + e / e.conjugate() * (b.to_complex() - z).conjugate())
    if d.dist(b) <= tol * scale:
        raise NoIntersection("the transferred triad circles touch only at B")
    return d


def quad_distance(q1: Quadrilateral, q2: Quadrilateral) -> float:
    """Scale-free distance between quadrilaterals, up to cyclic relabeling.

    Needed for the periodicity checks: a period-two parallelogram returns to
    itself with vertices exchanged by the half-turn about W.
    """
    v1, v2 = q1.vertices(), q2.vertices()
    best = min(max(v1[i].dist(v2[(i + shift) % 4]) for i in range(4)) for shift in range(4))
    return best / max(q1.scale(), q2.scale())


def periodicity_residual(q: QuadOrState, tol: float = DEFAULT_TOL) -> float:
    """How far Q^(3) is from Q^(1), zero for the period-two classes."""
    st = _state(q, tol)
    return quad_distance(st.q, st.next.next.q)


# ---------------------------------------------------------------------------
# cross checks used by the verify harness


def cross_generation_cs_residual(q: QuadOrState, w: Point,
                                 tol: float = DEFAULT_TOL) -> float:
    """Max scale-free distance of w to CS(o_i^(k), o_j^(l)) across the first
    three generations, each read from the Apollonius defect (cs_distance)."""
    st = _state(q, tol)
    tol, scale = st.tol, st.scale
    circles = [c for g in (st, st.next, st.next.next) for c in g.triads.circles]
    # a pair of centers within noise is one circle twice: no CS
    return max((cs_distance(w, c1, c2, tol) for c1, c2 in combinations(circles, 2)
                if c1.o.dist(c2.o) >= 1e3 * tol * scale), default=0.0) / scale


def quadrangle_duality_residual(q: Quadrilateral, w: Point, mirror_radius: float,
                                tol: float = DEFAULT_TOL) -> float:
    """Inversion centered at W takes the six vertex-pair lines onto the six
    circles of similitude of the image quadrilateral's triad circles.

    The image of line AB passes through W, A' and B'.  A' and B' lie on o1'
    and o2', so the image is in their pencil; so is CS(o1', o2'), and only
    one member of the pencil passes through W.  So the image is the CS if and
    only if W lies on it: the residual is W's largest distance from the six
    (cs_distance, the Apollonius defect) over the image's diameter."""
    mirror = Circle(w, mirror_radius)
    images = [invert_point(mirror, v, tol) for v in q.vertices()]
    if not all(is_finite(p) for p in images):
        raise DegenerateConjugate("a vertex maps to infinity under the duality mirror")
    q_img = Quadrilateral(*images)
    pairs = combinations(triad_circles(q_img, tol).circles, 2)
    return max(cs_distance(w, c1, c2, tol) for c1, c2 in pairs) / q_img.scale()


def feet_circles_residual(st: QuadState) -> float | None:
    """Max scale-free distance of W from the eight vertex/foot/center circles.

    F_x is the meet of the perpendicular bisector of side x (AB, BC, CD,
    DA) with the opposite side line.
    """
    q, w, tol = st.q, st.w, st.tol
    if not is_finite(w):
        return None
    vs = q.vertices()
    z, s = [v.to_complex() for v in vs], q.sides()
    feet = []
    for k in range(4):
        f = _meet(z[k] + 0.5 * s[k], 1j * s[k], z[k - 2], s[k - 2], tol)
        if f is None:
            return None  # trapezoid: a foot escapes to infinity
        feet.append(Point.from_complex(f))
    A, B, C, D = vs
    fa, fb, fc, fd = feet
    a2, b2, c2, d2 = (o.o for o in st.triads.circles)
    triples = [(A, fb, b2), (A, fc, d2), (B, fc, c2), (B, fd, a2),
               (C, fd, d2), (C, fa, b2), (D, fa, a2), (D, fb, c2)]
    worst = 0.0
    for p1, p2, p3 in triples:
        circ = circumcircle(p1, p2, p3, tol)
        worst = max(worst, circ.distance_to(w) / st.scale)
    return worst


def spiral_transport_residual(st: QuadState) -> float | None:
    """Residual of the spiral similarity at W taking o1 -> o4 mapping B to C
    (and the o1 -> o2, o4 -> o2 analogues): one complex factor about W,
    R_dst / R_src times the unit phase of k = (o_dst - W) conj(o_src - W)."""
    q, triads = st.q, st.triads
    if not is_finite(st.w):
        return None
    w = st.w.to_complex()
    cases = [
        (triads.o1, triads.o4, q.b, q.c),
        (triads.o1, triads.o2, q.d, q.c),
        (triads.o4, triads.o2, q.d, q.b),
    ]
    worst = 0.0
    for src, dst, point, expected in cases:
        k = (dst.o.to_complex() - w) * (src.o.to_complex() - w).conjugate()
        img = w + (point.to_complex() - w) * cmath.rect(dst.r / src.r, cmath.phase(k))
        worst = max(worst, abs(img - expected.to_complex()) / st.scale)
    return worst


# ---------------------------------------------------------------------------
# residuals of the identities at W and S, shared by analyze and the verify
# suite; None where W or S is not finite


def six_cs_residual(st: QuadState) -> float | None:
    """Max scale-free distance of W from the six circles of similitude, each
    read from the Apollonius defect (cs_distance)."""
    w = st.w
    if not is_finite(w) or st.cyclic:
        return None
    pairs = combinations(st.triads.circles, 2)
    return max(cs_distance(w, c1, c2, st.tol) for c1, c2 in pairs) / st.scale


def area_ratio_residual(st: QuadState) -> float | None:
    """| |r| - area(Q2) / area(Q1) |; None where Q1's two lobes cancel to
    area 0, and raises where r or Q2 is undefined."""
    area = st.q.area()
    return None if area == 0.0 else abs(abs(st.r) - st.q2.area() / area)


def isoptic_spread_residual(st: QuadState) -> float | None:
    """Relative spread of the four d_i / R_i at W; None on cyclic input,
    where W is the common center and every d_i / R_i is rounding noise."""
    if not is_finite(st.w) or st.cyclic:
        return None
    qty = isoptic_quantity(st, st.w)
    mean = sum(qty) / 4.0
    if mean == 0.0:
        return None
    return (max(qty) - min(qty)) / mean


def isodynamic_residual(st: QuadState) -> float | None:
    return isodynamic_ratios(st, st.w) if is_finite(st.w) else None


def angle_sums_residual(st: QuadState) -> float | None:
    return angle_sums_at_point(st.q, st.w) if is_finite(st.w) else None


def pedal_w_residual(st: QuadState) -> float | None:
    """The pedal feet of W form a parallelogram."""
    feet = st.pedal_w
    return None if feet is None else parallelogram_residual(feet, st.scale)


def pedal_s_residual(st: QuadState) -> float | None:
    """The pedal feet of S are collinear."""
    feet = st.pedal_s
    return None if feet is None else collinearity_residual(feet) / st.scale


# ---------------------------------------------------------------------------
# the aggregate report


# report key -> residual
_RESIDUALS = {
    "isoptic_spread": isoptic_spread_residual,
    "isodynamic": isodynamic_residual,
    "pedal_w_parallelogram": pedal_w_residual,
    "angle_sums": angle_sums_residual,
    "six_cs": six_cs_residual,
    "pedal_s_collinear": pedal_s_residual,
    "area_ratio": area_ratio_residual,
}


def analyze(q: Quadrilateral, tol: float = DEFAULT_TOL) -> AnalysisReport:
    st = QuadState(q, tol)
    shape, triads = st.shape, st.triads
    try:
        r = st.r
    except IllConditionedAngles:
        r = math.nan
    w, s = st.w, st.s
    residuals: dict[str, float] = {}
    for name, fn in _RESIDUALS.items():
        try:
            res = fn(st)
        except (CyclicDegeneration, IllConditionedAngles):
            continue  # the area ratio needs r and Q2
        if res is not None:
            residuals[name] = res
    quantity = sum(isoptic_quantity(st, w)) / 4.0 if is_finite(w) else None
    return AnalysisReport(quad=q, triads=triads, r=r, w=w, s=s, shape=shape,
                          pedal_w=st.pedal_w, pedal_s=st.pedal_s, varignon=varignon(q),
                          isoptic_quantity=quantity, residuals=residuals)
