"""Quadrilateral constructions: triad circles, the generation maps, the
similarity ratio, the isoptic point W by several routes, the Simson point,
pedal and Varignon parallelograms, isogonal conjugation with respect to a
quadrilateral, and the reconstruction procedures.

Vertex conventions: a quadrilateral is the ordered tuple (A, B, C, D).  The
triad circles are o1 = (D A B), o2 = (A B C), o3 = (B C D), o4 = (C D A); the
center of o_i is the i-th vertex of the next generation, so A2 = center(o1)
and so on cyclically.

A Quadrilateral keeps its complex vertices and its side table in a frame
scaled by a power of two near 1 / diameter, where crosses and cotangents
neither overflow nor underflow.  The triad circles and Q2 come from the
perpendicular-bisector construction in closed form (``triad_circles``), and
Q2 keeps that closed-form side table, so its shape never sees the rounding
of its absolute vertices.
"""

from __future__ import annotations

import cmath
import math
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
    Line,
    MaybePoint,
    Point,
    Record,
    Report,
    circumcenter,
    circumcircle,
    cs_distance,
    diameter,
    invert_point,
    is_finite,
    isogonal_conjugate,
    norm2,
    unit_near,
)


class Quadrilateral(Record):
    """Four ordered, distinct vertices with no triple collinear within tol (not a field)."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a: Point, b: Point, c: Point, d: Point, tol: float = DEFAULT_TOL):
        object.__setattr__(self, "a", a)  # inline: _frame's update then keeps shared keys
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        z = a, b, c, d = (complex(a.x, a.y), complex(b.x, b.y), complex(c.x, c.y),
                          complex(d.x, d.y))
        self._frame(z, (b - a, c - a, d - a, c - b, d - b, d - c), tol)

    @classmethod
    def _from_table(cls, z: tuple[complex, ...], diffs: tuple[complex, ...],
                    tol: float) -> Quadrilateral:
        """The quadrilateral of four complex vertices whose side table is
        diffs, in the vertices' units, rather than the differences of the
        rounded vertices: for a construction that knows its sides better than
        its vertices."""
        q = object.__new__(cls)
        vars(q).update(zip("abcd", (Point(v.real, v.imag) for v in z)))
        q._frame(z, diffs, tol)
        return q

    def _frame(self, z: tuple[complex, ...], diffs: tuple[complex, ...], tol: float):
        # the side table _diffs = (B - A, C - A, D - A, C - B, D - B, D - C)
        # times _unit, an exact power of two near 1 / diameter, so that its
        # crosses and dot products neither overflow nor underflow; every side,
        # angle and triad construction reads it.  One pass gives the diameter
        # and the least triad height in the frame, |cross| / longest side (0
        # if the triad is one point)
        norms = nab, nac, nad, nbc, nbd, ncd = [math.hypot(v.real, v.imag) for v in diffs]
        scale = max(norms) or 1.0
        unit = unit_near(scale)
        ab, ac, ad, bc, bd, cd = diffs
        frame = ab, ac, ad, bc, bd, cd = (ab * unit, ac * unit, ad * unit, bc * unit, bd * unit,
                                          cd * unit)
        height = min(abs(_cross(bc, bd)) / (max(nbc, ncd, nbd) * unit or math.inf),
                     abs(_cross(ac, ad)) / (max(nac, ncd, nad) * unit or math.inf),
                     abs(_cross(ab, ad)) / (max(nab, nbd, nad) * unit or math.inf),
                     abs(_cross(ab, ac)) / (max(nab, nbc, nac) * unit or math.inf))
        vars(self).update(_z=z, _diffs=frame, _unit=unit, _scale=scale, _height=height / unit)
        # a triad holding two vertices delta apart is at most delta high, so
        # this also rejects coincident vertices
        if height < tol * (scale * unit):
            raise CollinearInput("three vertices are collinear within tolerance")

    def vertices(self) -> tuple[Point, Point, Point, Point]:
        return (self.a, self.b, self.c, self.d)

    def sides(self) -> tuple[complex, complex, complex, complex]:
        """The side vectors B - A, C - B, D - C and A - D."""
        return tuple(s / self._unit for s in self._sides())

    def _sides(self) -> tuple[complex, complex, complex, complex]:
        """The sides in the frame of the side table, for scale-free uses."""
        ab, _, ad, bc, _, cd = self._diffs
        return (ab, bc, cd, -ad)

    def scale(self) -> float:
        return self._scale

    def centroid(self) -> Point:
        return Point.from_complex(sum(self._z) / 4.0)

    def min_triad_height(self) -> float:
        """Least height of the four triangles of three vertices."""
        return self._height

    def is_convex(self) -> bool:
        s = self._sides()
        crosses = [_cross(s[i - 1], s[i]) for i in range(4)]
        return all(c > 0 for c in crosses) or all(c < 0 for c in crosses)

    def signed_area(self) -> float:
        """Positive for counterclockwise vertex order."""
        return self._area2() / 2.0 / self._unit / self._unit

    def _area2(self) -> float:
        # twice the signed area in the frame, from the edge vectors at A: the
        # absolute-coordinate shoelace cancels to 0 on a quadrilateral far
        # smaller than its distance from the origin
        ab, ac, ad = self._diffs[:3]
        return _cross(ab, ac) + _cross(ac, ad)

    def area(self) -> float:
        return abs(self.signed_area())

    def reordered(self, order: str) -> "Quadrilateral":
        """Same vertex set in a different cyclic order, e.g. 'acbd'."""
        m = {"a": self.a, "b": self.b, "c": self.c, "d": self.d}
        return Quadrilateral(*(m[ch] for ch in order))


class TriadSystem(Record):
    """The triad circles o1 = (D A B), o2 = (A B C), o3 = (B C D) and o4 = (C D A), each a
    center and a radius, and Q2's side table diffs, O2 - O1, ..., O4 - O3 (not a field)."""

    _fields = ("o1", "o2", "o3", "o4")

    def __init__(self, o1: Circle, o2: Circle, o3: Circle, o4: Circle,
                 diffs: tuple[complex, ...]):
        vars(self).update(o1=o1, o2=o2, o3=o3, o4=o4, diffs=diffs)

    @property
    def circles(self) -> tuple[Circle, ...]:
        return (self.o1, self.o2, self.o3, self.o4)


class ShapeClass(Record):
    _fields = ("convex", "cyclic", "orthocentric", "trapezoid", "parallelogram")

    def __init__(self, convex: bool, cyclic: bool, orthocentric: bool, trapezoid: bool,
                 parallelogram: bool):
        vars(self).update(convex=convex, cyclic=cyclic, orthocentric=orthocentric,
                          trapezoid=trapezoid, parallelogram=parallelogram)

    @property
    def concave(self) -> bool:
        return not self.convex


class AnalysisReport(Report):
    """Everything derived from one quadrilateral, with invariant residuals."""

    _fields = ("quad", "triads", "r", "w", "s", "shape", "pedal_w", "pedal_s", "varignon",
               "isoptic_quantity", "residuals")

    def __init__(self, quad: Quadrilateral, triads: TriadSystem, r: float, w: MaybePoint,
                 s: MaybePoint, shape: ShapeClass, pedal_w: list[Point] | None,
                 pedal_s: list[Point] | None, varignon: list[Point],
                 isoptic_quantity: float | None, residuals: dict[str, float] | None = None):
        vars(self).update(quad=quad, triads=triads, r=r, w=w, s=s, shape=shape,
                          pedal_w=pedal_w, pedal_s=pedal_s, varignon=varignon,
                          isoptic_quantity=isoptic_quantity,
                          residuals={} if residuals is None else residuals)


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
        if not 0.0 < tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {tol!r}")
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
    s = q._sides()
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
    scale = st.scale
    convex = st.q.is_convex()
    cyclic = st.cyclic

    # each vertex v is the orthocenter of the other three, their sum minus
    # twice the center o of their triad circle: 2 (v + o) = sum of all four
    t, z = st.triads, st.q._z
    total = sum(z)
    ortho = all(abs(2.0 * (v + circ.o) - total) <= tol * scale
                for v, circ in zip(z, (t.o3, t.o4, t.o1, t.o2)))

    def parallel(u: complex, v: complex) -> bool:
        return (abs(_cross(u, v)) / (math.hypot(u.real, u.imag) * math.hypot(v.real, v.imag))
                < 1e3 * tol)

    ab, bc, cd, da = st.q._sides()
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
    s = q._sides()
    cots = [_cot(s[i], -s[i - 1]) for i in range(4)]
    max_cot = 1.0 / math.tan(math.sqrt(tol)) if tol else math.inf
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
# the pairs of vertices in side-table order: AB, AC, AD, BC, BD, CD
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# triads p < q share the Q1 pair at index k of the side table, and O_q - O_p
# is sign (i/2) (that pair's vector) Delta / (t_p t_q); in side-table order
_Q2_SIDES = ((0, 0, 1, -1.0), (4, 0, 2, 1.0), (2, 0, 3, 1.0),
             (3, 1, 2, 1.0), (1, 1, 3, 1.0), (5, 2, 3, -1.0))
# the center O_s of each triad, from the side table relative to its first
# vertex in table order (A, except B for BCD)
_CENTER_SIDES = ((0, 2), (0, 1), (3, 4), (1, 2))
# _STEPS[s][j] = (k, sign): O_j - O_s = sign * (entry k of Q2's side table)
_STEPS = tuple(tuple((0, 0.0) if j == s else
                     (_PAIRS.index((min(s, j), max(s, j))), 1.0 if s < j else -1.0)
                     for j in range(4)) for s in range(4))


def triad_circles(q: Quadrilateral, tol: float = DEFAULT_TOL) -> TriadSystem:
    """The four triad circles, from the perpendicular-bisector construction
    in closed form, on the side table of q (in its power-of-two frame).

    Triads p and q share two vertices U and V, so their centers lie on the
    perpendicular bisector of UV, and O_q - O_p = +-(i/2) (V - U) Delta /
    (t_p t_q): t_p and t_q are the crosses of the two triads and Delta the
    incircle determinant of A, B, C, D, one for all six pairs.  So one
    circumcenter is solved, for the triad of largest |cross| / longest
    side^2, and the other three centers are that one plus their entry of
    the closed-form table, which the system keeps as Q2's side table: a
    nearly flat triad's far-off center moves no other, and a nearly cyclic
    input's Q2 is Delta times a well-conditioned quadrilateral.  The radii
    are the mean distance from each center to its three vertices.
    """
    ab, ac, ad, bc, bd, cd = f = q._diffs
    n = [norm2(v) for v in f]
    t = (_cross(ab, ad), _cross(ab, ac), _cross(bc, bd), _cross(ac, ad))  # DAB, ABC, BCD, CDA
    delta = n[0] * t[3] - n[1] * t[0] + n[2] * t[1]
    table = []
    for k, i, j, sign in _Q2_SIDES:
        w = sign * 0.5 * delta / (t[i] * t[j])
        table.append(complex(-f[k].imag * w, f[k].real * w))
    cond = (abs(t[0]) / max(n[0], n[2], n[4]), abs(t[1]) / max(n[0], n[1], n[3]),
            abs(t[2]) / max(n[3], n[4], n[5]), abs(t[3]) / max(n[1], n[2], n[5]))
    s = cond.index(max(cond))
    i, j = _CENTER_SIDES[s]
    start = circumcenter(f[i], f[j], 0.5 * n[i], 0.5 * n[j], tol) + (ab if s == 2 else 0.0)
    # the centers and the vertices relative to A
    centers = [start + sign * table[k] for k, sign in _STEPS[s]]
    rel = (0j, ab, ac, ad)
    za, unit = q._z[0], q._unit
    return TriadSystem(*(
        Circle(za + o / unit,
               (abs(o - rel[i]) + abs(o - rel[j]) + abs(o - rel[k])) / 3 / unit)
        for (i, j, k), o in zip(_TRIADS, centers)), diffs=tuple([v / unit for v in table]))


def next_generation(q: QuadOrState, tol: float = DEFAULT_TOL) -> Quadrilateral:
    """Quadrilateral of the triad-circle centers, with the closed-form side
    table of the triad system, so that its angles and area see no rounding
    of the absolute centers.

    Raises CyclicDegeneration (carrying the circumcenter) when the input is
    cyclic, since all four centers then coincide.
    """
    st = _state(q, tol)
    if st.cyclic:
        raise CyclicDegeneration("cyclic quadrilateral degenerates to a point",
                                 point=st.triads.o2.center())
    triads = st.triads
    return Quadrilateral._from_table(tuple(o.o for o in triads.circles), triads.diffs, st.tol)


def prev_generation(q: Quadrilateral, tol: float = DEFAULT_TOL) -> Quadrilateral:
    """Reverse of the perpendicular-bisector step, as the fixed point of four
    reflections.

    Treating q as a second generation (A2, B2, C2, D2), each side of q is the
    perpendicular bisector of the same side of the first generation, so the
    reflections in q's sides AB, BC, CD and DA take A to B, B to C, C to D
    and D back to A.  Each reflection is x -> p + u^2 conj(x - p), u^2 =
    e / conj(e) for the side e from p, and the four compose to a rotation
    x -> m x + b, taken on the side table relative to q's centroid: A is its
    fixed point b / (1 - m).  m = 1 exactly when q is cyclic (its opposite
    angles sum to pi), which raises OrthocentricDegeneration.
    """
    ab, ac, ad, bc, _, cd = q._diffs
    g = (ab + ac + ad) / 4.0
    mirrors = [(p - g, e / e.conjugate()) for p, e in ((0j, ab), (ab, bc), (ac, cd), (ad, -ad))]
    m, b = 1.0 + 0j, 0j
    for p, u2 in mirrors:
        m, b = u2 * m.conjugate(), p + u2 * (b - p).conjugate()
    if abs(1.0 - m) < tol:
        raise OrthocentricDegeneration("the input is cyclic, so no quadrilateral precedes it")
    out = [b / (1.0 - m)]
    for p, u2 in mirrors[:3]:
        out.append(p + u2 * (out[-1] - p).conjugate())
    za, unit = q._z[0], q._unit
    return Quadrilateral(*(Point.from_complex(za + (v + g) / unit) for v in out), tol=tol)


def _conjugates_in_triads(q: Quadrilateral, tol: float) -> list[MaybePoint]:
    """The isogonal conjugate of the vertex left out of each triad DAB, ABC,
    BCD and CDA (C, D, A and B) in the triangle of that triad, taken on the
    side table relative to A, which is added back once."""
    za, unit = q._z[0], q._unit
    z = (0j,) + q._diffs[:3]
    out = [isogonal_conjugate(z[i], z[j], z[k], z[(k + 1) % 4], tol) for i, j, k in _TRIADS]
    return [Point(za.real + p.x / unit, za.imag + p.y / unit) if is_finite(p) else p
            for p in out]


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
    g = sum(q._z) / 4.0
    z = [v - g for v in q._z]
    num = den = 0j
    for k, sign in enumerate((1.0, -1.0, 1.0, -1.0)):
        e = z[(k + 1) % 4] - z[k]
        u2 = e / e.conjugate()
        den += sign * u2
        num += sign * (u2 * z[k].conjugate() - z[k])
    # both sides in the frame of the side table, where they cannot underflow
    scale, unit = q.scale(), q._unit
    if abs(den) * (scale * unit) < _AT_INFINITY * ((scale + abs(g)) * unit):
        ab = q._diffs[0]
        return AtInfinity.along(ab.real, ab.imag)
    return Point.from_complex(g + (num / den).conjugate())


def isoptic_point_via_limit(q: QuadOrState, tol: float = DEFAULT_TOL) -> MaybePoint:
    """The limit of the perpendicular-bisector iteration, as the center of
    the similarity that takes Q1 to Q3.

    Q^(k+2) = W + r (Q^(k) - W), so with g1 and g3 the centroids, u and v
    the vertices of Q1 and Q3 about them and k = sum conj(u_i) v_i /
    sum |u_i|^2 (r up to rounding), W = g1 + (g3 - g1) / (1 - k).  u, v and
    g3 - g1 are read in Q1's power-of-two frame, so no square overflows or
    underflows.  A cyclic input gives the center its Q2 collapses to.
    """
    st = _state(q, tol)
    r = st.r
    if abs(abs(r) - 1.0) < 1e-6:
        raise NonConvergent(f"|r| = {abs(r)} is on the periodic locus")
    try:
        z3 = st.next.next.q._z
    except CyclicDegeneration as exc:
        return exc.point
    z1, unit = st.q._z, st.q._unit
    g1, g3 = sum(z1) / 4.0, sum(z3) / 4.0
    u = [(z - g1) * unit for z in z1]
    v = [(z - g3) * unit for z in z3]
    k = sum(x.conjugate() * y for x, y in zip(u, v)) / sum(map(norm2, u))
    return Point.from_complex(g1 + (g3 - g1) * unit / (1.0 - k) / unit)


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
    z = w.to_complex()
    return [abs(z - o.o) / o.r for o in _state(q, tol).triads.circles]


def isodynamic_ratios(q: QuadOrState, w: Point, tol: float = DEFAULT_TOL) -> float:
    """Relative spread of |w - vertex_k| * R_sigma(k); ~0 exactly at W.

    sigma pairs each vertex with the radius of the triad circle through the
    other three: (A, R3), (B, R4), (C, R1), (D, R2).  The radii are taken in
    an exact power of two near the largest, so no product overflows.
    """
    st = _state(q, tol)
    radii = [o.r for o in st.triads.circles]
    unit, p = unit_near(max(radii)), w.to_complex()
    prods = [abs(p - v) * (radii[k - 2] * unit) for k, v in enumerate(st.q._z)]
    mean = sum(prods) / 4.0
    if mean == 0.0:
        return 0.0
    return max(abs(p - mean) for p in prods) / mean


def angle_sums_at_point(q: Quadrilateral, w: Point) -> float:
    """Max residual of angle(X w Y) = angle(X u Y) + angle(X v Y) over the
    four sides XY, in directed angles mod pi; ~0 exactly at W.  The sides differ
    by the phase of t = (Y - w) / (X - w) (X - u) / (Y - u) (X - v) / (Y - v),
    atan2(|Im t|, |Re t|) from a multiple of pi.  w at a vertex raises DegenerateRay."""
    a, b, c, d = q._z
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
    for v, e in zip(q._z, q._sides()):
        d = z - v
        feet.append(Point.from_complex(v + 0.5 * (d + e / e.conjugate() * d.conjugate())))
    return feet


def varignon(q: Quadrilateral) -> list[Point]:
    z = q._z
    return [Point.from_complex(0.5 * (z[i] + z[(i + 1) % 4])) for i in range(4)]


def simson_point(q: Quadrilateral) -> MaybePoint:
    """The unique point whose four pedal feet are collinear.

    S is the Miquel point of the complete quadrilateral, the center of the
    spiral similarity taking A to D and B to C: with a, b, c, d the vertices
    relative to the centroid G, S = G + (ac - bd) / (a + c - b - d), taken in
    the frame of the side table so that the products cannot underflow.  The
    denominator vanishes on parallelograms: below _AT_INFINITY
    (diameter + |G|) S is at infinity along AD.
    """
    g, unit = sum(q._z) / 4.0, q._unit
    a, b, c, d = ((v - g) * unit for v in q._z)
    den = a + c - b - d
    if abs(den) < _AT_INFINITY * ((q.scale() + abs(g)) * unit):
        ad = q._diffs[2]
        return AtInfinity.along(ad.real, ad.imag)
    return Point.from_complex(g + (a * c - b * d) / den / unit)


def _tls_axis(points: list[Point]) -> tuple[complex, complex, list[complex]]:
    """The centroid g of the points, the unit direction of their
    total-least-squares line through g, and the points relative to g."""
    z = [p.to_complex() for p in points]
    g = sum(z) / len(z)
    rel = [v - g for v in z]
    # sum (z - g)^2 = sxx - syy + 2i sxy: half its phase is the principal
    # direction of the scatter matrix; the offsets are squared in a power of
    # two near the largest, so that the squares neither overflow nor underflow
    unit = unit_near(max(map(abs, rel)))
    scatter = sum((v * unit) * (v * unit) for v in rel)
    return g, cmath.rect(1.0, 0.5 * cmath.phase(scatter)), rel


def collinearity_residual(points: list[Point]) -> float:
    """Largest distance of the points from their total-least-squares line."""
    _, u, rel = _tls_axis(points)
    return max(abs(_cross(u, v)) for v in rel)


def simson_line(q: QuadOrState, tol: float = DEFAULT_TOL) -> Line:
    """The total-least-squares line of the pedal feet of S."""
    feet = _state(q, tol).pedal_s
    if feet is None:
        raise PointAtInfinity("the Simson point is not finite")
    g, u, _ = _tls_axis(feet)
    return Line(g, u)


def parallelogram_residual(pts: list[Point], scale: float) -> float:
    """Scale-free deviation of the opposite-side vector sums from zero."""
    z = [complex(p.x, p.y) for p in pts]
    e1 = (z[1] - z[0]) + (z[3] - z[2])
    e2 = (z[2] - z[1]) + (z[0] - z[3])
    return max(abs(e1), abs(e2)) / scale


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
    return Quadrilateral(*corners, tol=tol)


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
    z1, z2 = q1._z, q2._z
    best = min(max(abs(z1[i] - z2[(i + shift) % 4]) for i in range(4)) for shift in range(4))
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
    tol, scale, z = st.tol, st.scale, w.to_complex()
    circles = [c for g in (st, st.next, st.next.next) for c in g.triads.circles]
    # a pair of centers within noise is one circle twice: no CS
    return max((cs_distance(z, c1, c2, tol) for c1, c2 in combinations(circles, 2)
                if abs(c1.o - c2.o) >= 1e3 * tol * scale), default=0.0) / scale


def quadrangle_duality_residual(q: Quadrilateral, w: Point, mirror_radius: float,
                                tol: float = DEFAULT_TOL) -> float:
    """Inversion centered at W takes the six vertex-pair lines onto the six
    circles of similitude of the image quadrilateral's triad circles.

    The image of line AB passes through W, A' and B'.  A' and B' lie on o1'
    and o2', so the image is in their pencil; so is CS(o1', o2'), and only
    one member of the pencil passes through W.  So the image is the CS if and
    only if W lies on it: the residual is W's largest distance from the six
    (cs_distance, the Apollonius defect) over the image's diameter."""
    z = w.to_complex()
    mirror = Circle(z, mirror_radius)
    images = [invert_point(mirror, v, tol) for v in q.vertices()]
    if not all(is_finite(p) for p in images):
        raise DegenerateConjugate("a vertex maps to infinity under the duality mirror")
    q_img = Quadrilateral(*images)
    pairs = combinations(triad_circles(q_img, tol).circles, 2)
    return max(cs_distance(z, c1, c2, tol) for c1, c2 in pairs) / q_img.scale()


def feet_circles_residual(st: QuadState) -> float | None:
    """Max scale-free distance of W from the eight vertex/foot/center circles.

    F_x is the meet of the perpendicular bisector of side x (AB, BC, CD,
    DA) with the opposite side line.
    """
    q, w, tol = st.q, st.w, st.tol
    if not is_finite(w):
        return None
    vs = q.vertices()
    z, s = q._z, q.sides()
    feet = []
    for k in range(4):
        f = _meet(z[k] + 0.5 * s[k], 1j * s[k], z[k - 2], s[k - 2], tol)
        if f is None:
            return None  # trapezoid: a foot escapes to infinity
        feet.append(Point.from_complex(f))
    A, B, C, D = vs
    fa, fb, fc, fd = feet
    a2, b2, c2, d2 = (o.center() for o in st.triads.circles)
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
        k = (dst.o - w) * (src.o - w).conjugate()
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
    z, pairs = w.to_complex(), combinations(st.triads.circles, 2)
    return max(cs_distance(z, c1, c2, st.tol) for c1, c2 in pairs) / st.scale


def area_ratio_residual(st: QuadState) -> float | None:
    """| |r| - area(Q2) / area(Q1) |, the areas read in their frames; None
    where Q1's two lobes cancel to area 0, and raises where r or Q2 is
    undefined."""
    q1, q2 = st.q, st.q2
    a1, a2 = q1._area2(), q2._area2()
    return None if a1 == 0.0 else abs(abs(st.r) - abs(a2 / a1) * (q1._unit / q2._unit) ** 2)


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
