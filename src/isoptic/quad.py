"""Quadrilateral constructions: triad circles, the generation maps, the
similarity ratio, the isoptic point W by several routes, the Simson point,
pedal and Varignon parallelograms, isogonal conjugation with respect to a
quadrilateral, and the reconstruction procedures.

Vertex conventions: a quadrilateral is the ordered tuple (A, B, C, D).  The
triad circles are o1 = (D A B), o2 = (A B C), o3 = (B C D), o4 = (C D A); the
center of o_i is the i-th vertex of the next generation, so A2 = center(o1)
and so on cyclically.

A Quadrilateral keeps its vertices, Points and so complex numbers, and its
side table in a frame scaled by a power of two near 1 / diameter, where
crosses and cotangents neither overflow nor underflow.  The triad circles
and Q2 come from the perpendicular-bisector construction in closed form
(``triad_circles``), and Q2 keeps that closed-form side table, so its shape
never sees the rounding of its absolute vertices.
"""

from __future__ import annotations

import cmath
import math

from .errors import (
    CollinearInput,
    ConcentricCircles,
    CyclicDegeneration,
    DegenerateConjugate,
    DegenerateRay,
    IllConditionedAngles,
    NoIntersection,
    NonCollinearFeet,
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
    check_tol,
    circumcenter,
    circumcircle,
    finite_point,
    invert_point,
    is_finite,
    line_meet,
    max_or_nan,
    meet_of_cevians,
    mirrored_cevian,
    require_finite,
    unit_near,
)


_set = object.__setattr__  # one call per field: vars(self).update would give a dict of its own


class Quadrilateral(Record):
    """Four ordered, distinct vertices with no triple collinear within tol (not a field)."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a: Point, b: Point, c: Point, d: Point, tol: float = DEFAULT_TOL):
        self._frame(a, b, c, d, (b - a, c - a, d - a, c - b, d - b, d - c), tol)

    @classmethod
    def _from_table(cls, a: complex, b: complex, c: complex, d: complex,
                    diffs: tuple[complex, ...], tol: float) -> Quadrilateral:
        """The quadrilateral of four complex vertices whose side table is
        diffs, in the vertices' units, rather than the differences of the
        rounded vertices: for a construction that knows its sides better than
        its vertices."""
        q = object.__new__(cls)
        q._frame(Point(a), Point(b), Point(c), Point(d), diffs, tol)
        return q

    def _frame(self, a: Point, b: Point, c: Point, d: Point, diffs: tuple[complex, ...],
               tol: float):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)
        _set(self, "tol", check_tol(tol))
        # the side table _diffs = (B - A, C - A, D - A, C - B, D - B, D - C)
        # times _unit, an exact power of two near 1 / diameter, so that its
        # crosses and dot products neither overflow nor underflow; every side,
        # angle and triad construction reads it.  One pass gives the diameter
        # and the least triad height in the frame, |cross| / longest side (0
        # if the triad is one point)
        ab, ac, ad, bc, bd, cd = diffs
        hypot = math.hypot
        nab, nac, nad = hypot(ab.real, ab.imag), hypot(ac.real, ac.imag), hypot(ad.real, ad.imag)
        nbc, nbd, ncd = hypot(bc.real, bc.imag), hypot(bd.real, bd.imag), hypot(cd.real, cd.imag)
        scale = max(nab, nac, nad, nbc, nbd, ncd) or 1.0
        unit = unit_near(scale)
        frame = ab, ac, ad, bc, bd, cd = (ab * unit, ac * unit, ad * unit, bc * unit, bd * unit,
                                          cd * unit)
        inf = math.inf
        xb, yb, xc, yc, xd, yd = ab.real, ab.imag, ac.real, ac.imag, ad.real, ad.imag
        height = min(
            abs(bc.real * bd.imag - bc.imag * bd.real) / (max(nbc, ncd, nbd) * unit or inf),
            abs(xc * yd - yc * xd) / (max(nac, ncd, nad) * unit or inf),
            abs(xb * yd - yb * xd) / (max(nab, nbd, nad) * unit or inf),
            abs(xb * yc - yb * xc) / (max(nab, nbc, nac) * unit or inf))
        # max and min pass over a nan unless it comes first, but a nan vertex
        # makes the first side or the first height nan
        if not scale + height < inf:
            raise PointAtInfinity("the diameter is not a finite float")
        _set(self, "_z", (a, b, c, d))
        _set(self, "_diffs", frame)
        _set(self, "_unit", unit)
        # the frame of offsets from far points (W, S): _unit, but never above 1,
        # since one that scaled up would round a subnormal offset otherwise
        _set(self, "_unit_down", min(unit, 1.0))
        _set(self, "_scale", scale)
        _set(self, "_height", height / unit)
        # a triad holding two vertices delta apart is at most delta high, so
        # this rejects coincident vertices, save in a side table whose entries
        # round apart from each other: there a zero side is tested on its own
        if height < tol * (scale * unit) or not (nab and nac and nad and nbc and nbd and ncd):
            raise CollinearInput("three vertices are collinear within tolerance")

    def _offset_unit(self, p: complex) -> float:
        """The frame of offsets from p: _unit_down, or where a part of p there passes
        1e300, unit_near of p's largest part, which is less and where none overflows."""
        u = self._unit_down
        if -1e300 < p.real * u < 1e300 and -1e300 < p.imag * u < 1e300:
            return u
        return unit_near(max(abs(p.real), abs(p.imag)))

    def vertices(self) -> tuple[Point, Point, Point, Point]:
        return self._z

    def _sides(self) -> tuple[complex, complex, complex, complex]:
        """The sides in the frame of the side table, for scale-free uses."""
        ab, _, ad, bc, _, cd = self._diffs
        return (ab, bc, cd, -ad)

    def scale(self) -> float:
        return self._scale

    def centroid(self) -> Point:
        return Point(_centroid(self._z))

    def min_triad_height(self) -> float:
        """Least height of the four triangles of three vertices."""
        return self._height

    def _area2(self) -> float:
        # twice the signed area in the frame, from the edge vectors at A: the
        # absolute-coordinate shoelace cancels to 0 on a quadrilateral far
        # smaller than its distance from the origin
        ab, ac, ad = self._diffs[:3]
        return (ab.real * ac.imag - ab.imag * ac.real) + (ac.real * ad.imag - ac.imag * ad.real)

    def area(self) -> float:
        return abs(self._area2()) / 2.0 / self._unit / self._unit

    def area_ratio(self, other: Quadrilateral) -> float | None:
        """other.area() / self.area() at any size, from the frames' doubled areas and
        the exact ratio of their units; None when self's frame area is 0."""
        a1 = self._area2()
        return abs(other._area2() / a1) * (self._unit / other._unit) ** 2 if a1 else None


class TriadSystem(Record):
    """The triad circles o1 = (D A B), o2 = (A B C), o3 = (B C D) and o4 = (C D A), each a
    center and a radius, and Q2's side table diffs, O2 - O1, ..., O4 - O3 (not a field)."""

    _fields = ("o1", "o2", "o3", "o4")

    def __init__(self, o1: Circle, o2: Circle, o3: Circle, o4: Circle,
                 diffs: tuple[complex, ...]):
        _set(self, "o1", o1)
        _set(self, "o2", o2)
        _set(self, "o3", o3)
        _set(self, "o4", o4)
        _set(self, "diffs", diffs)

    @property
    def circles(self) -> tuple[Circle, ...]:
        return (self.o1, self.o2, self.o3, self.o4)


# the classes verify draws from; here so that the CLI reads --class without loading verify
SHAPE_CLASSES = (
    "convex-noncyclic",
    "concave",
    "cyclic",
    "trapezoid",
    "parallelogram",
    "parallelogram-pi4",
    "orthocentric",
    "near-cyclic",
)


class ShapeClass(Record):
    _fields = ("convex", "cyclic", "orthocentric", "trapezoid", "parallelogram")

    def __init__(self, convex: bool, cyclic: bool, orthocentric: bool, trapezoid: bool,
                 parallelogram: bool):
        _set(self, "convex", convex)
        _set(self, "cyclic", cyclic)
        _set(self, "orthocentric", orthocentric)
        _set(self, "trapezoid", trapezoid)
        _set(self, "parallelogram", parallelogram)

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
        self.quad = quad
        self.triads = triads
        self.r = r
        self.w = w
        self.s = s
        self.shape = shape
        self.pedal_w = pedal_w
        self.pedal_s = pedal_s
        self.varignon = varignon
        self.isoptic_quantity = isoptic_quantity
        self.residuals = {} if residuals is None else residuals


class _part:
    """A QuadState part: fn's value, computed on the first read and then
    stored in the instance dict, which shadows this non-data descriptor, so
    that later reads are plain attribute lookups.  functools.cached_property
    does the same under a lock (before Python 3.12)."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, st, owner=None):
        if st is None:
            return self
        value = self.fn(st)
        setattr(st, self.name, value)
        return value


class QuadState:
    """One quadrilateral and what is derived from it, each part computed
    once, on first use.

    Its tol is q's own: each construction on a quadrilateral takes a
    QuadState or a Quadrilateral (_state), and reuses the state's parts; the
    parts call them through this module's globals.  ``next`` (the state of
    Q2) and ``prev`` (that of prev_generation(q)) chain the generations, so
    that each one and its triad circles are built once.
    """

    def __init__(self, q: Quadrilateral):
        self.q = q
        self.tol = q.tol
        self.scale = q._scale

    @_part
    def triads(self) -> TriadSystem:
        return triad_circles(self)

    @_part
    def cyclic(self) -> bool:
        """D lies within tol * scale of the circle o2 through A, B, C."""
        return self.triads.o2.distance_to(self.q.d) / self.scale < self.tol

    @_part
    def side_shape(self) -> tuple[bool, float, tuple[complex, ...]]:
        """(convex, r, turns) of q's sides (shape_of_sides), read by classify and r."""
        return shape_of_sides(self.q._sides())

    @_part
    def shape(self) -> ShapeClass:
        return classify(self)

    @_part
    def r(self) -> float:
        return similarity_ratio(self)

    @_part
    def next(self) -> QuadState:
        return QuadState(next_generation(self))

    @_part
    def prev(self) -> QuadState:
        return QuadState(prev_generation(self))

    @_part
    def w(self) -> MaybePoint:
        return isoptic_point(self.q)

    @_part
    def s(self) -> MaybePoint:
        return simson_point(self.q)

    @_part
    def w_frame(self) -> tuple | None:
        """W's offsets (_offsets), which every quantity at W reads; None when W is at infinity."""
        return _offsets(self.q, self.w) if is_finite(self.w) else None

    @_part
    def w_centers(self) -> tuple | None:
        """W's offsets from the triad centers (_center_offsets); None when W is at infinity."""
        return None if self.w_frame is None else _center_offsets(self, self.w_frame)

    def frame(self, p: Point) -> tuple:
        """p's offsets (_offsets): w_frame where p is the finite W read here, else new ones."""
        if p is self.__dict__.get("w") and p.__class__ is Point:
            return self.w_frame
        require_finite(p)
        return _offsets(self.q, p)

    @_part
    def quantities(self) -> tuple[list[float] | None, float | None]:
        """The four d_i / R_i at W (isoptic_quantity) and their mean; None, None at infinity."""
        qty = None if self.w_frame is None else isoptic_quantity(self, self.w)
        return (None, None) if qty is None else (qty, sum(qty) / 4.0)

    @_part
    def pedal_w(self) -> list[Point] | None:
        return None if self.w_frame is None else pedal_quadrilateral(self, self.w)

    @_part
    def pedal_s(self) -> list[Point] | None:
        return pedal_quadrilateral(self, self.s) if is_finite(self.s) else None


QuadOrState = Quadrilateral | QuadState


def _offsets(q: Quadrilateral, p: complex) -> tuple[float, complex, tuple[complex, ...]]:
    """(unit, p unit, (p - A, ..., p - D) unit) in q's _offset_unit(p) frame, where
    none overflows: a tuple, which a state keeps with no reference cycle."""
    unit, (a, b, c, d) = q._offset_unit(p), q._z
    pu = p * unit
    return unit, pu, (pu - a * unit, pu - b * unit, pu - c * unit, pu - d * unit)


def _center_offsets(st: QuadState, f: tuple) -> tuple[tuple, tuple, tuple, tuple]:
    """The triad centers O_i, p - O_i, |p - O_i| and the radii, in p's frame f."""
    (unit, pu, _), t = f, st.triads
    o1, o2, o3, o4 = t.o1.o * unit, t.o2.o * unit, t.o3.o * unit, t.o4.o * unit
    u1, u2, u3, u4 = pu - o1, pu - o2, pu - o3, pu - o4
    return ((o1, o2, o3, o4), (u1, u2, u3, u4), (abs(u1), abs(u2), abs(u3), abs(u4)),
            (t.o1.r * unit, t.o2.r * unit, t.o3.r * unit, t.o4.r * unit))


def _state(q: QuadOrState) -> QuadState:
    return q if isinstance(q, QuadState) else QuadState(q)


def _centroid(z: tuple[complex, ...]) -> complex:
    """The mean of four points, summed in quarters so as not to overflow
    (0j first, as sum(z) / 4 starts, so that no -0.0 survives)."""
    a, b, c, d = z
    return 0j + a / 4.0 + b / 4.0 + c / 4.0 + d / 4.0


# ---------------------------------------------------------------------------
# angles and shape


def interior_angles(q: QuadOrState) -> tuple[float, float, float, float]:
    """Interior angles in (0, 2*pi), from the turns of the side shape; a
    reflex vertex of a concave quadrilateral gets its actual reflex angle."""
    st = _state(q)
    orient = 1.0 if st.q._area2() > 0.0 else -1.0
    ta, tb, tc, td = st.side_shape[2]
    atan2, turn = math.atan2, 2.0 * math.pi
    return (atan2(orient * ta.imag, ta.real) % turn, atan2(orient * tb.imag, tb.real) % turn,
            atan2(orient * tc.imag, tc.real) % turn, atan2(orient * td.imag, td.real) % turn)


def classify(q: QuadOrState) -> ShapeClass:
    """The shape flags.  Each degenerate locus is read from the one decision
    the constructions make there: cyclic is QuadState.cyclic, on which Q2 is
    one point; orthocentric is W at infinity (r = 1), and parallelogram S at
    infinity.  trapezoid is a pair of opposite sides parallel within 1e3 tol."""
    st = _state(q)
    ab, bc, cd, da = st.q._sides()
    hypot, most = math.hypot, 1e3 * st.tol
    # opposite sides u and v are parallel where |u x v| / (|u| |v|) < most
    return ShapeClass(convex=st.side_shape[0], cyclic=st.cyclic,
                      orthocentric=not is_finite(st.w),
                      trapezoid=(abs(ab.real * cd.imag - ab.imag * cd.real)
                                 / (hypot(ab.real, ab.imag) * hypot(cd.real, cd.imag)) < most
                                 or abs(bc.real * da.imag - bc.imag * da.real)
                                 / (hypot(bc.real, bc.imag) * hypot(da.real, da.imag)) < most),
                      parallelogram=not is_finite(st.s))


def similarity_ratio(q: QuadOrState) -> float:
    """r = (cot a + cot g)(cot b + cot d) / 4 over the interior angles.

    Each cot is that of the two edges at the vertex; reversing the
    orientation negates all four and leaves r as it is.  |cot| >
    cot(sqrt(tol)), an angle within sqrt(tol) of 0 or pi, raises
    IllConditionedAngles.  r < 0 convex noncyclic, 0 cyclic, >= 1 concave.
    """
    st = _state(q)
    max_cot = 1.0 / math.tan(math.sqrt(st.tol))
    _, r, turns = st.side_shape
    ta, tb, tc, td = turns
    if (abs(ta.real / ta.imag) > max_cot or abs(tb.real / tb.imag) > max_cot
            or abs(tc.real / tc.imag) > max_cot or abs(td.real / td.imag) > max_cot):
        vertex = "ABCD"[[abs(t.real / t.imag) > max_cot for t in turns].index(True)]
        raise IllConditionedAngles(f"interior angle at {vertex} too close to a multiple of pi")
    return r


def shape_of_sides(sides: tuple[complex, ...]) -> tuple[bool, float, tuple[complex, ...]]:
    """(convex, r, turns) of the quadrilateral with sides B - A, C - B, D - C
    and A - D in any frame, which changes no cot or sign.  The turn at a
    vertex, conj(u) v for the outgoing side u and the reversed incoming one
    v, holds u.v and u x v; r is read from their cots, unchecked but for a
    cross that is exactly 0, which raises IllConditionedAngles."""
    ab, bc, cd, da = sides
    turns = ta, tb, tc, td = (ab.conjugate() * -da, bc.conjugate() * -ab,
                              cd.conjugate() * -bc, da.conjugate() * -cd)
    convex = ((ta.imag > 0 and tb.imag > 0 and tc.imag > 0 and td.imag > 0)
              or (ta.imag < 0 and tb.imag < 0 and tc.imag < 0 and td.imag < 0))
    if not (convex or (ta.imag and tb.imag and tc.imag and td.imag)):
        raise IllConditionedAngles("two sides at a vertex are parallel or one of them is 0")
    return convex, 0.25 * (ta.real / ta.imag + tc.real / tc.imag) * (
        tb.real / tb.imag + td.real / td.imag), turns


# ---------------------------------------------------------------------------
# triad circles and the generation maps


def triad_circles(q: QuadOrState) -> TriadSystem:
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
    st = _state(q)
    ab, ac, ad, bc, bd, cd = st.q._diffs
    abx, aby, acx, acy, adx, ady = ab.real, ab.imag, ac.real, ac.imag, ad.real, ad.imag
    bcx, bcy, bdx, bdy, cdx, cdy = bc.real, bc.imag, bd.real, bd.imag, cd.real, cd.imag
    # |v|^2 as real^2 + imag^2, and the crosses of DAB, ABC, BCD and CDA
    nab, nac, nad = abx * abx + aby * aby, acx * acx + acy * acy, adx * adx + ady * ady
    nbc, nbd, ncd = bcx * bcx + bcy * bcy, bdx * bdx + bdy * bdy, cdx * cdx + cdy * cdy
    t1, t2 = abx * ady - aby * adx, abx * acy - aby * acx
    t3, t4 = bcx * bdy - bcy * bdx, acx * ady - acy * adx
    half = 0.5 * (nab * t4 - nac * t1 + nad * t2)  # Delta / 2
    # Q2's side table O2 - O1, O3 - O1, O4 - O1, O3 - O2, O4 - O2, O4 - O3: the
    # shared pair AB, BD, AD, BC, AC, CD turned a right angle and scaled
    w12, w13, w14 = -half / (t1 * t2), half / (t1 * t3), half / (t1 * t4)
    w23, w24, w34 = half / (t2 * t3), half / (t2 * t4), -half / (t3 * t4)
    o12, o13 = complex(-aby * w12, abx * w12), complex(-bdy * w13, bdx * w13)
    o14, o23 = complex(-ady * w14, adx * w14), complex(-bcy * w23, bcx * w23)
    o24, o34 = complex(-acy * w24, acx * w24), complex(-cdy * w34, cdx * w34)
    # the centers relative to A, from the best-conditioned triad's (the first on a tie)
    c1, c2 = abs(t1) / max(nab, nad, nbd), abs(t2) / max(nab, nac, nbc)
    c3, c4 = abs(t3) / max(nbc, nbd, ncd), abs(t4) / max(nac, nad, ncd)
    if c1 >= c2 and c1 >= c3 and c1 >= c4:
        o1 = circumcenter(ab, ad, st.tol)
        o2, o3, o4 = o1 + o12, o1 + o13, o1 + o14
    elif c2 >= c3 and c2 >= c4:
        o2 = circumcenter(ab, ac, st.tol)
        o1, o3, o4 = o2 - o12, o2 + o23, o2 + o24
    elif c3 >= c4:
        o3 = circumcenter(bc, bd, st.tol) + ab
        o1, o2, o4 = o3 - o13, o3 - o23, o3 + o34
    else:
        o4 = circumcenter(ac, ad, st.tol)
        o1, o2, o3 = o4 - o14, o4 - o24, o4 - o34
    # each radius: the mean distance to its triad's vertices, A (0), B (ab), C (ac), D (ad)
    za, unit = st.q._z[0], st.q._unit
    return TriadSystem(
        Circle(za + o1 / unit, (abs(o1 - ad) + abs(o1) + abs(o1 - ab)) / 3 / unit),
        Circle(za + o2 / unit, (abs(o2) + abs(o2 - ab) + abs(o2 - ac)) / 3 / unit),
        Circle(za + o3 / unit, (abs(o3 - ab) + abs(o3 - ac) + abs(o3 - ad)) / 3 / unit),
        Circle(za + o4 / unit, (abs(o4 - ac) + abs(o4 - ad) + abs(o4)) / 3 / unit),
        diffs=(o12 / unit, o13 / unit, o14 / unit, o23 / unit, o24 / unit, o34 / unit))


def next_generation(q: QuadOrState) -> Quadrilateral:
    """Quadrilateral of the triad-circle centers, with the closed-form side
    table of the triad system, so that its angles and area see no rounding
    of the absolute centers.

    Raises CyclicDegeneration (carrying the circumcenter) when the input is
    cyclic, since all four centers then coincide.
    """
    st = _state(q)
    if st.cyclic:
        raise _collapse(st)
    t = st.triads
    return Quadrilateral._from_table(t.o1.o, t.o2.o, t.o3.o, t.o4.o, t.diffs, st.tol)


def _collapse(st: QuadState) -> CyclicDegeneration:
    """The error of a cyclic input's Q2, which is one point: the circumcenter."""
    return CyclicDegeneration("cyclic quadrilateral degenerates to a point",
                              point=Point(st.triads.o2.o))


_CONJ_ONE = complex(1.0, -0.0)  # conj(1 + 0j): the identity's m, conjugated by the first mirror


def prev_generation(q: QuadOrState) -> Quadrilateral:
    """Reverse of the perpendicular-bisector step, as the fixed point of four
    reflections.

    Treating q as a second generation (A2, B2, C2, D2), each side of q is the
    perpendicular bisector of the same side of the first generation, so the
    reflections in q's sides AB, BC, CD and DA take A to B, B to C, C to D
    and D back to A.  Each reflection is x -> p + u^2 conj(x - p), u^2 =
    e / conj(e) for the side e from p, and the four compose to a rotation
    x -> m x + b, taken on the side table relative to q's centroid: A is its
    fixed point b / (1 - m).  m = 1 exactly when q is cyclic (its opposite
    angles sum to pi): a cyclic input (QuadState.cyclic) raises the
    CyclicDegeneration of next_generation, carrying the circumcenter, and
    so does an m that rounds to 1 exactly.
    """
    st = _state(q)
    if st.cyclic:
        raise _collapse(st)
    ab, ac, ad, bc, _, cd = st.q._diffs
    g, da = (ab + ac + ad) / 4.0, -ad
    # the mirrors' first points A, B, C, D about g and their u^2
    pa, pb, pc, pd = 0j - g, ab - g, ac - g, ad - g
    ua, ub = ab / ab.conjugate(), bc / bc.conjugate()
    uc, ud = cd / cd.conjugate(), da / da.conjugate()
    # x -> m x + b, composed from the identity 1 + 0j, 0j
    m, b = ua * _CONJ_ONE, pa + ua * (0j - pa).conjugate()
    m, b = ub * m.conjugate(), pb + ub * (b - pb).conjugate()
    m, b = uc * m.conjugate(), pc + uc * (b - pc).conjugate()
    m, b = ud * m.conjugate(), pd + ud * (b - pd).conjugate()
    if 1.0 - m == 0.0:
        raise _collapse(st)
    a1 = b / (1.0 - m)
    b1 = pa + ua * (a1 - pa).conjugate()
    c1 = pb + ub * (b1 - pb).conjugate()
    d1 = pc + uc * (c1 - pc).conjugate()
    za, unit = st.q._z[0], st.q._unit
    return Quadrilateral(Point(za + (a1 + g) / unit), Point(za + (b1 + g) / unit),
                         Point(za + (c1 + g) / unit), Point(za + (d1 + g) / unit), tol=st.tol)


def _conjugates_in_triads(q: Quadrilateral) -> list[MaybePoint]:
    """The isogonal conjugate of the vertex left out of each triad DAB, ABC,
    BCD and CDA (C, D, A and B) in the triangle of that triad, isogonal_conjugate_triangle's
    in one pass: each pair's length and unit direction formed once."""
    a, b, c, d, tol = *q._z, q.tol
    ab, ac, ad, bc, bd, cd = b - a, c - a, d - a, c - b, d - b, d - c
    nab, nac, nad, nbc, nbd, ncd = abs(ab), abs(ac), abs(ad), abs(bc), abs(bd), abs(cd)
    # each pair is a gap from the left-out vertex of two triads: the vertex test of all four
    if min(nab, nac, nad, nbc, nbd, ncd) < tol * (max(nab, nac, nad, nbc, nbd, ncd) or 1.0):
        raise DegenerateConjugate("conjugate of a triangle vertex")
    ab, ac, ad, bc, bd, cd = ab / nab, ac / nac, ad / nad, bc / nbc, bd / nbd, cd / ncd
    ba, ca, da, cb, db, dc = -ab, -ac, -ad, -bc, -bd, -cd  # the reverse directions, exactly
    # each mirrored_cevian at v of the triangle v x y with the left-out p: v->x v->y conj(v->p)
    return [
        meet_of_cevians(d, da * db * dc.conjugate(), a, ab * ad * ac.conjugate(),
                        b, bd * ba * bc.conjugate(), tol),
        meet_of_cevians(a, ab * ac * ad.conjugate(), b, bc * ba * bd.conjugate(),
                        c, ca * cb * cd.conjugate(), tol),
        meet_of_cevians(b, bc * bd * ba.conjugate(), c, cd * cb * ca.conjugate(),
                        d, db * dc * da.conjugate(), tol),
        meet_of_cevians(c, cd * ca * cb.conjugate(), d, da * dc * db.conjugate(),
                        a, ac * ad * ab.conjugate(), tol)]


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
    return _isoptic_point(q._z, q._scale, q._unit, q._diffs[0])


def _isoptic_point(z: tuple[Point, ...], scale: float, unit: float, ab: complex) -> MaybePoint:
    """isoptic_point of the vertices z, given their diameter, frame unit and B - A there."""
    g = _centroid(z)
    a, b, c, d = z[0] - g, z[1] - g, z[2] - g, z[3] - g
    # u_k^2 of the sides AB, BC, CD and DA, summed from 0j with the signs +, -, +, -
    ea, eb, ec, ed = b - a, c - b, d - c, a - d
    ua, ub = ea / ea.conjugate(), eb / eb.conjugate()
    uc, ud = ec / ec.conjugate(), ed / ed.conjugate()
    den = 0j + ua - ub + uc - ud
    num = (0j + (ua * a.conjugate() - a) - (ub * b.conjugate() - b)
           + (uc * c.conjugate() - c) - (ud * d.conjugate() - d))
    # both sides, |g| too, in the side table's frame, where they neither under- nor overflow
    if abs(den) * (scale * unit) < _AT_INFINITY * (scale * unit + abs(g * unit)):
        return AtInfinity.along(ab.real, ab.imag)
    return finite_point(g + (num / den).conjugate(), "W")


def isoptic_point_via_limit(q: QuadOrState) -> MaybePoint:
    """The limit of the perpendicular-bisector iteration, as the center of
    the similarity that takes Q1 to Q3.

    Q^(k+2) = W + r (Q^(k) - W), so with g1 and g3 the centroids, u and v
    the vertices of Q1 and Q3 about them and k = sum conj(u_i) v_i /
    sum |u_i|^2 (r up to rounding), W = g1 + (g3 - g1) / (1 - k).  u, v and
    g3 - g1 are read in Q1's power-of-two frame, so no square overflows or
    underflows.  A cyclic input gives the center its Q2 collapses to, and an
    orthocentric one (r = 1) isoptic_point's point at infinity; a k that rounds
    to 1 exactly, near that locus, raises PointAtInfinity.  The period-two
    classes (r = -1) need no special case: there 1 - k = 2.
    """
    st = _state(q)
    if not is_finite(st.w):
        return st.w
    try:
        z3 = st.next.next.q._z
    except CyclicDegeneration as exc:
        return exc.point
    z1, unit = st.q._z, st.q._unit
    g1, g3 = _centroid(z1), _centroid(z3)
    a, b, c, d = z1
    ua, ub, uc, ud = (a - g1) * unit, (b - g1) * unit, (c - g1) * unit, (d - g1) * unit
    a, b, c, d = z3
    va, vb, vc, vd = (a - g3) * unit, (b - g3) * unit, (c - g3) * unit, (d - g3) * unit
    # both sums from int 0, as sum starts; |u|^2 = Re(conj(u) u) exactly
    k = ((0 + ua.conjugate() * va + ub.conjugate() * vb + uc.conjugate() * vc
          + ud.conjugate() * vd)
         / (0 + (ua.real * ua.real + ua.imag * ua.imag) + (ub.real * ub.real + ub.imag * ub.imag)
            + (uc.real * uc.real + uc.imag * uc.imag) + (ud.real * ud.real + ud.imag * ud.imag)))
    if 1.0 - k == 0.0:
        raise PointAtInfinity("k rounds to 1 near the orthocentric locus: no center")
    return finite_point(g1 + (g3 - g1) * unit / (1.0 - k) / unit, "W")


def _mean_image(a: MaybePoint, b: MaybePoint, c: MaybePoint, d: MaybePoint) -> MaybePoint:
    """The mean of four images, or the first of them at infinity."""
    if is_finite(a) and is_finite(b) and is_finite(c) and is_finite(d):
        return Point(_centroid((a, b, c, d)))
    return a if not is_finite(a) else b if not is_finite(b) else c if not is_finite(c) else d


def isoptic_point_via_inversion(q: QuadOrState) -> MaybePoint:
    """W as the inversion of each vertex in the matching second-generation
    triad circle; the four images are averaged."""
    st = _state(q)   # its Q2 raises CyclicDegeneration when cyclic
    t, tol = st.next.triads, st.tol
    a, b, c, d = st.q._z
    return _mean_image(invert_point(t.o1, a, tol), invert_point(t.o2, b, tol),
                       invert_point(t.o3, c, tol), invert_point(t.o4, d, tol))


def isoptic_point_via_inv_iso(q: QuadOrState) -> MaybePoint:
    """W as inversion-of-conjugate: each vertex is conjugated in the triangle
    of the remaining three, then inverted in that triangle's circumcircle."""
    st = _state(q)
    t, tol = st.triads, st.tol
    pc, pd, pa, pb = _conjugates_in_triads(st.q)
    return _mean_image(invert_point(t.o1, pc, tol), invert_point(t.o2, pd, tol),
                       invert_point(t.o3, pa, tol), invert_point(t.o4, pb, tol))


def isoptic_quantity(q: QuadOrState, w: Point) -> list[float]:
    """d_i / R_i for the four triad circles; all equal exactly at W.  Both
    are read in w's frame (QuadState.frame), where no distance from w
    overflows; a ratio beyond the float range raises PointAtInfinity."""
    st = _state(q)
    f = st.frame(w)
    centers = st.w_centers if f is st.__dict__.get("w_frame") else _center_offsets(st, f)
    _, _, (d1, d2, d3, d4), (r1, r2, r3, r4) = centers
    # a radius that underflows to 0 there is a ratio beyond the float range too
    qty = [d1 / r1, d2 / r2, d3 / r3, d4 / r4] if r1 and r2 and r3 and r4 else [math.inf]
    if math.inf in qty:
        raise PointAtInfinity("w is so far that d / R is not a finite float")
    return qty


def isodynamic_ratios(q: QuadOrState, w: Point) -> float:
    """Relative spread of |w - vertex_k| * R_sigma(k); ~0 exactly at W.

    sigma pairs each vertex with the radius of the triad circle through the
    other three: (A, R3), (B, R4), (C, R1), (D, R2).  The distances are read
    in w's frame (QuadState.frame) and the radii in an exact power of two
    near the largest, so that no distance or product overflows.
    """
    st = _state(q)
    pa, pb, pc, pd = st.frame(w)[2]
    t = st.triads
    r1, r2, r3, r4 = t.o1.r, t.o2.r, t.o3.r, t.o4.r
    runit = unit_near(max(r1, r2, r3, r4))
    pa, pb = abs(pa) * (r3 * runit), abs(pb) * (r4 * runit)
    pc, pd = abs(pc) * (r1 * runit), abs(pd) * (r2 * runit)
    mean = (pa + pb + pc + pd) / 4.0  # sum's order; from 0, which changes no product >= 0
    if mean == 0.0:
        return 0.0
    return max(abs(pa - mean), abs(pb - mean), abs(pc - mean), abs(pd - mean)) / mean


def angle_sums_at_point(q: QuadOrState, w: Point) -> float:
    """Max residual of angle(X w Y) = angle(X u Y) + angle(X v Y) over the
    four sides XY, in directed angles mod pi; ~0 exactly at W.  The sides differ
    by the phase of t = (Y - w) / (X - w) (X - u) / (Y - u) (X - v) / (Y - v),
    atan2(|Im t|, |Re t|) from a multiple of pi.  w at a vertex raises DegenerateRay."""
    # the offsets w - X in w's frame (QuadState.frame), whose quotients are
    # those of X - w, and the vertices in q's own, where no offset,
    # difference or quotient of them overflows
    st = _state(q)
    wa, wb, wc, wd = st.frame(w)[2]
    a, b, c, d = st.q._z
    if w == a or w == b or w == c or w == d:
        raise DegenerateRay("w coincides with a vertex")
    frame = st.q._unit
    a, b, c, d = a * frame, b * frame, c * frame, d * frame
    ac, ca, bd, db = a - c, c - a, b - d, d - b
    # the sides (X, Y, U, V) = (A, B, C, D), (B, C, A, D), (C, D, A, B) and (D, A, B, C)
    t1 = wb / wa * ac / (b - c) * (a - d) / bd
    t2 = wc / wb * (b - a) / ca * bd / (c - d)
    t3 = wd / wc * ca / (d - a) * (c - b) / db
    t4 = wa / wd * db / (a - b) * (d - c) / ac
    atan2 = math.atan2
    return max_or_nan(atan2(abs(t1.imag), abs(t1.real)), atan2(abs(t2.imag), abs(t2.real)),
                      atan2(abs(t3.imag), abs(t3.real)), atan2(abs(t4.imag), abs(t4.real)))


# ---------------------------------------------------------------------------
# pedals, Simson point, Varignon


def pedal_quadrilateral(q: QuadOrState, p: Point) -> list[Point]:
    """Feet of the perpendiculars from p onto the side lines AB, BC, CD, DA:
    with v the side's first vertex, e its vector, u^2 = e / conj(e) and
    d = p - v, the foot is v + (d + u^2 conj(d)) / 2, where u^2 conj(d) is d
    mirrored in the side.  d is read in p's frame (QuadState.frame), as
    p unit - v unit, so that it cannot overflow; a foot beyond the float
    range raises PointAtInfinity."""
    st = _state(q)
    unit, _, (pa, pb, pc, pd) = st.frame(p)
    a, b, c, d = st.q._z
    ab, _, ad, bc, _, cd = st.q._diffs
    da = -ad
    return [finite_point(a + 0.5 * (pa + ab / ab.conjugate() * pa.conjugate()) / unit, "a foot"),
            finite_point(b + 0.5 * (pb + bc / bc.conjugate() * pb.conjugate()) / unit, "a foot"),
            finite_point(c + 0.5 * (pc + cd / cd.conjugate() * pc.conjugate()) / unit, "a foot"),
            finite_point(d + 0.5 * (pd + da / da.conjugate() * pd.conjugate()) / unit, "a foot")]


def varignon(q: Quadrilateral) -> list[Point]:
    a, b, c, d = q._z
    # 0.5 * a + 0.5 * b: the sum a + b overflows near the float maximum
    a, b, c, d = 0.5 * a, 0.5 * b, 0.5 * c, 0.5 * d
    return [Point(a + b), Point(b + c), Point(c + d), Point(d + a)]


def simson_point(q: Quadrilateral) -> MaybePoint:
    """The unique point whose four pedal feet are collinear.

    S is the Miquel point of the complete quadrilateral, the center of the
    spiral similarity taking A to D and B to C: with a, b, c, d the vertices
    relative to the centroid G, S = G + (ac - bd) / (a + c - b - d), taken in
    the frame of the side table so that the products cannot underflow.  The
    denominator vanishes on parallelograms: below _AT_INFINITY
    (diameter + |G|) S is at infinity along AD.
    """
    z, unit, g = q._z, q._unit, _centroid(q._z)
    a, b, c, d = (z[0] - g) * unit, (z[1] - g) * unit, (z[2] - g) * unit, (z[3] - g) * unit
    den = a + c - b - d
    if abs(den) < _AT_INFINITY * (q._scale * unit + abs(g * unit)):
        ad = q._diffs[2]
        return AtInfinity.along(ad.real, ad.imag)
    return finite_point(g + (a * c - b * d) / den / unit, "S")


def _tls_axis(z: list[complex]) -> tuple[complex, complex, tuple[complex, ...]]:
    """The centroid g of the four points z (_centroid), the unit direction of
    their total-least-squares line through g, and the points relative to g."""
    g = _centroid(z)
    a, b, c, d = z[0] - g, z[1] - g, z[2] - g, z[3] - g
    # sum (z - g)^2 = sxx - syy + 2i sxy: half its phase is the principal
    # direction of the scatter matrix; the offsets are squared in a power of
    # two near the largest, so that the squares neither overflow nor underflow
    unit = unit_near(max(abs(a), abs(b), abs(c), abs(d)))
    sa, sb, sc, sd = a * unit, b * unit, c * unit, d * unit
    scatter = 0j + sa * sa + sb * sb + sc * sc + sd * sd  # from 0j, as sum starts
    return g, cmath.rect(1.0, 0.5 * cmath.phase(scatter)), (a, b, c, d)


def collinearity_residual(points: list[Point]) -> float:
    """Largest distance of the four points from their total-least-squares line."""
    _, u, (a, b, c, d) = _tls_axis(points)
    x, y = u.real, u.imag
    return max(abs(x * a.imag - y * a.real), abs(x * b.imag - y * b.real),
               abs(x * c.imag - y * c.real), abs(x * d.imag - y * d.real))


def simson_line(q: QuadOrState) -> Line:
    """The total-least-squares line of the pedal feet of S."""
    feet = _state(q).pedal_s
    if feet is None:
        raise PointAtInfinity("the Simson point is not finite")
    g, u, _ = _tls_axis(feet)
    return Line(g, u)


def parallelogram_residual(pts: list[Point], scale: float) -> float:
    """Scale-free deviation of the opposite-side vector sums from zero."""
    e1 = (pts[1] - pts[0]) + (pts[3] - pts[2])
    e2 = (pts[2] - pts[1]) + (pts[0] - pts[3])
    return max(abs(e1), abs(e2)) / scale


# ---------------------------------------------------------------------------
# isogonal conjugation with respect to the quadrilateral


def isogonal_conjugate_quad(q: QuadOrState, p: Point) -> list[MaybePoint]:
    """The four adjacent intersections of the reflections of the lines
    vertex-to-p in the angle bisectors at the vertices.

    The rays at vertex i run to its neighbours, so each reflected line is
    the mirrored_cevian of the triangle's conjugation, read from the sides and
    p's offsets p - v (QuadState.frame).  The lines are met relative
    to q's centroid in the frame of its side table, where the conjugate of a
    far p, which lies near q, keeps q's precision.  Parallel adjacent
    reflected lines put that vertex of the conjugate at infinity (along
    their common direction); a meet beyond the float range raises
    PointAtInfinity.
    """
    st = _state(q)
    tol, (unit, _, (oa, ob, oc, od)) = st.tol, st.frame(p)
    na, nb, nc, nd = abs(oa), abs(ob), abs(oc), abs(od)
    if min(na, nb, nc, nd) < tol * max(st.scale * unit, na, nb, nc, nd):  # of q and p
        raise DegenerateConjugate("p coincides with a vertex")
    # each vertex about the centroid g in the side table's frame, and the
    # direction of its line: rays along its outgoing side and its reversed incoming one
    ab, ac, ad, bc, _, cd = st.q._diffs
    a, g, frame = st.q.a, (ab + ac + ad) / 4.0, st.q._unit
    va, vb, vc, vd = 0j - g, ab - g, ac - g, ad - g
    la, lb = mirrored_cevian(0j, ab, ad, oa), mirrored_cevian(0j, bc, -ab, ob)
    lc, ld = mirrored_cevian(0j, cd, -bc, oc), mirrored_cevian(0j, -ad, -cd, od)
    # P_A = l_A ^ l_B, P_B = l_B ^ l_C, P_C = l_C ^ l_D, P_D = l_D ^ l_A
    meets = ((line_meet(va, la, vb, lb, tol), la), (line_meet(vb, lb, vc, lc, tol), lb),
             (line_meet(vc, lc, vd, ld, tol), lc), (line_meet(vd, ld, va, la, tol), ld))
    return [AtInfinity.along(u.real, u.imag) if m is None
            else finite_point(a + (m + g) / frame, "the isogonal conjugate") for m, u in meets]


# ---------------------------------------------------------------------------
# reconstructions


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


def reordered_isoptic_points(q: Quadrilateral) -> list[MaybePoint]:
    """isoptic_point of ACBD and ACDB with no Quadrilateral built: they have
    q's six vertex gaps, so its diameter and frame, and C - A for B - A."""
    a, b, c, d = q._z
    scale, unit, ac = q._scale, q._unit, q._diffs[1]
    return [_isoptic_point((a, c, b, d), scale, unit, ac),
            _isoptic_point((a, c, d, b), scale, unit, ac)]


# ---------------------------------------------------------------------------
# residuals of the identities at W and S, shared by analyze and the verify
# suite; None where W or S is not finite


def six_cs_residual(st: QuadState) -> float | None:
    """Max scale-free distance of W from the six circles of similitude, each
    read from the Apollonius defect d_i - k d_j (k = R_i / R_j) over its
    gradient on W's frame: kernel.max_cs_distance's pair loop, bit for bit,
    written out over its six pairs in its order."""
    if st.w_frame is None or st.cyclic:
        return None
    t, tol, inf = st.triads, st.tol, math.inf
    (o1, o2, o3, o4), (u1, u2, u3, u4), (d1, d2, d3, d4), (s1, s2, s3, s4) = st.w_centers
    t1, t2, t3, t4 = tol * s1, tol * s2, tol * s3, tol * s4
    c12, c13, c14, c23, c24, c34 = (abs(o1 - o2), abs(o1 - o3), abs(o1 - o4), abs(o2 - o3),
                                    abs(o2 - o4), abs(o3 - o4))
    # a pair of centers less than tol times either radius apart (the loop's
    # gap < tol gap never holds: a quadrilateral's frame rejects a tol >= 1)
    if (c12 < t1 or c12 < t2 or c13 < t1 or c13 < t3 or c14 < t1 or c14 < t4
            or c23 < t2 or c23 < t3 or c24 < t2 or c24 < t4 or c34 < t3 or c34 < t4):
        raise ConcentricCircles("circle of similitude of concentric circles")
    if not (d1 and d2 and d3 and d4):
        return inf  # W at a center, where the defect has no gradient
    e1, e2, e3, (r1, r2, r3, r4) = u1 / d1, u2 / d2, u3 / d3, (t.o1.r, t.o2.r, t.o3.r, t.o4.r)
    k12, k13, k14, k23, k24, k34 = r1 / r2, r1 / r3, r1 / r4, r2 / r3, r2 / r4, r3 / r4
    g12, g13, g14 = abs(e1 - k12 * u2 / d2), abs(e1 - k13 * u3 / d3), abs(e1 - k14 * u4 / d4)
    g23, g24, g34 = abs(e2 - k23 * u3 / d3), abs(e2 - k24 * u4 / d4), abs(e3 - k34 * u4 / d4)
    # max keeps the first of equal or nan defects, as the loop does
    return max(abs(d1 - k12 * d2) / g12 if g12 else inf, abs(d1 - k13 * d3) / g13 if g13 else inf,
               abs(d1 - k14 * d4) / g14 if g14 else inf, abs(d2 - k23 * d3) / g23 if g23 else inf,
               abs(d2 - k24 * d4) / g24 if g24 else inf,
               abs(d3 - k34 * d4) / g34 if g34 else inf) / st.w_frame[0] / st.scale


def area_ratio_residual(st: QuadState) -> float | None:
    """| |r| - area(Q2) / area(Q1) |, with no Q2 built: Q2's doubled area is
    read from the closed-form side table of the triad system (O2 - O1,
    O3 - O1, O4 - O1) in Q1's frame, where Q1's is read too.  None where
    Q1's two lobes cancel to area 0; raises where r is undefined, and
    CyclicDegeneration where Q2 is one point."""
    if st.cyclic:
        raise _collapse(st)
    a1 = st.q._area2()
    if a1 == 0.0:
        return None
    unit, (o12, o13, o14) = st.q._unit, st.triads.diffs[:3]
    t0, t1, t2 = o12 * unit, o13 * unit, o14 * unit
    a2 = (t0.real * t1.imag - t0.imag * t1.real) + (t1.real * t2.imag - t1.imag * t2.real)
    return abs(abs(st.r) - abs(a2 / a1))


def isoptic_spread_residual(st: QuadState) -> float | None:
    """Relative spread of the four d_i / R_i at W; None on cyclic input,
    where W is the common center and every d_i / R_i is rounding noise."""
    qty, mean = st.quantities
    if qty is None or st.cyclic or mean == 0.0:
        return None
    return (max(qty) - min(qty)) / mean


def isodynamic_residual(st: QuadState) -> float | None:
    return None if st.w_frame is None else isodynamic_ratios(st, st.w)


def angle_sums_residual(st: QuadState) -> float | None:
    return None if st.w_frame is None else angle_sums_at_point(st, st.w)


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


def analyze(q: Quadrilateral) -> AnalysisReport:
    st = QuadState(q)
    shape, triads = st.shape, st.triads
    try:
        r = st.r
    except IllConditionedAngles:
        r = math.nan
    residuals: dict[str, float] = {}
    for name, fn in _RESIDUALS.items():
        try:
            res = fn(st)
        except (CyclicDegeneration, ConcentricCircles, IllConditionedAngles):
            continue  # the area ratio needs r and a Q2 not one point, the six CS centers apart
        if res is not None:
            residuals[name] = res
    return AnalysisReport(quad=q, triads=triads, r=r, w=st.w, s=st.s, shape=shape,
                          pedal_w=st.pedal_w, pedal_s=st.pedal_s, varignon=varignon(q),
                          isoptic_quantity=st.quantities[1], residuals=residuals)
