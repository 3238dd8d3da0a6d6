"""Quadrilateral constructions: triad circles, the generation maps, the
similarity ratio, the isoptic point W, the Simson point and line, and the
pedal and Varignon quadrilaterals, on one QuadState per quadrilateral.
What only some commands run is in modules loaded on first use: the report
(``report``), the further routes to W and the isogonal conjugate
(``routes``), and the reconstructions (``reconstruct``).

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

from . import lazy_attributes
from .errors import CollinearInput, CyclicDegeneration, IllConditionedAngles, PointAtInfinity
from .kernel import (
    DEFAULT_TOL,
    AtInfinity,
    Circle,
    Line,
    MaybePoint,
    Point,
    Record,
    check_tol,
    circumcenter,
    finite_point,
    is_finite,
    require_finite,
    unit_near,
)

# the benchmark reads these names of the lazy modules on quad: they resolve here on
# their first read (PEP 562)
__getattr__ = lazy_attributes(globals(), {
    "report": ("analyze",),
    "routes": ("isoptic_point_via_limit", "isoptic_point_via_inversion",
               "isoptic_point_via_inv_iso"),
    "reconstruct": ("reconstruct_fourth_vertex",)})

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
        its vertices.  Vertices that round together raise CollinearInput even where
        the table's sides are apart: such a generation has no vertices to report."""
        q = object.__new__(cls)
        q._frame(Point(a), Point(b), Point(c), Point(d), diffs, tol)
        if a == b or a == c or a == d or b == c or b == d or c == d:
            raise CollinearInput("the vertices of this generation round together")
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
        return Point(centroid_of(self._z))

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
    QuadState or a Quadrilateral (state_of), and reuses the state's parts; the
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


def state_of(q: QuadOrState) -> QuadState:
    """q's QuadState: q itself when it is one, so that a construction reuses its parts."""
    return q if isinstance(q, QuadState) else QuadState(q)


def centroid_of(z: tuple[complex, ...]) -> complex:
    """The mean of four points, summed in quarters so as not to overflow
    (0j first, as sum(z) / 4 starts, so that no -0.0 survives)."""
    a, b, c, d = z
    return 0j + a / 4.0 + b / 4.0 + c / 4.0 + d / 4.0


# ---------------------------------------------------------------------------
# angles and shape


def classify(q: QuadOrState) -> ShapeClass:
    """The shape flags.  Each degenerate locus is read from the one decision
    the constructions make there: cyclic is QuadState.cyclic, on which Q2 is
    one point; orthocentric is W at infinity (r = 1), and parallelogram S at
    infinity.  trapezoid is a pair of opposite sides parallel within 1e3 tol."""
    st = state_of(q)
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
    st = state_of(q)
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
    st = state_of(q)
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
    st = state_of(q)
    if st.cyclic:
        raise cyclic_collapse(st)
    t = st.triads
    return Quadrilateral._from_table(t.o1.o, t.o2.o, t.o3.o, t.o4.o, t.diffs, st.tol)


def cyclic_collapse(st: QuadState) -> CyclicDegeneration:
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
    st = state_of(q)
    if st.cyclic:
        raise cyclic_collapse(st)
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
        raise cyclic_collapse(st)
    a1 = b / (1.0 - m)
    b1 = pa + ua * (a1 - pa).conjugate()
    c1 = pb + ub * (b1 - pb).conjugate()
    d1 = pc + uc * (c1 - pc).conjugate()
    za, unit = st.q._z[0], st.q._unit
    return Quadrilateral(Point(za + (a1 + g) / unit), Point(za + (b1 + g) / unit),
                         Point(za + (c1 + g) / unit), Point(za + (d1 + g) / unit), tol=st.tol)


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
    g = centroid_of(z)
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


def isoptic_quantity(q: QuadOrState, w: Point) -> list[float]:
    """d_i / R_i for the four triad circles; all equal exactly at W.  Both
    are read in w's frame (QuadState.frame), where no distance from w
    overflows; a ratio beyond the float range raises PointAtInfinity."""
    st = state_of(q)
    f = st.frame(w)
    centers = st.w_centers if f is st.__dict__.get("w_frame") else _center_offsets(st, f)
    _, _, (d1, d2, d3, d4), (r1, r2, r3, r4) = centers
    # a radius that underflows to 0 there is a ratio beyond the float range too
    qty = [d1 / r1, d2 / r2, d3 / r3, d4 / r4] if r1 and r2 and r3 and r4 else [math.inf]
    if math.inf in qty:
        raise PointAtInfinity("w is so far that d / R is not a finite float")
    return qty


# ---------------------------------------------------------------------------
# pedals, Simson point, Varignon


def pedal_quadrilateral(q: QuadOrState, p: Point) -> list[Point]:
    """Feet of the perpendiculars from p onto the side lines AB, BC, CD, DA:
    with v the side's first vertex, e its vector, u^2 = e / conj(e) and
    d = p - v, the foot is v + (d + u^2 conj(d)) / 2, where u^2 conj(d) is d
    mirrored in the side.  d is read in p's frame (QuadState.frame), as
    p unit - v unit, so that it cannot overflow; a foot beyond the float
    range raises PointAtInfinity."""
    st = state_of(q)
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
    z, unit, g = q._z, q._unit, centroid_of(q._z)
    a, b, c, d = (z[0] - g) * unit, (z[1] - g) * unit, (z[2] - g) * unit, (z[3] - g) * unit
    den = a + c - b - d
    if abs(den) < _AT_INFINITY * (q._scale * unit + abs(g * unit)):
        ad = q._diffs[2]
        return AtInfinity.along(ad.real, ad.imag)
    return finite_point(g + (a * c - b * d) / den / unit, "S")


def _tls_axis(z: list[complex]) -> tuple[complex, complex, tuple[complex, ...]]:
    """The centroid g of the four points z (centroid_of), the unit direction of
    their total-least-squares line through g, and the points relative to g."""
    g = centroid_of(z)
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
    feet = state_of(q).pedal_s
    if feet is None:
        raise PointAtInfinity("the Simson point is not finite")
    g, u, _ = _tls_axis(feet)
    return Line(g, u)


def reordered_isoptic_points(q: Quadrilateral) -> list[MaybePoint]:
    """isoptic_point of ACBD and ACDB with no Quadrilateral built: they have
    q's six vertex gaps, so its diameter and frame, and C - A for B - A."""
    a, b, c, d = q._z
    scale, unit, ac = q._scale, q._unit, q._diffs[1]
    return [_isoptic_point((a, c, b, d), scale, unit, ac),
            _isoptic_point((a, c, d, b), scale, unit, ac)]


