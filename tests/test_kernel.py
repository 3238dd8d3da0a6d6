import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from isoptic.errors import (
    CollinearInput,
    ConcentricCircles,
    DegenerateConjugate,
    IdenticalCurves,
    NotALine,
)
from isoptic.kernel import (
    AtInfinity,
    Circle,
    Line,
    Point,
    circle_of_similitude,
    circumcircle,
    intersect,
    invert_circle,
    invert_point,
    is_finite,
    isogonal_conjugate,
    isogonal_conjugate_triangle,
)
from isoptic.quad import (
    Quadrilateral,
    TriadSystem,
    analyze,
    classify,
    next_generation,
    triad_circles,
)
from isoptic.verify import CaseSpec, InvariantStats, run_suite

DISC = Circle(0j, 1.0)


def close(p: Point, q: Point, tol=1e-12):
    return p.dist(q) < tol


def through(p: Point, q: Point) -> Line:
    """The line through two distinct points."""
    d = q.to_complex() - p.to_complex()
    return Line(p.to_complex(), d / abs(d))


def on(c: Circle | Line, t: float) -> Point:
    """The point at angle t on a circle, or at arclength t on a line."""
    if c.is_line:
        return Point.from_complex(c.p + c.u * t)
    return Point.from_complex(c.o + c.r * cmath.exp(1j * t))


# strategies for nondegenerate random inputs

coords = st.floats(min_value=-10, max_value=10, allow_nan=False,
                   allow_infinity=False)


@st.composite
def points(draw):
    return Point(draw(coords), draw(coords))


@st.composite
def triangles(draw):
    # reject thin triangles so conditioning stays sane
    p, q, r = draw(points()), draw(points()), draw(points())
    area2 = abs((q - p).cross(r - p))
    longest = max(p.dist(q), q.dist(r), p.dist(r))
    assume(longest > 0.5 and area2 / (longest * longest) > 0.05)
    return p, q, r


@st.composite
def circle_pairs(draw):
    o1c, o2c = draw(points()), draw(points())
    r1 = draw(st.floats(min_value=0.5, max_value=5))
    r2 = draw(st.floats(min_value=0.5, max_value=5))
    assume(o1c.dist(o2c) > 0.3)
    return Circle(o1c.to_complex(), r1), Circle(o2c.to_complex(), r2)


class TestCircumcircle:
    def test_right_triangle(self):
        c = circumcircle(Point(0, 0), Point(2, 0), Point(0, 2))
        assert close(c.center(), Point(1, 1))
        assert c.radius() == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_isosceles(self):
        c = circumcircle(Point(0, 0), Point(4, 0), Point(2, 2))
        assert close(c.center(), Point(2, 0))
        assert c.radius() == pytest.approx(2.0, abs=1e-12)

    def test_collinear_rejected(self):
        with pytest.raises(CollinearInput):
            circumcircle(Point(0, 0), Point(1, 0), Point(2, 0))

    @given(triangles())
    @settings(max_examples=100, deadline=None)
    def test_passes_through_vertices(self, t):
        c = circumcircle(*t)
        for v in t:
            assert c.distance_to(v) < 1e-8 * c.radius()


class TestPerpendicularBisector:
    """circle_of_similitude of two equal radii: the perpendicular bisector of
    the centers, a Line."""

    @staticmethod
    def bisector(p: complex, q: complex) -> Line:
        return circle_of_similitude(Circle(p, 1.0), Circle(q, 1.0))

    def test_vertical(self):
        line = self.bisector(0j, 2 + 0j)
        assert line.is_line
        assert line.distance_to(Point(1, 5)) < 1e-12

    def test_horizontal(self):
        line = self.bisector(0j, 2j)
        assert line.distance_to(Point(-3, 1)) < 1e-12

    def test_diagonal(self):
        line = self.bisector(1 + 1j, 3 + 3j)
        assert line.distance_to(Point(2, 2)) < 1e-12
        d = line.direction()
        assert abs(abs(d.x) - abs(d.y)) < 1e-12

    def test_coincident(self):
        with pytest.raises(ConcentricCircles):
            self.bisector(1 + 1j, 1 + 1j)

    @given(points(), points())
    @settings(max_examples=100, deadline=None)
    def test_equidistance(self, p, q):
        if p.dist(q) < 0.1:
            return
        line = self.bisector(p.to_complex(), q.to_complex())
        for t in (-2.0, 0.0, 3.5):
            x = on(line, t)
            assert abs(x.dist(p) - x.dist(q)) < 1e-9 * (1 + p.dist(q))


class TestIntersect:
    def test_circle_line(self):
        pts = intersect(DISC, through(Point(0, -5), Point(0, 5)))
        assert len(pts) == 2
        assert close(pts[0], Point(0, -1)) and close(pts[1], Point(0, 1))

    def test_tangent_circles(self):
        pts = intersect(DISC, Circle(2 + 0j, 1.0))
        assert len(pts) == 1
        assert close(pts[0], Point(1, 0))

    def test_disjoint(self):
        assert intersect(DISC, Circle(5 + 0j, 1.0)) == []

    def test_identical(self):
        with pytest.raises(IdenticalCurves):
            intersect(DISC, Circle(0j, 1.0))

    def test_ordering_is_lexicographic(self):
        pts = intersect(DISC, Circle(1 + 0j, 1.0))
        assert len(pts) == 2
        assert (pts[0].x, pts[0].y) < (pts[1].x, pts[1].y)

    def test_concentric(self):
        assert intersect(DISC, Circle(0j, 2.0)) == []

    def test_lines(self):
        x = through(Point(0, 0), Point(1, 0))
        assert intersect(x, through(Point(2, -1), Point(2, 3))) == [Point(2, 0)]
        assert intersect(x, through(Point(0, 1), Point(5, 1))) == []
        with pytest.raises(IdenticalCurves):
            intersect(x, through(Point(7, 0), Point(3, 0)))


class TestInvertPoint:
    def test_outside(self):
        assert close(invert_point(DISC, Point(2, 0)), Point(0.5, 0))

    def test_on_mirror(self):
        assert close(invert_point(DISC, Point(1, 0)), Point(1, 0))

    def test_center_goes_to_infinity(self):
        assert isinstance(invert_point(DISC, Point(0, 0)), AtInfinity)

    def test_line_mirror_raises(self):
        mirror = Line(0j, 1 + 0j)
        with pytest.raises(NotALine):
            invert_point(mirror, Point(2, 3))
        with pytest.raises(NotALine):
            invert_point(mirror, AtInfinity.along(1.0, 1.0))

    @given(points())
    @settings(max_examples=150, deadline=None)
    def test_involution(self, p):
        if p.norm() < 1e-3:
            return
        back = invert_point(DISC, invert_point(DISC, p))
        assert is_finite(back)
        assert back.dist(p) < 1e-10 * (1 + p.norm())


class TestInvertCircle:
    def test_line_to_circle(self):
        g = through(Point(2, 0), Point(2, 1))
        img = invert_circle(DISC, g)
        assert not img.is_line
        assert close(img.center(), Point(0.25, 0))
        assert img.radius() == pytest.approx(0.25, abs=1e-12)

    def test_mirror_is_fixed(self):
        img = invert_circle(DISC, Circle(0j, 1.0))
        assert not img.is_line
        assert close(img.center(), Point(0, 0))
        assert img.radius() == pytest.approx(1.0, abs=1e-12)

    def test_diameter_line_fixed(self):
        g = through(Point(0, -1), Point(0, 1))
        img = invert_circle(DISC, g)
        assert img.is_line
        assert abs(img.direction().cross(g.direction())) < 1e-12
        assert img.distance_to(Point(0, 0)) < 1e-12

    def test_line_mirror_raises(self):
        mirror = through(Point(0, 0), Point(1, 0))
        with pytest.raises(NotALine):
            invert_circle(mirror, DISC)
        with pytest.raises(NotALine):
            invert_circle(mirror, through(Point(0, 1), Point(1, 2)))

    def test_circle_through_the_center_to_line(self):
        # the circle of diameter 0..2 goes to the line x = 1/2
        img = invert_circle(DISC, Circle(1 + 0j, 1.0))
        assert img.is_line
        for y in (-3.0, 0.0, 2.0):
            assert img.distance_to(Point(0.5, y)) < 1e-12

    @given(circle_pairs())
    @settings(max_examples=100, deadline=None)
    def test_pointwise_consistency(self, pair):
        mirror, g = pair
        img = invert_circle(mirror, g)
        for t in (0.3, 2.0, 4.1):
            p = invert_point(mirror, on(g, t))
            if is_finite(p):
                assert img.distance_to(p) < 1e-7


class TestApollonius:
    """circle_of_similitude as the Apollonius circle |X - c1| / |X - c2| =
    R1 / R2 of the centers."""

    def test_ratio_one_is_bisector(self):
        g = circle_of_similitude(Circle(-1 + 0j, 1.0), Circle(1 + 0j, 1.0))
        assert g.is_line
        assert g.distance_to(Point(0, 7)) < 1e-12
        assert g.p == 0j

    def test_ratio_two(self):
        g = circle_of_similitude(Circle(-1 + 0j, 2.0), Circle(1 + 0j, 1.0))
        assert close(g.center(), Point(5 / 3, 0))
        assert g.radius() == pytest.approx(4 / 3, abs=1e-12)

    def test_vertical_axis(self):
        # |X - (0,0)| = 3 |X - (0,4)| meets the axis at y=3 and y=6
        g = circle_of_similitude(Circle(0j, 3.0), Circle(4j, 1.0))
        assert close(g.center(), Point(0, 4.5))
        assert g.radius() == pytest.approx(1.5, abs=1e-12)

    @given(points(), points(), st.floats(min_value=0.2, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_sampled_ratio(self, p1, p2, k):
        if p1.dist(p2) < 0.1 or abs(k - 1.0) < 1e-3:
            return
        g = circle_of_similitude(Circle(p1.to_complex(), k), Circle(p2.to_complex(), 1.0))
        for t in (0.0, 1.0, 2.5):
            x = on(g, t)
            assert x.dist(p1) / x.dist(p2) == pytest.approx(k, rel=1e-8)


class TestCircleOfSimilitude:
    def test_equal_radii_gives_line(self):
        cs = circle_of_similitude(DISC, Circle(4 + 0j, 1.0))
        assert cs.is_line
        assert cs.distance_to(Point(2, 3)) < 1e-12

    def test_unequal_radii(self):
        cs = circle_of_similitude(DISC, Circle(3 + 0j, 2.0))
        assert close(cs.center(), Point(-1, 0))
        assert cs.radius() == pytest.approx(2.0, abs=1e-12)

    def test_through_intersections(self):
        o2 = Circle(1 + 0j, 1.0)
        cs = circle_of_similitude(DISC, o2)
        for p in intersect(DISC, o2):
            assert cs.distance_to(p) < 1e-12

    def test_concentric(self):
        with pytest.raises(ConcentricCircles):
            circle_of_similitude(DISC, Circle(0j, 2.0))

    @given(circle_pairs())
    @settings(max_examples=100, deadline=None)
    def test_swaps_centers_under_inversion(self, pair):
        o1, o2 = pair
        if abs(o1.radius() - o2.radius()) < 1e-3:
            return
        cs = circle_of_similitude(o1, o2)
        img = invert_point(cs, o1.center())
        assert is_finite(img)
        assert img.dist(o2.center()) < 1e-7 * (1 + o2.center().norm())

    @given(circle_pairs(), st.floats(min_value=0, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_spiral_center_property(self, pair, t):
        # about a point e of CS(o1, o2), one complex factor maps o1 onto o2:
        # the ratio of the radii times the unit phase of (o2 - e) / (o1 - e)
        o1, o2 = pair
        if abs(o1.radius() - o2.radius()) < 1e-3:
            return
        cs = circle_of_similitude(o1, o2)
        e = on(cs, t).to_complex()
        u, v = o1.o - e, o2.o - e
        if abs(u) < 1e-6 or abs(v) < 1e-6:
            return
        factor = v / u / abs(v / u) * (o2.radius() / o1.radius())
        for s in (0.5, 2.0, 3.8):
            img = e + (on(o1, s).to_complex() - e) * factor
            assert o2.distance_to(Point.from_complex(img)) < 1e-6


class TestDirectedAngle:
    """Directed angles mod pi, each the phase of a ratio of complex
    differences: the angle from line (v, x) to line (v, y) is the phase of
    (y - v) / (x - v)."""

    @given(circle_pairs(), st.floats(min_value=0, max_value=6),
           st.floats(min_value=0, max_value=6), st.floats(min_value=0, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_addition_across_similitude_circle(self, pair, t1, t2, t3):
        # K on o1, L on o2, M on CS(o1,o2); chords subtended at the
        # intersection points add: angle at M = angle at K + angle at L
        o1, o2 = pair
        common = intersect(o1, o2)
        if len(common) != 2:
            return
        a, b = common
        if a.dist(b) < 0.2:
            return
        cs = circle_of_similitude(o1, o2)
        k, l, m = on(o1, t1), on(o2, t2), on(cs, t3)
        if min(k.dist(a), k.dist(b), l.dist(a), l.dist(b),
               m.dist(a), m.dist(b)) < 1e-3:
            return
        a, b = a.to_complex(), b.to_complex()
        diff = sum(sign * cmath.phase((b - v.to_complex()) / (a - v.to_complex()))
                   for sign, v in ((1, m), (-1, k), (-1, l)))
        assert abs(math.remainder(diff, math.pi)) < 1e-7


class TestFootOfPerpendicular:
    """The foot f of the perpendicular from p onto a Line: f is on the line,
    p - f is normal to direction(), and distance_to(p) is |p - f|."""

    @staticmethod
    def check(line: Line, p: Point, foot: Point):
        d = line.direction()
        assert line.distance_to(foot) < 1e-12
        assert abs((p - foot).dot(d)) < 1e-12
        assert line.distance_to(p) == pytest.approx(p.dist(foot), abs=1e-12)
        assert d.norm() == pytest.approx(1.0, abs=1e-15)

    def test_horizontal_line(self):
        self.check(Line(0j, 1 + 0j), Point(3, 5), Point(3, 0))

    def test_diagonal_line(self):
        self.check(Line(0j, (1 + 1j) / abs(1 + 1j)), Point(2, 0), Point(1, 1))

    def test_point_on_line(self):
        self.check(Line(0j, (1 + 2j) / abs(1 + 2j)), Point(2, 4), Point(2, 4))


class TestIsogonalConjugateTriangle:
    RIGHT = (Point(0, 0), Point(4, 0), Point(0, 4))

    def test_incenter_is_fixed(self):
        t = (Point(0, 0), Point(5, 0), Point(1, 4))
        a = t[1].dist(t[2])
        b = t[0].dist(t[2])
        c = t[0].dist(t[1])
        incenter = (t[0] * a + t[1] * b + t[2] * c) * (1.0 / (a + b + c))
        img = isogonal_conjugate_triangle(*t, incenter)
        assert close(img, incenter, 1e-10)

    def test_circumcenter_to_orthocenter(self):
        img = isogonal_conjugate_triangle(*self.RIGHT, Point(2, 2))
        assert close(img, Point(0, 0), 1e-10)

    def test_circumcircle_point_goes_to_infinity(self):
        c = circumcircle(*self.RIGHT)
        p = c.center() + Point(math.cos(2.5), math.sin(2.5)) * c.radius()
        assert isinstance(isogonal_conjugate_triangle(*self.RIGHT, p), AtInfinity)

    def test_side_line_point_collapses_to_opposite_vertex(self):
        assert close(isogonal_conjugate_triangle(*self.RIGHT, Point(2, 0)), Point(0, 4))

    def test_vertex_is_undefined(self):
        with pytest.raises(DegenerateConjugate):
            isogonal_conjugate_triangle(*self.RIGHT, Point(4, 0))

    def test_point_at_infinity_raises(self):
        with pytest.raises(DegenerateConjugate):
            isogonal_conjugate_triangle(*self.RIGHT, AtInfinity.along(1.0, 2.0))

    def test_flat_triangle_raises_at_the_callers_tol(self):
        flat = (Point(0, 0), Point(4, 0), Point(2, 1e-6))
        with pytest.raises(CollinearInput):
            isogonal_conjugate_triangle(*flat, Point(1, 1), tol=1e-6)
        assert is_finite(isogonal_conjugate_triangle(*flat, Point(1, 1), tol=1e-9))

    @given(triangles(), points())
    @settings(max_examples=100, deadline=None)
    def test_involution(self, t, p):
        c = circumcircle(*t)
        if c.distance_to(p) < 0.05 * c.radius():
            return
        for line_pts in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2])):
            if through(*line_pts).distance_to(p) < 0.05:
                return
        img = isogonal_conjugate_triangle(*t, p)
        if not is_finite(img):
            return
        back = isogonal_conjugate_triangle(*t, img)
        if not is_finite(back):
            return
        assert back.dist(p) < 1e-7 * (1 + p.norm())


EPS = 2.220446049250313e-16


def _exact_conjugate(a: complex, b: complex, c: complex, p: complex) -> complex:
    """The barycentrics (|BC|^2 yz : |CA|^2 zx : |AB|^2 xy) of the conjugate
    of p in exact rationals of the float input, rounded once."""
    A, B, C, P = ((Fraction(v.real), Fraction(v.imag)) for v in (a, b, c, p))

    def area(u, v, w):
        return ((v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])) / 2

    def dist2(u, v):
        return (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2

    x, y, z = area(P, B, C), area(A, P, C), area(A, B, P)
    u, v, w = dist2(B, C) * y * z, dist2(C, A) * z * x, dist2(A, B) * x * y
    s = u + v + w
    return complex(float((A[0] * u + B[0] * v + C[0] * w) / s),
                   float((A[1] * u + B[1] * v + C[1] * w) / s))


def _random_triangle(rng: random.Random, offset: float) -> tuple[complex, complex, complex]:
    """Three points in a unit box moved offset from the origin."""
    g = offset * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return tuple(g + complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(3))


class TestIsogonalConjugateCore:
    """The complex core against an exact evaluation.  Far from the origin the
    output coordinates themselves round to eps * offset, so the bound is a
    few eps * (diameter + offset)."""

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_matches_exact_barycentrics(self, offset):
        rng = random.Random(3)
        for _ in range(200):
            a, b, c = _random_triangle(rng, offset)
            weights = [rng.uniform(0.1, 1.0) for _ in range(3)]
            p = (a * weights[0] + b * weights[1] + c * weights[2]) / sum(weights)
            diam = max(abs(a - b), abs(b - c), abs(c - a))
            err = abs(isogonal_conjugate(a, b, c, p).to_complex() - _exact_conjugate(a, b, c, p))
            assert err <= 16 * EPS * (diam + offset)

    def test_subnormal_triangle(self):
        # the frame's power of two is capped at 2^1023; uncapped it
        # overflowed on a triangle 1e-310 across
        got = isogonal_conjugate(0j, 1e-310 + 0j, 1e-310j, 3e-311 + 3e-311j)
        assert is_finite(got)
        assert got.dist(Point(2e-310 / 7, 2e-310 / 7)) <= 1e-3 * 1e-310


class TestConcyclicityViaChords:
    @given(points(), st.floats(min_value=0.5, max_value=4),
           st.lists(st.floats(min_value=0, max_value=6.2), min_size=4,
                    max_size=4, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_intersecting_chords(self, center, r, ts):
        # four concyclic points: the chord intersection splits both
        # chords into segments with equal products
        o = Circle(center.to_complex(), r)
        a, b, c, d = (on(o, t) for t in ts)
        l1 = through(a, c) if a.dist(c) > 1e-3 else None
        l2 = through(b, d) if b.dist(d) > 1e-3 else None
        if l1 is None or l2 is None:
            return
        pts = intersect(l1, l2)
        if not pts:
            return
        x = pts[0]
        lhs = x.dist(a) * x.dist(c)
        rhs = x.dist(b) * x.dist(d)
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)


# records


def _generic() -> Quadrilateral:
    return Quadrilateral(Point(0, 0), Point(4, 0), Point(5, 3), Point(1, 4))


# a factory of records with equal fields, and whether its records are frozen
RECORDS = {
    "Point": (lambda: Point(1.0, 2.0), True),
    "AtInfinity": (lambda: AtInfinity(0.6, 0.8), True),
    "Circle": (lambda: Circle(1 + 2j, 3.0), True),
    "Line": (lambda: Line(1j, 1 + 0j), True),
    "Quadrilateral": (_generic, True),
    "TriadSystem": (lambda: triad_circles(_generic()), True),
    "ShapeClass": (lambda: classify(_generic()), True),
    "CaseSpec": (lambda: CaseSpec(7, "cyclic"), True),
    "AnalysisReport": (lambda: analyze(_generic()), False),
    "InvariantStats": (lambda: InvariantStats("ptolemy", cases_run=2), False),
    "SuiteReport": (lambda: run_suite(CaseSpec(7, "cyclic"), 2), False),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_by_value(name):
    make, frozen = RECORDS[name]
    rec, twin = make(), make()
    assert type(rec).__name__ == name
    assert rec == twin and not rec != twin
    assert repr(rec) == repr(twin) and repr(rec).startswith(f"{name}(")
    field = next(iter(vars(rec)))
    if frozen:
        assert hash(rec) == hash(twin)
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            delattr(rec, field)
    else:
        with pytest.raises(TypeError):
            hash(rec)
        setattr(twin, field, None)  # the reports are filled in as they run
        assert rec != twin


def test_record_equality_reads_only_the_fields():
    assert Point(1, 2) != AtInfinity(1, 2)
    assert repr(Point(1.0, 2.0)) == "Point(x=1.0, y=2.0)"
    # Q2 keeps the closed-form side table, not its vertices' differences
    q2 = next_generation(_generic())
    again = Quadrilateral(*q2.vertices(), tol=1e-3)
    assert q2 == again and hash(q2) == hash(again)
    triads = triad_circles(_generic())
    assert triads == TriadSystem(*triads.circles, diffs=())
