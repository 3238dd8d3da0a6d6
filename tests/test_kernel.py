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
    GenCircle,
    Line,
    Point,
    Triangle,
    circle_of_similitude,
    circles_equal,
    circumcircle,
    intersect,
    invert_circle,
    invert_point,
    is_finite,
    isogonal_conjugate,
    isogonal_conjugate_triangle,
)

UNIT = GenCircle.circle(Point(0, 0), 1.0)
DISC = Circle(0j, 1.0)


def close(p: Point, q: Point, tol=1e-12):
    return p.dist(q) < tol


def gen(c: Circle) -> GenCircle:
    """The coefficient form of c, for intersect and invert_circle."""
    return GenCircle.circle(c.center(), c.r)


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
    return Triangle(p, q, r)


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
        c = circumcircle(t.p1, t.p2, t.p3)
        for v in (t.p1, t.p2, t.p3):
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
        pts = intersect(UNIT, GenCircle.line_through(Point(0, -5), Point(0, 5)))
        assert len(pts) == 2
        assert close(pts[0], Point(0, -1)) and close(pts[1], Point(0, 1))

    def test_tangent_circles(self):
        pts = intersect(UNIT, GenCircle.circle(Point(2, 0), 1.0))
        assert len(pts) == 1
        assert close(pts[0], Point(1, 0))

    def test_disjoint(self):
        assert intersect(UNIT, GenCircle.circle(Point(5, 0), 1.0)) == []

    def test_identical(self):
        with pytest.raises(IdenticalCurves):
            intersect(UNIT, GenCircle.circle(Point(0, 0), 1.0))

    def test_ordering_is_lexicographic(self):
        pts = intersect(UNIT, GenCircle.circle(Point(1, 0), 1.0))
        assert len(pts) == 2
        assert (pts[0].x, pts[0].y) < (pts[1].x, pts[1].y)


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
        g = GenCircle.line_through(Point(2, 0), Point(2, 1))
        img = invert_circle(UNIT, g)
        assert not img.is_line
        assert close(img.center(), Point(0.25, 0))
        assert img.radius() == pytest.approx(0.25, abs=1e-12)

    def test_mirror_is_fixed(self):
        img = invert_circle(UNIT, GenCircle.circle(Point(0, 0), 1.0))
        assert circles_equal(img, UNIT)

    def test_diameter_line_fixed(self):
        g = GenCircle.line_through(Point(0, -1), Point(0, 1))
        assert circles_equal(invert_circle(UNIT, g), g)

    def test_line_mirror_raises(self):
        mirror = GenCircle.line_through(Point(0, 0), Point(1, 0))
        with pytest.raises(NotALine):
            invert_circle(mirror, UNIT)
        with pytest.raises(NotALine):
            invert_circle(mirror, GenCircle.line_through(Point(0, 1), Point(1, 2)))

    @given(circle_pairs())
    @settings(max_examples=100, deadline=None)
    def test_pointwise_consistency(self, pair):
        mirror, g = pair
        img = invert_circle(mirror, gen(g))
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
        for p in intersect(UNIT, gen(o2)):
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
        g1, g2 = gen(o1), gen(o2)
        common = intersect(g1, g2) if not circles_equal(g1, g2) else []
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
    def test_incenter_is_fixed(self):
        t = Triangle(Point(0, 0), Point(5, 0), Point(1, 4))
        a = t.p2.dist(t.p3)
        b = t.p1.dist(t.p3)
        c = t.p1.dist(t.p2)
        incenter = (t.p1 * a + t.p2 * b + t.p3 * c) * (1.0 / (a + b + c))
        img = isogonal_conjugate_triangle(t, incenter)
        assert close(img, incenter, 1e-10)

    def test_circumcenter_to_orthocenter(self):
        t = Triangle(Point(0, 0), Point(4, 0), Point(0, 4))
        img = isogonal_conjugate_triangle(t, Point(2, 2))
        assert close(img, Point(0, 0), 1e-10)

    def test_circumcircle_point_goes_to_infinity(self):
        t = Triangle(Point(0, 0), Point(4, 0), Point(0, 4))
        c = circumcircle(t.p1, t.p2, t.p3)
        p = c.center() + Point(math.cos(2.5), math.sin(2.5)) * c.radius()
        assert isinstance(isogonal_conjugate_triangle(t, p), AtInfinity)

    def test_side_line_point_collapses_to_opposite_vertex(self):
        t = Triangle(Point(0, 0), Point(4, 0), Point(0, 4))
        assert close(isogonal_conjugate_triangle(t, Point(2, 0)), Point(0, 4))

    def test_vertex_is_undefined(self):
        t = Triangle(Point(0, 0), Point(4, 0), Point(0, 4))
        with pytest.raises(DegenerateConjugate):
            isogonal_conjugate_triangle(t, Point(4, 0))

    def test_point_at_infinity_raises(self):
        t = Triangle(Point(0, 0), Point(4, 0), Point(0, 4))
        with pytest.raises(DegenerateConjugate):
            isogonal_conjugate_triangle(t, AtInfinity.along(1.0, 2.0))

    @given(triangles(), points())
    @settings(max_examples=100, deadline=None)
    def test_involution(self, t, p):
        c = circumcircle(t.p1, t.p2, t.p3)
        if c.distance_to(p) < 0.05 * c.radius():
            return
        for line_pts in ((t.p1, t.p2), (t.p2, t.p3), (t.p1, t.p3)):
            if GenCircle.line_through(*line_pts).distance_to(p) < 0.05:
                return
        img = isogonal_conjugate_triangle(t, p)
        if not is_finite(img):
            return
        back = isogonal_conjugate_triangle(t, img)
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

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_near_the_circumcircle_keeps_relative_accuracy(self, offset):
        # 1e-7 of the radius off the circumcircle the weight sum cancels to
        # about 1e-7 of the weights, and the conjugate runs ~1e7 diameters
        # out; the exact weights keep its error a few eps of that distance
        rng = random.Random(4)
        for _ in range(100):
            a, b, c = _random_triangle(rng, offset)
            circ = circumcircle(*(Point(v.real, v.imag) for v in (a, b, c)))
            p = circ.o + circ.r * (1.0 + rng.choice((-1e-7, 1e-7))) \
                * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            got = isogonal_conjugate(a, b, c, p)
            if not is_finite(got):
                continue  # within tol of the circumcircle: at infinity
            exact = _exact_conjugate(a, b, c, p)
            assert abs(got.to_complex() - exact) <= 16 * EPS * (abs(exact - p) + offset)


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
        l1 = GenCircle.line_through(a, c) if a.dist(c) > 1e-3 else None
        l2 = GenCircle.line_through(b, d) if b.dist(d) > 1e-3 else None
        if l1 is None or l2 is None:
            return
        pts = intersect(l1, l2)
        if not pts:
            return
        x = pts[0]
        lhs = x.dist(a) * x.dist(c)
        rhs = x.dist(b) * x.dist(d)
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)


class TestCirclesEqual:
    def test_sign_tie_of_the_largest_coefficients(self):
        # b and c tie for the largest magnitude, so the canonical signs of
        # the two normalized equations differ
        g1 = GenCircle.from_coeffs(0, 1, -1, 0.5)
        g2 = GenCircle.from_coeffs(0, 1, -1.0000000001, 0.5)
        assert circles_equal(g1, g2)
        assert not circles_equal(g1, GenCircle.from_coeffs(0, 1, -1.001, 0.5))
