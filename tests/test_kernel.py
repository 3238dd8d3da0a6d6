import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from isoptic.errors import (
    CollinearInput,
    ConcentricCircles,
    DegenerateConjugate,
    IdenticalCurves,
    NotALine,
)
from isoptic.curves import (
    circle_of_similitude,
    circumcircle,
    intersect,
    invert_circle,
    invert_point,
    isogonal_conjugate_triangle,
    line_meet,
    max_cs_distance,
    mirrored_cevian,
)
from isoptic.kernel import (
    AtInfinity,
    Circle,
    Line,
    Point,
    is_finite,
    max_or_nan,
)
from isoptic.quad import (
    Quadrilateral,
    QuadState,
    TriadSystem,
    classify,
    next_generation,
    triad_circles,
)
from isoptic.report import analyze
from isoptic.verify import CaseSpec, InvariantStats, random_quadrilateral, run_suite

DISC = Circle(0j, 1.0)


def close(p: Point, q: Point, tol=1e-12):
    return abs(p - q) < tol


def through(p: Point, q: Point) -> Line:
    """The line through two distinct points."""
    d = q - p
    return Line(p, d / abs(d))


def on(c: Circle | Line, t: float) -> Point:
    """The point at angle t on a circle, or at arclength t on a line."""
    if c.is_line:
        return Point(c.p + c.u * t)
    return Point(c.o + c.r * cmath.exp(1j * t))


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
    area2 = abs(((q - p).conjugate() * (r - p)).imag)
    longest = max(abs(p - q), abs(q - r), abs(p - r))
    assume(longest > 0.5 and area2 / (longest * longest) > 0.05)
    return p, q, r


@st.composite
def circle_pairs(draw):
    o1c, o2c = draw(points()), draw(points())
    r1 = draw(st.floats(min_value=0.5, max_value=5))
    r2 = draw(st.floats(min_value=0.5, max_value=5))
    assume(abs(o1c - o2c) > 0.3)
    return Circle(o1c, r1), Circle(o2c, r2)


class TestCircumcircle:
    def test_right_triangle(self):
        c = circumcircle(Point(0, 0), Point(2, 0), Point(0, 2))
        assert close(c.o, Point(1, 1))
        assert c.r == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_isosceles(self):
        c = circumcircle(Point(0, 0), Point(4, 0), Point(2, 2))
        assert close(c.o, Point(2, 0))
        assert c.r == pytest.approx(2.0, abs=1e-12)

    def test_collinear_rejected(self):
        with pytest.raises(CollinearInput):
            circumcircle(Point(0, 0), Point(1, 0), Point(2, 0))

    @given(triangles())
    @settings(max_examples=100, deadline=None)
    def test_passes_through_vertices(self, t):
        c = circumcircle(*t)
        for v in t:
            assert c.distance_to(v) < 1e-8 * c.r


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
        d = line.u
        assert abs(abs(d.real) - abs(d.imag)) < 1e-12

    def test_coincident(self):
        with pytest.raises(ConcentricCircles):
            self.bisector(1 + 1j, 1 + 1j)

    @given(points(), points())
    @settings(max_examples=100, deadline=None)
    def test_equidistance(self, p, q):
        if abs(p - q) < 0.1:
            return
        line = self.bisector(p, q)
        for t in (-2.0, 0.0, 3.5):
            x = on(line, t)
            assert abs(abs(x - p) - abs(x - q)) < 1e-9 * (1 + abs(p - q))


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


class TestLineMeet:
    """line_meet solves along unit directions, so no product of the
    lengths of its inputs forms."""

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_scaled_lines_meet_at_the_scaled_point(self, scale):
        # the lines through -1 along 3 + i and through 1 + 3i along -1 + 2i
        # meet at 2 + i; |u| |v| scaled overflows or underflows
        p, u, q, v = (scale * z for z in (-1 + 0j, 3 + 1j, 1 + 3j, -1 + 2j))
        assert abs(line_meet(p, u, q, v, 1e-9) - scale * (2 + 1j)) <= 8 * EPS * scale

    def test_a_zero_direction_is_parallel(self):
        assert line_meet(0j, 0j, 1 + 0j, 1j, 1e-9) is None
        assert line_meet(0j, 1 + 0j, 1j, 0j, 1e-9) is None
        assert mirrored_cevian(0j, 0j, 1 + 0j, 1j) == 0


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
        if abs(p) < 1e-3:
            return
        back = invert_point(DISC, invert_point(DISC, p))
        assert is_finite(back)
        assert abs(back - p) < 1e-10 * (1 + abs(p))


class TestInvertCircle:
    def test_line_to_circle(self):
        g = through(Point(2, 0), Point(2, 1))
        img = invert_circle(DISC, g)
        assert not img.is_line
        assert close(img.o, Point(0.25, 0))
        assert img.r == pytest.approx(0.25, abs=1e-12)

    def test_mirror_is_fixed(self):
        img = invert_circle(DISC, Circle(0j, 1.0))
        assert not img.is_line
        assert close(img.o, Point(0, 0))
        assert img.r == pytest.approx(1.0, abs=1e-12)

    def test_diameter_line_fixed(self):
        g = through(Point(0, -1), Point(0, 1))
        img = invert_circle(DISC, g)
        assert img.is_line
        assert abs((img.u.conjugate() * g.u).imag) < 1e-12
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
    # g passes 1e-8 from the mirror's center: the image's radius is 8e8, and
    # one ulp of it (1.19e-7) is above the absolute bound
    @example((Circle(1j, 4.0), Circle(1e-8j, 1.0)))
    @settings(max_examples=100, deadline=None)
    def test_pointwise_consistency(self, pair):
        mirror, g = pair
        img = invert_circle(mirror, g)
        bound = 1e-7 if img.is_line else max(1e-7, 8 * EPS * img.r)
        for t in (0.3, 2.0, 4.1):
            p = invert_point(mirror, on(g, t))
            if is_finite(p):
                assert img.distance_to(p) < bound


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
        assert close(g.o, Point(5 / 3, 0))
        assert g.r == pytest.approx(4 / 3, abs=1e-12)

    def test_vertical_axis(self):
        # |X - (0,0)| = 3 |X - (0,4)| meets the axis at y=3 and y=6
        g = circle_of_similitude(Circle(0j, 3.0), Circle(4j, 1.0))
        assert close(g.o, Point(0, 4.5))
        assert g.r == pytest.approx(1.5, abs=1e-12)

    @given(points(), points(), st.floats(min_value=0.2, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_sampled_ratio(self, p1, p2, k):
        if abs(p1 - p2) < 0.1 or abs(k - 1.0) < 1e-3:
            return
        g = circle_of_similitude(Circle(p1, k), Circle(p2, 1.0))
        for t in (0.0, 1.0, 2.5):
            x = on(g, t)
            assert abs(x - p1) / abs(x - p2) == pytest.approx(k, rel=1e-8)


class TestCircleOfSimilitude:
    def test_equal_radii_gives_line(self):
        cs = circle_of_similitude(DISC, Circle(4 + 0j, 1.0))
        assert cs.is_line
        assert cs.distance_to(Point(2, 3)) < 1e-12

    def test_unequal_radii(self):
        cs = circle_of_similitude(DISC, Circle(3 + 0j, 2.0))
        assert close(cs.o, Point(-1, 0))
        assert cs.r == pytest.approx(2.0, abs=1e-12)

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
        if abs(o1.r - o2.r) < 1e-3:
            return
        cs = circle_of_similitude(o1, o2)
        img = invert_point(cs, o1.o)
        assert is_finite(img)
        assert abs(img - o2.o) < 1e-7 * (1 + abs(o2.o))

    @given(circle_pairs(), st.floats(min_value=0, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_spiral_center_property(self, pair, t):
        # about a point e of CS(o1, o2), one complex factor maps o1 onto o2:
        # the ratio of the radii times the unit phase of (o2 - e) / (o1 - e)
        o1, o2 = pair
        if abs(o1.r - o2.r) < 1e-3:
            return
        cs = circle_of_similitude(o1, o2)
        e = on(cs, t)
        u, v = o1.o - e, o2.o - e
        if abs(u) < 1e-6 or abs(v) < 1e-6:
            return
        factor = v / u / abs(v / u) * (o2.r / o1.r)
        for s in (0.5, 2.0, 3.8):
            img = e + (on(o1, s) - e) * factor
            assert o2.distance_to(Point(img)) < 1e-6


def _pair_cs_distance(w: complex, o1: Circle, o2: Circle, tol: float) -> float:
    """One pair's Apollonius defect over its gradient, as the per-pair
    reference the per-set pass must reproduce bit for bit."""
    gap = abs(o1.o - o2.o)
    if gap < tol * max(o1.r, o2.r, gap):
        raise ConcentricCircles("reference")
    k = o1.r / o2.r
    u, v = w - o1.o, w - o2.o
    d1, d2 = abs(u), abs(v)
    grad = abs(u / d1 - k * v / d2) if d1 and d2 else 0.0
    return abs(d1 - k * d2) / grad if grad else math.inf


def _random_circles(rng: random.Random, count: int) -> list[Circle]:
    return [Circle(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0.2, 4.0))
            for _ in range(count)]


class TestMaxCsDistance:
    """max_cs_distance, the one pass over a set of circles that the six-CS,
    quadrangle-duality and cross-generation residuals read."""

    @pytest.mark.parametrize("count", [2, 4, 12])
    def test_equals_the_max_of_the_pairs_bit_for_bit(self, count):
        rng = random.Random(count)
        for _ in range(200):
            circles = _random_circles(rng, count)
            w = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            ref = max(_pair_cs_distance(w, c1, c2, 1e-9)
                      for i, c1 in enumerate(circles) for c2 in circles[i + 1:])
            assert max_cs_distance(w, circles, 1e-9) == ref

    def test_triad_circles_at_w_bit_for_bit(self):
        for i in range(50):
            st = QuadState(random_quadrilateral(CaseSpec(4, "convex-noncyclic"), i))
            circles = st.triads.circles
            ref = max(_pair_cs_distance(st.w, c1, c2, st.tol)
                      for j, c1 in enumerate(circles) for c2 in circles[j + 1:])
            assert max_cs_distance(st.w, circles, st.tol) == ref

    def test_coincident_centers_raise(self):
        circles = [Circle(0j, 1.0), Circle(3 + 0j, 1.0), Circle(0j, 2.0)]
        with pytest.raises(ConcentricCircles):
            max_cs_distance(1 + 1j, circles)

    def test_w_at_a_center_is_infinitely_far(self):
        circles = [Circle(0j, 1.0), Circle(3 + 0j, 2.0), Circle(1 + 2j, 0.5)]
        assert max_cs_distance(3 + 0j, circles) == math.inf

    def test_min_gap_skips_close_centers(self):
        near = [Circle(0j, 1.0), Circle(1e-3 + 0j, 1.5)]
        far = Circle(4 + 1j, 2.0)
        w = 1 + 2j
        # the near pair is concentric at tol 1e-2, unless min_gap skips it
        with pytest.raises(ConcentricCircles):
            max_cs_distance(w, near + [far], 1e-2)
        got = max_cs_distance(w, near + [far], 1e-2, min_gap=1e-2)
        assert got == max(_pair_cs_distance(w, c, far, 1e-2) for c in near)
        assert max_cs_distance(w, near, 1e-2, min_gap=1e-2) == 0.0

    @pytest.mark.parametrize("exponent", [-300, 300])
    def test_scale_free(self, exponent):
        rng = random.Random(exponent)
        scale = 10.0 ** exponent
        for _ in range(50):
            circles = _random_circles(rng, 4)
            w = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            scaled = [Circle(c.o * scale, c.r * scale) for c in circles]
            ref = max_cs_distance(w, circles)
            assert max_cs_distance(w * scale, scaled) / scale == pytest.approx(ref, rel=1e-12)


class TestMaxOrNan:
    def test_a_nan_in_any_term_is_nan(self):
        # max(0.0, 1.0, nan) is 1.0: max passes over a nan that does not come first
        for terms in ((math.nan,), (0.0, 1.0, math.nan), (math.nan, 2.0), (math.inf, math.nan)):
            assert math.isnan(max_or_nan(*terms)), terms

    def test_finite_and_inf_terms_read_as_max_from_zero(self):
        rng = random.Random(5)
        cases = [(0.0, 0.0), (0.0,), (1.0, math.inf, 3.0), (math.inf,)]
        cases += [tuple(rng.expovariate(1.0) for _ in range(rng.randrange(1, 9)))
                  for _ in range(200)]
        for terms in cases:
            assert repr(max_or_nan(*terms)) == repr(max(0.0, *terms)), terms


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
        if abs(a - b) < 0.2:
            return
        cs = circle_of_similitude(o1, o2)
        k, l, m = on(o1, t1), on(o2, t2), on(cs, t3)
        if min(abs(k - a), abs(k - b), abs(l - a), abs(l - b),
               abs(m - a), abs(m - b)) < 1e-3:
            return
        diff = sum(sign * cmath.phase((b - v) / (a - v))
                   for sign, v in ((1, m), (-1, k), (-1, l)))
        assert abs(math.remainder(diff, math.pi)) < 1e-7


class TestFootOfPerpendicular:
    """The foot f of the perpendicular from p onto a Line: f is on the line,
    p - f is normal to its direction u, and distance_to(p) is |p - f|."""

    @staticmethod
    def check(line: Line, p: Point, foot: Point):
        d = line.u
        assert line.distance_to(foot) < 1e-12
        assert abs(((p - foot).conjugate() * d).real) < 1e-12
        assert line.distance_to(p) == pytest.approx(abs(p - foot), abs=1e-12)
        assert abs(d) == pytest.approx(1.0, abs=1e-15)

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
        a = abs(t[1] - t[2])
        b = abs(t[0] - t[2])
        c = abs(t[0] - t[1])
        incenter = Point((t[0] * a + t[1] * b + t[2] * c) * (1.0 / (a + b + c)))
        img = isogonal_conjugate_triangle(*t, incenter)
        assert close(img, incenter, 1e-10)

    def test_circumcenter_to_orthocenter(self):
        img = isogonal_conjugate_triangle(*self.RIGHT, Point(2, 2))
        assert close(img, Point(0, 0), 1e-10)

    def test_circumcircle_point_goes_to_infinity(self):
        c = circumcircle(*self.RIGHT)
        p = Point(c.o + complex(math.cos(2.5), math.sin(2.5)) * c.r)
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
        if c.distance_to(p) < 0.05 * c.r:
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
        assert abs(back - p) < 1e-7 * (1 + abs(p))


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
    """The meet of mirrored cevians against the barycentric weights of the
    conjugate, evaluated in exact rationals.  Far from the origin the output
    coordinates themselves round to eps * offset, so the bound is a few
    eps * (diameter + offset)."""

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_matches_exact_barycentrics(self, offset):
        rng = random.Random(3)
        for _ in range(200):
            a, b, c = _random_triangle(rng, offset)
            weights = [rng.uniform(0.1, 1.0) for _ in range(3)]
            p = (a * weights[0] + b * weights[1] + c * weights[2]) / sum(weights)
            diam = max(abs(a - b), abs(b - c), abs(c - a))
            err = abs(isogonal_conjugate_triangle(a, b, c, p) - _exact_conjugate(a, b, c, p))
            assert err <= 16 * EPS * (diam + offset)

    def test_subnormal_triangle(self):
        # the mirrored cevians are unit directions, so no product of the
        # sides of a triangle 1e-310 across underflows
        got = isogonal_conjugate_triangle(0j, 1e-310 + 0j, 1e-310j, 3e-311 + 3e-311j)
        assert is_finite(got)
        assert abs(got - Point(2e-310 / 7, 2e-310 / 7)) <= 1e-3 * 1e-310


class TestConcyclicityViaChords:
    @given(points(), st.floats(min_value=0.5, max_value=4),
           st.lists(st.floats(min_value=0, max_value=6.2), min_size=4,
                    max_size=4, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_intersecting_chords(self, center, r, ts):
        # four concyclic points: the chord intersection splits both
        # chords into segments with equal products
        o = Circle(center, r)
        a, b, c, d = (on(o, t) for t in ts)
        l1 = through(a, c) if abs(a - c) > 1e-3 else None
        l2 = through(b, d) if abs(b - d) > 1e-3 else None
        if l1 is None or l2 is None:
            return
        pts = intersect(l1, l2)
        if not pts:
            return
        x = pts[0]
        lhs = abs(x - a) * abs(x - c)
        rhs = abs(x - b) * abs(x - d)
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
    field = rec._fields[0]
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
