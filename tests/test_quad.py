import ast
import cmath
import gc
import importlib
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st, target

from isoptic.errors import (
    CollinearInput,
    ConcentricCircles,
    CyclicDegeneration,
    DegenerateConjugate,
    DegenerateRay,
    GeometryError,
    IllConditionedAngles,
    NonCollinearFeet,
    PointAtInfinity,
    Underdetermined,
)
from isoptic.curves import (
    circle_of_similitude,
    circumcircle,
    circumscribe,
    intersect,
    invert_circle,
    invert_point,
    isogonal_conjugate_triangle,
    line_meet,
    max_cs_distance,
    orthocenter,
)
from isoptic.kernel import (
    AtInfinity,
    Circle,
    Line,
    Point,
    finite_point,
    is_finite,
    unit_near,
)
from isoptic.quad import (
    _AT_INFINITY,
    Quadrilateral,
    QuadState,
    TriadSystem,
    _isoptic_point,
    _tls_axis,
    centroid_of,
    classify,
    collinearity_residual,
    cyclic_collapse,
    isoptic_point,
    isoptic_quantity,
    next_generation,
    pedal_quadrilateral,
    prev_generation,
    reordered_isoptic_points,
    similarity_ratio,
    simson_line,
    simson_point,
    triad_circles,
    varignon,
)
from isoptic.reconstruct import (
    reconstruct_fourth_vertex,
    reconstruct_from_pedal_w,
    reconstruct_from_simson,
)
from isoptic.render import render_svg
from isoptic.report import (
    analyze,
    angle_sums_at_point,
    area_ratio_residual,
    isodynamic_ratios,
    parallelogram_residual,
    six_cs_residual,
)
from isoptic.routes import (
    _conjugates_in_triads,
    interior_angles,
    isogonal_conjugate_quad,
    isoptic_point_via_inv_iso,
    isoptic_point_via_inversion,
    isoptic_point_via_limit,
)
from isoptic.verify import (
    _MIN_TRIAD_HEIGHT,
    INVARIANTS,
    SHAPE_CLASSES,
    CaseSpec,
    _angles_ok,
    _normalized,
    cotangent_identity_residuals,
    cross_generation_cs_residual,
    feet_circles_residual,
    quad_distance,
    quadrangle_duality_residual,
    random_quadrilateral,
    spiral_transport_residual,
)

from cyclicity import noncyclicity_measure

SQUARE = Quadrilateral(Point(1, 1), Point(-1, 1), Point(-1, -1), Point(1, -1))
GENERIC = Quadrilateral(Point(0, 0), Point(4, 0), Point(5, 3), Point(1, 4))
TRAPEZOID = Quadrilateral(Point(0, 0), Point(4, 0), Point(3, 2), Point(1, 2))
DART = Quadrilateral(Point(0, 0), Point(4, 0), Point(1, 1), Point(0, 4))


UNIT = (Point(0, 0), Point(1, 0), Point(0, 1))
# the arguments before tol of each construction that validates it; a
# construction on a quadrilateral reads the tol of q, checked where q is built
TOL_ARGS = {
    Quadrilateral: GENERIC.vertices(),
    reconstruct_from_pedal_w: (isoptic_point(GENERIC),
                               pedal_quadrilateral(GENERIC, isoptic_point(GENERIC))),
    reconstruct_from_simson: (simson_point(GENERIC),
                              pedal_quadrilateral(GENERIC, simson_point(GENERIC))),
    reconstruct_fourth_vertex: GENERIC.vertices()[:3] + (isoptic_point(GENERIC),),
    circumcircle: UNIT,
    intersect: (Circle(0j, 1.0), Circle(1 + 0j, 1.0)),
    invert_point: (Circle(0j, 1.0), Point(0.5, 0.25)),
    invert_circle: (Circle(0j, 1.0), Circle(2 + 0j, 0.5)),
    circle_of_similitude: (Circle(0j, 1.0), Circle(3 + 0j, 2.0)),
    isogonal_conjugate_triangle: UNIT + (Point(0.2, 0.3),),
    render_svg: (GENERIC, ("quad",)),
}


def ortho_quad():
    a, b, c = Point(0, 0), Point(4, 0), Point(1, 3)
    return Quadrilateral(a, b, c, orthocenter(a, b, c))


def pi4_parallelogram():
    u, v = 2 + 0j, cmath.rect(3.0, math.pi / 4)
    return Quadrilateral(*map(Point, (0j, u, u + v, v)))


def generic_quads(count=25, shape="convex-noncyclic", seed=3):
    spec = CaseSpec(seed=seed, shape_class=shape)
    return [random_quadrilateral(spec, i) for i in range(count)]


class TestQuadrilateral:
    def test_collinear_triple_rejected(self):
        with pytest.raises(CollinearInput):
            Quadrilateral(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 3))

    def test_validates_at_the_callers_tol(self):
        # the least triad height, of ABC, is 1e-7 of the diameter
        thin = (Point(0, 0), Point(1, 0), Point(2, 5.657e-7), Point(0, 2))
        assert Quadrilateral(*thin, tol=1e-8) == Quadrilateral(*thin)
        with pytest.raises(CollinearInput):
            Quadrilateral(*thin, tol=1e-6)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_analyze_rejects_a_tol_that_is_not_finite_and_positive(self, tol):
        # -1 raised a math domain error, nan passed every tolerance test and
        # inf raised CollinearInput.  analyze and QuadState read the tol of
        # their quadrilateral, checked where it is built, and take none
        with pytest.raises(ValueError):
            analyze(Quadrilateral(*GENERIC.vertices(), tol=tol))
        with pytest.raises(TypeError):
            analyze(GENERIC, tol)
        with pytest.raises(TypeError):
            QuadState(GENERIC, tol)

    def test_a_bare_quadrilateral_is_read_at_its_own_tol(self):
        # D is 1e-6 off the circle through A, B and C, so q is cyclic at its
        # tol 1e-3; a bare q was read at DEFAULT_TOL, where classify called
        # it noncyclic and next_generation returned a Q2 about 1e-6 across
        q = Quadrilateral(Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1 - 1e-6), tol=1e-3)
        assert q.tol == QuadState(q).tol == 1e-3
        assert classify(q).cyclic and analyze(q).shape.cyclic
        for step in (next_generation, prev_generation):
            with pytest.raises(CyclicDegeneration):
                step(q)
        # tol is an attribute, not a field: equality, hash and repr do not read it
        same = Quadrilateral(*q.vertices())
        assert same == q and hash(same) == hash(q) and repr(same) == repr(q)

    @pytest.mark.parametrize("fn", list(TOL_ARGS))
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_constructions_reject_a_tol_that_is_not_finite_and_positive(self, fn, tol):
        # similarity_ratio raised a math domain error at -1 and inf; the
        # generation map, the triads and the kernel functions returned a
        # result at 0, -1 and nan, and four kernel functions raised a
        # misleading GeometryError at inf
        with pytest.raises(ValueError, match="finite and positive"):
            fn(*TOL_ARGS[fn], tol)

    def test_no_quadrilateral_passes_at_a_tol_of_one(self):
        # a triangle is at most sqrt(3) / 2 of its longest side high, so the
        # height test fails every quadrilateral at tol >= 1: six_cs_residual
        # leaves out the pair loop's cut gap < tol gap, which holds only there
        for q in (SQUARE, GENERIC, TRAPEZOID, DART, *generic_quads(10)):
            with pytest.raises(CollinearInput):
                Quadrilateral(*q.vertices(), tol=0.87)

    def test_area_square(self):
        assert SQUARE.area() == pytest.approx(4.0)

    @pytest.mark.parametrize("factor", [1e-200, 1e200])
    def test_extreme_scales_keep_r(self, factor):
        # crosses and cotangents are formed on the side table times a power
        # of two near 1 / diameter: raw, they overflowed from 1e155 (r read
        # NaN) and underflowed at 1e-170 (a valid input raised CollinearInput)
        for shape in ("convex-noncyclic", "concave", "trapezoid"):
            for q in generic_quads(20, shape, seed=1):
                big = Quadrilateral(*(Point(v.x * factor, v.y * factor) for v in q.vertices()))
                assert big.min_triad_height() == pytest.approx(
                    q.min_triad_height() * factor, rel=1e-14)
                r = analyze(big).r
                assert math.isfinite(r)
                assert r == pytest.approx(similarity_ratio(q), rel=1e-12)

    @pytest.mark.parametrize("factor", [1e155, 1e-170, 1e200, 1e-200, 1e300, 1e-300])
    def test_extreme_scales_keep_the_residuals(self, factor):
        # with raw products of distances and radii, squared offsets and
        # areas, six_cs, isodynamic, pedal_s_collinear and area_ratio read
        # NaN from 1e155, and six_cs read inf and pedal_s_collinear 0.41 from
        # 1e-170
        for q in generic_quads(20, "convex-noncyclic", seed=1):
            big = Quadrilateral(*(Point(v.x * factor, v.y * factor) for v in q.vertices()))
            got = analyze(big).residuals
            assert got.keys() == analyze(q).residuals.keys()
            assert all(math.isfinite(v) and v <= 1e-12 for v in got.values()), got

    @pytest.mark.parametrize("factor", [1e160, 1e-160, 1e200, 1e-200, 1e300, 1e-300])
    def test_extreme_scales_keep_the_cross_checks(self, factor):
        # inversion formed |p - o|^2 and r^2, and the Aitken step squared
        # coordinate steps, in raw coordinates: the W routes read NaN or
        # raised OverflowError or ZeroDivisionError at these scales, and so
        # did the duality residual and the fourth-vertex reconstruction
        q = random_quadrilateral(CaseSpec(1, "convex-noncyclic"), 0)
        big = Quadrilateral(*(Point(v.x * factor, v.y * factor) for v in q.vertices()))
        w, size = isoptic_point(big), big.scale()
        for route in (isoptic_point_via_limit, isoptic_point_via_inversion,
                      isoptic_point_via_inv_iso):
            assert abs(route(big) - w) <= 1e-14 * size, route.__name__
        assert quadrangle_duality_residual(QuadState(big)) <= 1e-12
        assert abs(reconstruct_fourth_vertex(big.a, big.b, big.c, w) - big.d) <= 1e-12 * size

    def test_coincident_vertices_rejected_at_subnormal_scale(self):
        # tol * diameter underflowed to 0 at a diameter of 2.2e-321
        with pytest.raises(CollinearInput):
            Quadrilateral(Point(0, 0), Point(0, 0), Point(0, 0), Point(0, 2.2e-321))

    @pytest.mark.parametrize("vertices", [
        (0j, 1 + 0j, 1e308 + 1e308j, -1e308 + 1e308j),  # a side overflows
        (0j, 1 + 0j, complex(1, math.inf), 1j),
        (complex(math.nan, 0), 1 + 0j, 1 + 1j, 1j),
        (0j, 1 + 0j, 1 + 1j, complex(0, math.nan)),
        (complex(math.inf, math.inf),) * 4,
    ], ids=["overflow", "inf", "nan-first", "nan-last", "all-inf"])
    def test_a_diameter_that_is_not_a_finite_float_is_rejected(self, vertices):
        # the overflowing one was accepted with scale inf and a nan least
        # triad height, and prev_generation walked a trapezoid out to a
        # quadrilateral with every vertex at +-inf
        with pytest.raises(PointAtInfinity):
            Quadrilateral(*map(Point, vertices))

    def test_interior_angles_keep_their_orientation_at_any_scale(self):
        # the orientation was read from the signed area in the input's units,
        # which underflowed to 0 below a diameter of about 1e-162: at 1e-170
        # every angle came back as its reflex complement (sum 6 pi, error 4.39
        # rad), and the supplementary_angles invariant read 4.39
        q = random_quadrilateral(CaseSpec(3, "convex-noncyclic"), 0)
        whole = interior_angles(q)
        eps = sys.float_info.epsilon
        for k in range(-300, 301, 10):
            factor = 10.0 ** k
            small = Quadrilateral(*(Point(v * factor) for v in q.vertices()))
            angles = interior_angles(small)
            assert max(abs(a - b) for a, b in zip(angles, whole)) <= 8 * eps, k
            assert sum(angles) == pytest.approx(2 * math.pi, abs=8 * eps), k
        tiny = QuadState(Quadrilateral(*(Point(v * 1e-170) for v in q.vertices())))
        assert INVARIANTS["supplementary_angles"][0](tiny) <= 1e-12


class TestTriadCircles:
    def test_square_all_equal(self):
        sys = triad_circles(SQUARE)
        for c in sys.circles:
            assert abs(c.o) < 1e-12
            assert c.r == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_generic_passes_through_defining_vertices(self):
        a, b, c, d = GENERIC.vertices()
        triples = [(d, a, b), (a, b, c), (b, c, d), (c, d, a)]
        sys = triad_circles(GENERIC)
        for circle, triple in zip(sys.circles, triples):
            for v in triple:
                assert circle.distance_to(v) < 1e-10

    @pytest.mark.parametrize("h", [1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("offset", [(0.123, 0.456), (3.7, -2.1)])
    def test_nearly_flat_triad_leaves_the_others_exact(self, h, offset):
        # B lifted h off AC sends the center of o2 = (A B C) about 1 / h
        # away; the frame of the other three centers must not follow it
        ox, oy = offset
        vs = [Point(ox, oy), Point(1.1 + ox, h + oy), Point(2.0 + ox, oy),
              Point(0.7 + ox, 1.6 + oy)]
        q = Quadrilateral(*vs)
        exact = _exact_next([(Fraction(v.x), Fraction(v.y)) for v in vs])
        for i in (0, 2, 3):
            assert _float_error(triad_circles(q).circles[i].o, exact[i]) <= 1e-14

    @pytest.mark.parametrize("factor", [1e-140, 1e140])
    def test_extreme_scales(self, factor):
        # the lifts |z|^2 / 2 and the crosses of raw coordinates would
        # underflow or overflow; the side table is rescaled by a power of two
        for shape in ("convex-noncyclic", "concave", "trapezoid"):
            for q in generic_quads(20, shape, seed=1):
                big = Quadrilateral(*(Point(v.x * factor, v.y * factor) for v in q.vertices()))
                for o, moved in zip(triad_circles(q).circles, triad_circles(big).circles):
                    assert abs(moved.o - o.o * factor) <= 1e-14 * big.scale()
                    assert abs(moved.r - o.r * factor) <= 1e-14 * big.scale()
                w, moved = analyze(q).w, analyze(big).w
                assert abs(moved - w * factor) <= 1e-14 * big.scale()

    def test_collinear_triple(self):
        # validation happens when the quadrilateral is built
        with pytest.raises(CollinearInput):
            Quadrilateral(Point(0, 0), Point(2, 0), Point(4, 0), Point(1, 3))


class TestGenerations:
    def test_square_degenerates(self):
        with pytest.raises(CyclicDegeneration) as exc:
            next_generation(SQUARE)
        assert abs(exc.value.point) < 1e-12

    def test_supplementary_angles(self):
        a1 = interior_angles(GENERIC)
        a2 = interior_angles(next_generation(GENERIC))
        for x, y in zip(a1, a2):
            assert x + y == pytest.approx(math.pi, abs=1e-9)

    def test_trapezoid_stays_similar(self):
        # noncyclic trapezoid: the generation map is a similarity, so
        # side-length ratios repeat
        q = Quadrilateral(Point(0, 0), Point(6, 0), Point(4, 2), Point(1, 2))
        assert not classify(q).cyclic
        q2 = next_generation(q)
        v1, v2 = q.vertices(), q2.vertices()
        # correspondence may be reversed, so compare sorted side lists
        sides1 = sorted(abs(v1[i] - v1[(i + 1) % 4]) for i in range(4))
        sides2 = sorted(abs(v2[i] - v2[(i + 1) % 4]) for i in range(4))
        ratios = [s2 / s1 for s1, s2 in zip(sides1, sides2)]
        diags = [abs(v2[0] - v2[2]) / max(abs(v1[0] - v1[2]), abs(v1[1] - v1[3])),
                 abs(v2[1] - v2[3]) / min(abs(v1[0] - v1[2]), abs(v1[1] - v1[3]))]
        ratios += [max(diags), min(diags)]
        assert max(ratios) - min(ratios) < 1e-9

    def test_roundtrips(self):
        fwd = prev_generation(next_generation(GENERIC))
        bwd = next_generation(prev_generation(GENERIC))
        assert quad_distance(GENERIC, fwd) < 1e-8
        assert quad_distance(GENERIC, bwd) < 1e-8

    def test_prev_generation_agrees_with_the_isogonal_conjugates(self):
        # the paper's lemma: each vertex of the first generation is the
        # isogonal conjugate of the opposite vertex of the second in the
        # triangle of the other three
        for shape in ("convex-noncyclic", "concave", "trapezoid"):
            for q in generic_quads(300, shape, seed=7):
                prev = prev_generation(q)
                conj = _conjugates_in_triads(q)
                gap = max(abs(p - c) for p, c in zip(prev.vertices(), conj))
                assert gap <= 1e-12 * prev.scale()

    def test_cyclic_input_has_no_prev_generation(self):
        # the same error as next_generation's, carrying the circumcenter
        for step in (prev_generation, next_generation):
            with pytest.raises(CyclicDegeneration, match="cyclic") as exc:
                step(SQUARE)
            assert exc.value.point == Point(0, 0)

    def test_prev_generation_never_divides_by_zero(self):
        # at tol 1e-300 the square is still cyclic (D is 0 from o2), and this
        # concyclic draw is not, but its rotation m rounds to 1 exactly
        with pytest.raises(CyclicDegeneration):
            prev_generation(Quadrilateral(*SQUARE.vertices(), tol=1e-300))
        q = Quadrilateral(Point(-0.7057861057790554, 0.7084249945401673),
                          Point(-0.9273549702257986, 0.3741827884837946),
                          Point(-0.9985987309596124, -0.05292045470185985),
                          Point(0.1777604836048933, -0.984073783040964), tol=1e-300)
        st = QuadState(q)
        assert not st.cyclic
        with pytest.raises(CyclicDegeneration) as exc:
            prev_generation(st)
        assert abs(exc.value.point) < 1e-15

    def test_generation_maps_validate_their_output_at_the_callers_tol(self):
        # B sits 1e-3 off AC: t's least triad height is 4.0e-4 of its
        # diameter, and that of its neighbours prev(t) and next(t) 4.8e-4, so
        # at tol 4.4e-4 both maps take a valid input to an invalid output
        t = Quadrilateral(Point(0, 0), Point(1, 1e-3), Point(2, 0), Point(0.5, 2))
        tol = 4.4e-4
        for step, q in ((next_generation, prev_generation(t)),
                        (prev_generation, next_generation(t))):
            valid = Quadrilateral(*q.vertices(), tol=tol)
            assert quad_distance(step(q), t) < 1e-12
            with pytest.raises(CollinearInput):
                step(valid)

    @pytest.mark.parametrize("k", [2.0 ** -200, 2.0 ** 200])
    def test_prev_generation_scales_exactly(self, k):
        # the conjugation weights are of degree 6 in the coordinates; unscaled,
        # they underflowed to 0 below about 1e-54 and the division raised
        # ZeroDivisionError
        scaled = Quadrilateral(*(Point(v * k) for v in GENERIC.vertices()))
        assert prev_generation(scaled).vertices() == tuple(
            v * k for v in prev_generation(GENERIC).vertices())

    def test_area_ratio_law(self):
        r = similarity_ratio(GENERIC)
        q2 = next_generation(GENERIC)
        assert q2.area() / GENERIC.area() == pytest.approx(abs(r), abs=1e-12)

    def test_area_ratio_from_the_triad_table_is_the_q2_ratio(self):
        # Q2's side table is the triad table times a power of two, so its
        # area ratio, and so the residual, is the Q2-built one bit for bit
        for shape in SHAPE_CLASSES:
            if shape == "cyclic":
                continue
            for q in generic_quads(100, shape, seed=4):
                st, q2 = QuadState(q), next_generation(q)
                a1 = q._area2()
                # O2 - O1, O3 - O1 and O4 - O1 in Q1's frame
                t0, t1, t2 = (v * q._unit for v in st.triads.diffs[:3])
                a2 = (t0.real * t1.imag - t0.imag * t1.real) + (t1.real * t2.imag
                                                                - t1.imag * t2.real)
                built = abs(q2._area2() / a1) * (q._unit / q2._unit) ** 2
                assert abs(a2 / a1) == built
                assert area_ratio_residual(st) == abs(abs(st.r) - built)


class TestSimilarityRatio:
    def test_pi4_parallelogram(self):
        assert similarity_ratio(pi4_parallelogram()) == pytest.approx(-1.0, abs=1e-9)

    def test_orthocentric(self):
        assert similarity_ratio(ortho_quad()) == pytest.approx(1.0, abs=1e-9)

    def test_cyclic(self):
        assert abs(similarity_ratio(SQUARE)) < 1e-9

    def test_range_excludes_zero_one(self):
        for q in generic_quads(10) + generic_quads(10, "concave"):
            r = similarity_ratio(q)
            assert r <= 1e-9 or r >= 1.0 - 1e-9

    @pytest.mark.parametrize("vertex", range(4))
    @pytest.mark.parametrize("tol", [1e-9, 1e-4])
    def test_cot_cut_names_the_vertex_on_either_side(self, vertex, tol):
        # the angle at one vertex is pi - theta, where |cot| = cot theta: a
        # theta just above sqrt(tol) passes the cut cot(sqrt(tol)) and one
        # just below raises, naming that vertex (rounding moves cot theta by
        # about 1e-11 of itself, the step by 1e-6)
        for step, raises in ((1.0 + 1e-6, False), (1.0 - 1e-6, True)):
            theta = math.sqrt(tol) * step
            # V, N, F and P in order, convex, V the nearly straight vertex
            z = [Point(0, 0), Point(math.cos(theta), -math.sin(theta)), Point(0, -1), Point(-1, 0)]
            q = Quadrilateral(*(z[(k - vertex) % 4] for k in range(4)), tol=tol)
            if raises:
                with pytest.raises(IllConditionedAngles, match=f"angle at {'ABCD'[vertex]} "):
                    similarity_ratio(q)
            else:
                assert math.isfinite(similarity_ratio(q))


class TestCutsOnBothSides:
    """Each tolerance cut decides an input at half of it one way and one at
    twice it the other, so that a cut moved ten-fold either way fails.
    similarity_ratio's cot cut is pinned closer, at 1 -+ 1e-6 of it
    (TestSimilarityRatio.test_cot_cut_names_the_vertex_on_either_side)."""

    TOL = 1e-9

    @pytest.mark.parametrize("ratio, inside", [(0.5, True), (2.0, False)])
    def test_trapezoid(self, ratio, inside):
        # CD turned off AB's direction by an angle whose sine is ratio times
        # the cut 1e3 tol; BC and DA are far from parallel
        s = ratio * 1e3 * self.TOL
        q = Quadrilateral(Point(0, 0), Point(4, 0), Point(3, 2),
                          Point(3 - 2 * math.sqrt(1 - s * s), 2 + 2 * s), tol=self.TOL)
        assert classify(q).trapezoid is inside

    @pytest.mark.parametrize("ratio, inside", [(0.5, True), (2.0, False)])
    def test_simson_at_infinity(self, ratio, inside):
        # a parallelogram with D moved ratio times the cut
        # _AT_INFINITY (diameter + |G|) along AB, which moves A + C - B - D by as much
        p = Quadrilateral(Point(1, 1), Point(5, 1), Point(6, 4), Point(2, 4))
        step = ratio * _AT_INFINITY * (p.scale() + abs(p.centroid()))
        q = Quadrilateral(p.a, p.b, p.c, Point(p.d + step))
        assert isinstance(simson_point(q), AtInfinity) is inside

    @pytest.mark.parametrize("ratio, inside", [(0.5, True), (2.0, False)])
    @pytest.mark.parametrize("where", ["circumcenter", "circumcircle"])
    def test_fourth_vertex_underdetermined(self, where, ratio, inside):
        # w ratio times the cut 1e3 tol diameter off the circumcenter (2, 2)
        # of A, B and C, or out from their circumcircle along the diagonal;
        # the diameter of A, B, C and w is 4 sqrt 2, or 4 sqrt 2 + off
        a, b, c = Point(0, 0), Point(4, 0), Point(0, 4)
        off = ratio * 1e3 * self.TOL * 4 * math.sqrt(2)
        w = Point(2 + off, 2) if where == "circumcenter" else Point(4 + off / math.sqrt(2),
                                                                    4 + off / math.sqrt(2))
        if inside:
            with pytest.raises(Underdetermined, match=where):
                reconstruct_fourth_vertex(a, b, c, w, self.TOL)
        else:
            assert is_finite(reconstruct_fourth_vertex(a, b, c, w, self.TOL))


class TestNoncyclicity:
    def test_cyclic_construction(self):
        q = Quadrilateral(*(Point(3 * math.cos(t), 3 * math.sin(t))
                            for t in (0.3, 1.2, 2.8, 5.0)))
        assert noncyclicity_measure(q) < 1e-10

    def test_generic_sign_matches_determinant(self):
        # concyclicity determinant of the lifted points (x, y, x^2+y^2, 1)
        import numpy as np
        vs = GENERIC.vertices()
        m = np.array([[v.x, v.y, v.x ** 2 + v.y ** 2, 1.0] for v in vs])
        assert abs(np.linalg.det(m)) > 1e-6
        assert noncyclicity_measure(GENERIC) > 1e-6

    def test_far_from_origin(self):
        # the orientation comes from edge vectors, so an offset of 1e8
        # diameters neither flips convex angles to reflex ones nor moves
        # the measure by more than the rounding of the offset coordinates
        off = 1e8 + 7e7j
        for q in generic_quads(60, seed=11):
            far = Quadrilateral(*(Point(v + off) for v in q.vertices()))
            assert max(interior_angles(far)) < math.pi
            assert noncyclicity_measure(far) == pytest.approx(
                noncyclicity_measure(q), abs=1e-6)


class TestClassify:
    def test_square(self):
        shape = classify(SQUARE)
        assert shape.convex and shape.cyclic and shape.trapezoid and shape.parallelogram

    def test_dart(self):
        shape = classify(DART)
        assert not shape.convex and not shape.cyclic
        # cross-product signs around the boundary disagree
        vs = DART.vertices()
        signs = set()
        for i in range(4):
            u = vs[(i + 1) % 4] - vs[i]
            v = vs[(i + 2) % 4] - vs[(i + 1) % 4]
            signs.add((u.conjugate() * v).imag > 0)
        assert len(signs) == 2

    def test_orthocentric(self):
        assert classify(ortho_quad()).orthocentric


class TestAngleDecomposition:
    def test_parts_sum_to_interior_angle(self):
        # the diagonal splits each interior angle into the two directed
        # angles whose cotangents the identities pair
        A, B, C, D = GENERIC.vertices()
        whole = interior_angles(GENERIC)
        pairs = [((B, A, C), (C, A, D)), ((C, B, D), (D, B, A)),
                 ((D, C, A), (A, C, B)), ((A, D, B), (B, D, C))]
        for (p1, p2), full in zip(pairs, whole):
            # the directed angle from line (v, x) to line (v, y) is the
            # phase of (y - v) / (x - v), mod pi
            parts = sum(cmath.phase((y - v) / (x - v)) for x, v, y in (p1, p2))
            diff = (parts - full) % math.pi
            assert min(diff, math.pi - diff) < 1e-9

    def test_cotangent_identities(self):
        assert cotangent_identity_residuals(QuadState(GENERIC)) < 1e-9


class TestIsopticPoint:
    def test_cyclic_gives_circumcenter(self):
        q = Quadrilateral(*(Point(2 + math.cos(t), -1 + math.sin(t))
                            for t in (0.2, 1.5, 3.0, 4.8)))
        w = isoptic_point(q)
        assert is_finite(w)
        assert abs(w - Point(2, -1)) < 1e-9

    def test_orthocentric_at_infinity(self):
        assert isinstance(isoptic_point(ortho_quad()), AtInfinity)

    def test_agrees_with_iteration_limit(self):
        w = isoptic_point(GENERIC)
        w2 = isoptic_point_via_limit(GENERIC)
        assert abs(w - w2) < 1e-8 * GENERIC.scale()

    def test_all_methods_agree(self):
        w = isoptic_point(GENERIC)
        for other in (isoptic_point_via_inversion(GENERIC),
                      isoptic_point_via_inv_iso(GENERIC),
                      isoptic_point_via_limit(GENERIC)):
            assert abs(w - other) < 1e-8 * GENERIC.scale()

    def test_inv_iso_route_holds_on_near_cyclic_input(self):
        # near its triad's circumcircle a vertex's conjugate runs far out,
        # and its inversion must still land on W within rounding; the worst
        # of these 1,000 cases reads 1.7e-15 of the diameter
        for q in generic_quads(1000, "near-cyclic", seed=3):
            assert abs(isoptic_point_via_inv_iso(q) - isoptic_point(q)) <= 2.0 ** -48 * q.scale()

    def test_lies_on_all_six_cs(self):
        from isoptic.curves import circle_of_similitude
        w = isoptic_point(GENERIC)
        circles = triad_circles(GENERIC).circles
        for i in range(4):
            for j in range(i + 1, 4):
                cs = circle_of_similitude(circles[i], circles[j])
                assert cs.distance_to(w) < 1e-9 * GENERIC.scale()

    def test_third_generation_is_the_homothety_about_the_limit(self):
        # Q3 = W + r (Q1 - W), with W from the limit route and r from the
        # cotangent formula, within rounding of the larger of Q1 and Q3 (a
        # nearly cyclic trapezoid's Q3 is far smaller than Q1)
        for shape in ("convex-noncyclic", "concave", "trapezoid"):
            for q in generic_quads(50, shape, seed=7):
                w, r = isoptic_point_via_limit(q), similarity_ratio(q)
                image = Quadrilateral(*(Point(w + (v - w) * r) for v in q.vertices()))
                q3 = next_generation(next_generation(q))
                size = max(q.scale(), q3.scale())
                assert quad_distance(q3, image) * q3.scale() <= 1e-14 * size

    def test_limit_converges_fast_when_r_small(self):
        spec = CaseSpec(seed=11, shape_class="convex-noncyclic")
        for i in range(40):
            q = random_quadrilateral(spec, i)
            if abs(similarity_ratio(q)) < 0.12:
                w = isoptic_point_via_limit(q)
                assert is_finite(w)
                assert abs(w - isoptic_point(q)) < 1e-7 * q.scale()
                return
        pytest.fail("no suitably contracting case found")


class TestIsopticQuantity:
    def test_equal_at_w(self):
        w = isoptic_point(GENERIC)
        qty = isoptic_quantity(GENERIC, w)
        assert max(qty) - min(qty) < 1e-8 * max(qty)

    def test_unequal_at_vertex(self):
        qty = isoptic_quantity(GENERIC, Point(0.5, 0.5))
        assert max(qty) - min(qty) > 1e-3 * max(qty)

    def test_cyclic_center_gives_zero(self):
        q = Quadrilateral(*(Point(math.cos(t), math.sin(t))
                            for t in (0.2, 1.5, 3.0, 4.8)))
        qty = isoptic_quantity(q, Point(0, 0))
        assert max(abs(v) for v in qty) < 1e-12


class TestIsopticSpread:
    def test_no_spread_reported_on_cyclic_input(self):
        # every d_i / R_i is rounding noise at the common center
        for q in generic_quads(100, "cyclic", seed=21):
            assert "isoptic_spread" not in analyze(q).residuals


class TestIsodynamic:
    def test_residual_small_at_w(self):
        w = isoptic_point(GENERIC)
        assert isodynamic_ratios(GENERIC, w) < 1e-8

    def test_diagonal_ratio_matches_sines(self):
        # |WA| : |WC| equals sin(angle at C) : sin(angle at A)
        w = isoptic_point(GENERIC)
        a, _, c, _ = GENERIC.vertices()
        alpha, _, gamma, _ = interior_angles(GENERIC)
        assert abs(w - a) / abs(w - c) == pytest.approx(
            math.sin(gamma) / math.sin(alpha), abs=1e-8)

    def test_large_at_centroid(self):
        assert isodynamic_ratios(GENERIC, GENERIC.centroid()) > 1e-3


class TestAngleSums:
    def test_small_at_w(self):
        w = isoptic_point(GENERIC)
        assert angle_sums_at_point(GENERIC, w) < 1e-9

    def test_cyclic_center(self):
        q = Quadrilateral(*(Point(math.cos(t), math.sin(t))
                            for t in (0.1, 1.0, 2.5, 4.0)))
        assert angle_sums_at_point(q, Point(0, 0)) < 1e-9

    def test_nonzero_elsewhere(self):
        assert angle_sums_at_point(GENERIC, Point(2, 1)) > 1e-3

    def test_matches_atan2_reference(self):
        # the reference takes each directed angle as an atan2 difference
        # folded into [0, pi) and each residual as a distance on that circle,
        # so it pins the fold of the one-phase-per-side form
        def angle(x, vertex, y):
            return (math.atan2(y.y - vertex.y, y.x - vertex.x)
                    - math.atan2(x.y - vertex.y, x.x - vertex.x)) % math.pi

        rng = random.Random(11)
        for shape in SHAPE_CLASSES:
            for q in generic_quads(50, shape, seed=5):
                A, B, C, D = q.vertices()
                g, size = q.centroid(), q.scale()
                w = Point(g.x + rng.uniform(-size, size), g.y + rng.uniform(-size, size))
                want = 0.0
                for x, y, u, v in ((A, B, C, D), (B, C, A, D), (C, D, A, B), (D, A, B, C)):
                    d = (angle(x, w, y) - angle(x, u, y) - angle(x, v, y)) % math.pi
                    want = max(want, min(d, math.pi - d))
                assert angle_sums_at_point(q, w) == pytest.approx(want, abs=1e-12)

    def test_w_at_a_vertex_raises(self):
        for v in GENERIC.vertices():
            with pytest.raises(DegenerateRay):
                angle_sums_at_point(GENERIC, v)


class TestPedal:
    def test_square_center_feet_are_midpoints(self):
        feet = pedal_quadrilateral(SQUARE, Point(0, 0))
        expected = [Point(0, 1), Point(-1, 0), Point(0, -1), Point(1, 0)]
        for f, e in zip(feet, expected):
            assert abs(f - e) < 1e-12

    def test_pedal_of_w_is_parallelogram(self):
        w = isoptic_point(GENERIC)
        feet = pedal_quadrilateral(GENERIC, w)
        assert parallelogram_residual(feet, GENERIC.scale()) < 1e-9

    def test_pedal_of_s_is_collinear(self):
        s = simson_point(GENERIC)
        feet = pedal_quadrilateral(GENERIC, s)
        assert collinearity_residual(feet) < 1e-9 * GENERIC.scale()


class TestSimson:
    def test_trapezoid_side_intersection(self):
        s = simson_point(TRAPEZOID)
        assert abs(s - Point(2, 4)) < 1e-9

    def test_parallelogram_at_infinity(self):
        q = Quadrilateral(Point(0, 0), Point(3, 0), Point(4, 2), Point(1, 2))
        assert isinstance(simson_point(q), AtInfinity)

    def test_cyclic_branch(self):
        q = Quadrilateral(*(Point(2 * math.cos(t), 2 * math.sin(t))
                            for t in (0.3, 1.4, 2.9, 4.9)))
        s = simson_point(q)
        assert is_finite(s)
        a, b, c, d = q.vertices()
        o = Point(0, 0)
        for circle in (circumcircle(b, o, d), circumcircle(a, o, c)):
            assert circle.distance_to(s) < 1e-9
        assert collinearity_residual(pedal_quadrilateral(q, s)) < 1e-8 * q.scale()

    def test_simson_line_through_feet(self):
        line = simson_line(GENERIC)
        s = simson_point(GENERIC)
        for f in pedal_quadrilateral(GENERIC, s):
            assert line.distance_to(f) < 1e-8 * GENERIC.scale()

    def test_simson_line_parallelogram_errors(self):
        q = Quadrilateral(Point(0, 0), Point(3, 0), Point(4, 2), Point(1, 2))
        with pytest.raises(PointAtInfinity):
            simson_line(q)


class TestVarignon:
    def test_square(self):
        mids = varignon(SQUARE)
        expected = [Point(0, 1), Point(-1, 0), Point(0, -1), Point(1, 0)]
        for m, e in zip(mids, expected):
            assert abs(m - e) < 1e-14

    def test_always_parallelogram(self):
        for q in (GENERIC, TRAPEZOID, DART):
            assert parallelogram_residual(varignon(q), q.scale()) < 1e-14

    def test_cyclic_equals_pedal_of_circumcenter(self):
        q = Quadrilateral(*(Point(5 * math.cos(t), 5 * math.sin(t))
                            for t in (0.5, 1.6, 3.1, 4.7)))
        mids = varignon(q)
        feet = pedal_quadrilateral(q, Point(0, 0))
        for m, f in zip(mids, feet):
            assert abs(m - f) < 1e-9


class TestIsogonalConjugateQuad:
    def test_square_center_fixed(self):
        pts = isogonal_conjugate_quad(SQUARE, Point(0, 0))
        for p in pts:
            assert is_finite(p) and abs(p) < 1e-10

    def test_conjugate_of_w_is_parallelogram(self):
        w = isoptic_point(GENERIC)
        pts = isogonal_conjugate_quad(GENERIC, w)
        assert all(is_finite(p) for p in pts)
        assert parallelogram_residual(pts, GENERIC.scale()) < 1e-8

    def test_conjugate_of_s_escapes_to_infinity(self):
        s = simson_point(GENERIC)
        pts = isogonal_conjugate_quad(GENERIC, s)
        assert all(isinstance(p, AtInfinity) for p in pts)

    @staticmethod
    def _reference(q, p):
        """The same four meets in 60-digit mpmath, None for a pair of lines
        parallel there: the line from each vertex to p mirrored in the
        bisector of the rays to its neighbours."""
        import mpmath as mp  # a test extra, as bench/tests' oracle needs it too

        def unit(w):
            return w / abs(w)

        with mp.workdps(60):
            z = [mp.mpc(v.real, v.imag) for v in q.vertices()]
            pz = mp.mpc(p.real, p.imag)
            lines = [(v, unit(z[i - 3] - v) * unit(z[i - 1] - v) * mp.conj(unit(pz - v)))
                     for i, v in enumerate(z)]
            meets = []
            for i in range(4):
                (v1, u1), (v2, u2) = lines[i], lines[i - 3]
                det = mp.im(mp.conj(u1) * u2)
                meets.append(v1 + u1 * mp.im(mp.conj(v2 - v1) * u2) / det
                             if abs(det) > mp.mpf(10) ** -50 else None)
            return [None if m is None else complex(m) for m in meets]

    @pytest.mark.parametrize("vertices", [((-.1, -.1), (.1, -.1), (.13, .1), (-.1, .1)),
                                          ((0, 0), (1, .1), (1.3, .9), (-.2, 1.1))])
    def test_far_point_keeps_the_precision_of_q(self, vertices):
        # the conjugate of a far p has vertices near q: solved relative to p,
        # their error grew as eps |p| (0.27 to 3.39 diameters from |p| = 1e15).
        # The meets of nearly parallel lines, far off near p, are left out:
        # their error is set by how nearly parallel the lines are
        q = Quadrilateral(*(Point(*v) for v in vertices))
        g, scale, near = q.centroid(), q.scale(), 0
        bound = 16 * sys.float_info.epsilon * scale
        for k in (0, 5, 10, 15, 17, 20, 50, 100, 150, 200, 250):
            p = Point(10.0 ** k, 0.7 * 10.0 ** k)
            for got, ref in zip(isogonal_conjugate_quad(q, p), self._reference(q, p)):
                if ref is not None and abs(ref - g) < 10.0 * scale:
                    near += 1
                    assert is_finite(got) and abs(got - ref) <= bound, (k, got, ref)
        assert near >= 2 * 11  # at least two vertices near q at each |p|


class TestReconstructions:
    def test_pedal_w_square(self):
        feet = [Point(0, 1), Point(-1, 0), Point(0, -1), Point(1, 0)]
        q = reconstruct_from_pedal_w(Point(0, 0), feet)
        assert quad_distance(q, SQUARE) < 1e-12

    def test_pedal_w_roundtrip(self):
        w = isoptic_point(GENERIC)
        q = reconstruct_from_pedal_w(w, pedal_quadrilateral(GENERIC, w))
        assert quad_distance(q, GENERIC) < 1e-8

    def test_simson_roundtrip(self):
        # generic quad; a trapezoid's S sits on two of the side lines,
        # which collapses two feet onto S and starves the reconstruction
        s = simson_point(GENERIC)
        q = reconstruct_from_simson(s, pedal_quadrilateral(GENERIC, s))
        assert quad_distance(q, GENERIC) < 1e-8 * GENERIC.scale()

    def test_simson_rejects_noncollinear_feet(self):
        with pytest.raises(NonCollinearFeet):
            reconstruct_from_simson(Point(0, 0), [Point(1, 0), Point(2, 0),
                                                  Point(3, 1), Point(4, 0)])

    def test_fourth_vertex_roundtrip(self):
        a, b, c, d = GENERIC.vertices()
        w = isoptic_point(GENERIC)
        rec = reconstruct_fourth_vertex(a, b, c, w)
        assert abs(rec - d) < 1e-8 * GENERIC.scale()

    def test_fourth_vertex_rejects_w_at_infinity(self):
        q = random_quadrilateral(CaseSpec(9, "orthocentric"), 0)
        w = isoptic_point(q)
        assert isinstance(w, AtInfinity)
        with pytest.raises(PointAtInfinity):
            reconstruct_fourth_vertex(q.a, q.b, q.c, w)

    def test_fourth_vertex_underdetermined_at_circumcenter(self):
        a, b, c = Point(0, 0), Point(4, 0), Point(0, 4)
        with pytest.raises(Underdetermined):
            reconstruct_fourth_vertex(a, b, c, Point(2, 2))


# W of an orthocentric case and S of a parallelogram, both at infinity
W_AT_INFINITY = isoptic_point(random_quadrilateral(CaseSpec(3, "orthocentric"), 0))
PARALLELOGRAM = random_quadrilateral(CaseSpec(3, "parallelogram"), 0)
S_AT_INFINITY = simson_point(PARALLELOGRAM)
COLLINEAR_FEET = [Point(k, 0) for k in range(4)]
AT_INFINITY_CALLS = {
    "isogonal_conjugate_quad": lambda: isogonal_conjugate_quad(PARALLELOGRAM, S_AT_INFINITY),
    "pedal_quadrilateral": lambda: pedal_quadrilateral(GENERIC, W_AT_INFINITY),
    "isoptic_quantity": lambda: isoptic_quantity(GENERIC, W_AT_INFINITY),
    "isodynamic_ratios": lambda: isodynamic_ratios(GENERIC, W_AT_INFINITY),
    "angle_sums_at_point": lambda: angle_sums_at_point(GENERIC, W_AT_INFINITY),
    "reconstruct_from_pedal_w": lambda: reconstruct_from_pedal_w(W_AT_INFINITY,
                                                                 COLLINEAR_FEET),
    "reconstruct_from_pedal_w feet": lambda: reconstruct_from_pedal_w(
        Point(0, 1), COLLINEAR_FEET[:3] + [W_AT_INFINITY]),
    "reconstruct_from_simson": lambda: reconstruct_from_simson(S_AT_INFINITY, COLLINEAR_FEET),
}


@pytest.mark.parametrize("call", list(AT_INFINITY_CALLS))
def test_a_point_at_infinity_raises_point_at_infinity(call):
    # each raised TypeError on the package's own points at infinity, where a
    # GeometryError is the documented failure
    assert isinstance(W_AT_INFINITY, AtInfinity) and isinstance(S_AT_INFINITY, AtInfinity)
    with pytest.raises(PointAtInfinity):
        AT_INFINITY_CALLS[call]()


def _state_at(q, p):
    """A fresh state of q whose W reads p: the verify checks read st.w."""
    st = QuadState(q)
    st.w = p
    return st


def test_cross_generation_cs_reads_the_distance():
    # S of CaseSpec(17, "orthocentric") case 0 read as W: its twelve triad
    # radii agree to rounding, so each circle of similitude is a bisector or
    # nearly one.  The residual is the largest distance of S from those of
    # the pairs not skipped, at every scale, where a defect over its gradient
    # reads 9.41 (o1 and o2 of Q1) and 1.8e15 (o2 and o4 of Q2, on whose line
    # S lies, outside them)
    q0 = random_quadrilateral(CaseSpec(17, "orthocentric"), 0)

    def replay(scale):
        q = Quadrilateral(*(Point(v * scale) for v in q0.vertices()))
        return cross_generation_cs_residual(_state_at(q, QuadState(q).s))

    st = _state_at(q0, QuadState(q0).s)
    circles = [c for g in (st, st.next, st.next.next) for c in g.triads.circles]
    dist = max(circle_of_similitude(c1, c2, st.tol).distance_to(st.w)
               for i, c1 in enumerate(circles) for c2 in circles[i + 1:]
               if abs(c1.o - c2.o) >= 1e3 * st.tol * st.scale) / st.scale
    assert dist == pytest.approx(0.4993969992498998, abs=1e-15)
    res = replay(1.0)
    assert abs(res - dist) <= 1e-12
    assert replay(2.0 ** 10) == res == replay(2.0 ** -600)
    assert replay(1e300) == pytest.approx(res, rel=1e-12)


@pytest.mark.parametrize("check", [cross_generation_cs_residual, quadrangle_duality_residual],
                         ids=lambda fn: fn.__name__)
def test_a_check_at_w_at_infinity_is_a_skip(check):
    # like every invariant that reads W, each returns None, a skip, where W
    # is not finite
    assert check(_state_at(GENERIC, W_AT_INFINITY)) is None


class TestDualityAndTransport:
    def test_duality_residual_small_at_w(self):
        assert quadrangle_duality_residual(QuadState(GENERIC)) < 1e-7

    def test_duality_large_off_w(self):
        assert quadrangle_duality_residual(_state_at(GENERIC, Point(2, 1))) > 1e-4

    @pytest.mark.parametrize("shape", ["convex-noncyclic", "concave", "trapezoid"])
    def test_duality_rises_off_w(self, shape):
        # W moved by 1e-6 diameters leaves the image's circles of similitude
        # by a first-order amount (at least 3.5e-7 over these 600 cases)
        for q in generic_quads(200, shape, seed=3):
            w = isoptic_point(q)
            moved = Point(w.x + 1e-6 * q.scale(), w.y)
            assert quadrangle_duality_residual(_state_at(q, moved)) > 1e-8

    @pytest.mark.parametrize("shape", ["convex-noncyclic", "concave", "trapezoid"])
    def test_duality_holds_at_w_on_a_thousand_cases(self, shape):
        for q in generic_quads(1000, shape, seed=7):
            st = QuadState(q)
            assert is_finite(st.w)
            assert quadrangle_duality_residual(st) <= 1e-12

class TestPeriodicity:
    def test_pi4_parallelogram_period_two(self):
        q = pi4_parallelogram()
        q3 = next_generation(next_generation(q))
        assert quad_distance(q, q3) < 1e-8 * q.scale()

    def test_orthocentric_period_two(self):
        q = ortho_quad()
        q3 = next_generation(next_generation(q))
        assert quad_distance(q, q3) < 1e-8 * q.scale()


# ---------------------------------------------------------------------------
# the closed forms of W and S in exact arithmetic: float vertices are exact
# rationals, so every construction below is exact and residuals are zero


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1]


def _cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def _exact_circumcenter(p, q, r):
    u, v = _sub(q, p), _sub(r, p)
    ku, kv = _dot(u, u) / 2, _dot(v, v) / 2
    det = _cross(u, v)
    return (p[0] + (ku * v[1] - u[1] * kv) / det, p[1] + (u[0] * kv - ku * v[0]) / det)


def _exact_next(vs):
    a, b, c, d = vs
    return [_exact_circumcenter(d, a, b), _exact_circumcenter(a, b, c),
            _exact_circumcenter(b, c, d), _exact_circumcenter(c, d, a)]


def _exact_pedal(vs, p):
    feet = []
    for i in range(4):
        u, v = vs[i], vs[(i + 1) % 4]
        e = _sub(v, u)
        t = _dot(_sub(p, u), e) / _dot(e, e)
        feet.append((u[0] + t * e[0], u[1] + t * e[1]))
    return feet


def _float_error(p, exact):
    return math.hypot(float(Fraction(p.real) - exact[0]), float(Fraction(p.imag) - exact[1]))


EXACT_CLASSES = ("convex-noncyclic", "concave", "trapezoid", "near-cyclic", "cyclic")


@pytest.mark.parametrize("shape", EXACT_CLASSES)
class TestClosedFormsExact:
    def test_homothety_center_is_w(self, shape):
        for q in generic_quads(8, shape, seed=5):
            q1 = [(Fraction(v.x), Fraction(v.y)) for v in q.vertices()]
            q3 = _exact_next(_exact_next(q1))
            # Q3 - A3 = r (Q1 - A1) for one real r
            e1, e3 = _sub(q1[1], q1[0]), _sub(q3[1], q3[0])
            r = _dot(e3, e1) / _dot(e1, e1)
            for v1, v3 in zip(q1, q3):
                d1, d3 = _sub(v1, q1[0]), _sub(v3, q3[0])
                assert d3 == (r * d1[0], r * d1[1])
            # the real ratio of the homothety is the cotangent formula's r
            assert abs(Fraction(similarity_ratio(q)) - r) <= 1e-12 * max(1, abs(r))
            w = tuple((z3 - r * z1) / (1 - r) for z1, z3 in zip(q1[0], q3[0]))
            f1, f2, f3, f4 = _exact_pedal(q1, w)
            assert _sub(f1, f2) == _sub(f4, f3)
            assert _float_error(isoptic_point(q), w) <= 1e-13 * q.scale()

    def test_miquel_point_is_s(self, shape):
        for q in generic_quads(8, shape, seed=5):
            vs = [(Fraction(v.x), Fraction(v.y)) for v in q.vertices()]
            (ax, ay), (bx, by), (cx, cy), (dx, dy) = vs
            # S = (AC - BD) / (A + C - B - D) in complex numbers
            nx, ny = ax * cx - ay * cy - bx * dx + by * dy, ax * cy + ay * cx - bx * dy - by * dx
            mx, my = ax + cx - bx - dx, ay + cy - by - dy
            den = mx * mx + my * my
            s = ((nx * mx + ny * my) / den, (ny * mx - nx * my) / den)
            f1, f2, f3, f4 = _exact_pedal(vs, s)
            assert _cross(_sub(f2, f1), _sub(f3, f1)) == 0
            assert _cross(_sub(f2, f1), _sub(f4, f1)) == 0
            assert _float_error(simson_point(q), s) <= 1e-13 * q.scale()


# the loop forms of the report's parts and residuals, which quad writes as
# straight-line code over the four vertices: the flat forms must keep each
# sum's order and start value (sum starts from int 0, max keeps its first
# item), and read offsets from far points in an exact power of two

def _loop_cross(u, v):
    return u.real * v.imag - u.imag * v.real


def _loop_isoptic_point(st, _):
    q = st.q
    g = centroid_of(q._z)
    z = [v - g for v in q._z]
    num = den = 0j
    for k, sign in enumerate((1.0, -1.0, 1.0, -1.0)):
        e = z[(k + 1) % 4] - z[k]
        u2 = e / e.conjugate()
        den += sign * u2
        num += sign * (u2 * z[k].conjugate() - z[k])
    scale, unit, ab = q._scale, q._unit, q._diffs[0]
    if abs(den) * (scale * unit) < _AT_INFINITY * (scale * unit + abs(g * unit)):
        return AtInfinity.along(ab.real, ab.imag)
    return finite_point(g + (num / den).conjugate(), "W")


def _loop_simson_point(st, _):
    q = st.q
    g, unit = centroid_of(q._z), q._unit
    a, b, c, d = ((v - g) * unit for v in q._z)
    den = a + c - b - d
    if abs(den) < _AT_INFINITY * (q.scale() * unit + abs(g * unit)):
        ad = q._diffs[2]
        return AtInfinity.along(ad.real, ad.imag)
    return finite_point(g + (a * c - b * d) / den / unit, "S")


def _loop_trapezoid(st, _):
    def parallel(u, v):
        return (abs(_loop_cross(u, v)) / (math.hypot(u.real, u.imag) * math.hypot(v.real, v.imag))
                < 1e3 * st.tol)

    ab, bc, cd, da = st.q._sides()
    return parallel(ab, cd) or parallel(bc, da)


def _loop_angle_sums(st, w):
    a, b, c, d = st.q.vertices()
    worst = 0.0
    for x, y, u, v in ((a, b, c, d), (b, c, a, d), (c, d, a, b), (d, a, b, c)):
        if w == x or w == y:
            raise DegenerateRay("w coincides with a vertex")
        t = (y - w) / (x - w) * (x - u) / (y - u) * (x - v) / (y - v)
        worst = max(worst, math.atan2(abs(t.imag), abs(t.real)))
    return worst


def _loop_isoptic_quantity(st, w):
    return [abs(w - o.o) / o.r for o in st.triads.circles]


def _loop_isodynamic(st, w):
    radii = [o.r for o in st.triads.circles]
    unit = unit_near(max(radii))
    prods = [abs(w - v) * (radii[k - 2] * unit) for k, v in enumerate(st.q.vertices())]
    mean = sum(prods) / 4.0
    if mean == 0.0:
        return 0.0
    return max(abs(p - mean) for p in prods) / mean


def _loop_pedal(st, p):
    feet = []
    for v, e in zip(st.q.vertices(), st.q._sides()):
        d = p - v
        feet.append(Point(v + 0.5 * (d + e / e.conjugate() * d.conjugate())))
    return feet


def _loop_tls(st, p):
    """The Simson-line fields and the collinearity residual of the pedal feet of p."""
    z = pedal_quadrilateral(st.q, p)
    g = centroid_of(z)
    rel = [v - g for v in z]
    unit = unit_near(max(map(abs, rel)))
    scatter = sum((v * unit) * (v * unit) for v in rel)
    u = cmath.rect(1.0, 0.5 * cmath.phase(scatter))
    return Line(g, u), max(abs(_loop_cross(u, v)) for v in rel)


def _loop_varignon(st, _):
    z = st.q.vertices()
    return [Point(0.5 * z[i] + 0.5 * z[(i + 1) % 4]) for i in range(4)]


def _loop_area_ratio(st, _):
    if st.cyclic:
        raise CyclicDegeneration("Q2 is one point", point=Point(st.triads.o2.o))
    ab, ac, ad = st.q._diffs[:3]
    a1 = _loop_cross(ab, ac) + _loop_cross(ac, ad)
    if a1 == 0.0:
        return None
    unit = st.q._unit
    t0, t1, t2 = (v * unit for v in st.triads.diffs[:3])
    return abs(abs(st.r) - abs((_loop_cross(t0, t1) + _loop_cross(t1, t2)) / a1))


def _tls(st, p):
    feet = pedal_quadrilateral(st.q, p)
    g, u, _ = _tls_axis(feet)
    return Line(g, u), collinearity_residual(feet)


# name -> (flat form, loop form), each of a QuadState and a finite point (W or S)
_FLAT_AND_LOOP = {
    "isoptic_point": (lambda st, _: isoptic_point(st.q), _loop_isoptic_point),
    "simson_point": (lambda st, _: simson_point(st.q), _loop_simson_point),
    "classify.trapezoid": (lambda st, _: classify(st).trapezoid, _loop_trapezoid),
    "angle_sums_at_point": (lambda st, p: angle_sums_at_point(st.q, p), _loop_angle_sums),
    "isoptic_quantity": (isoptic_quantity, _loop_isoptic_quantity),
    "isodynamic_ratios": (isodynamic_ratios, _loop_isodynamic),
    "pedal_quadrilateral": (lambda st, p: pedal_quadrilateral(st.q, p), _loop_pedal),
    "tls_axis_and_collinearity_residual": (_tls, _loop_tls),
    "varignon": (lambda st, _: varignon(st.q), _loop_varignon),
    "area_ratio_residual": (lambda st, _: area_ratio_residual(st), _loop_area_ratio),
}


def _loop_six_cs(st):
    """six_cs_residual as curves.max_cs_distance's loop over the pairs reads
    it, each pair in the closed form."""
    w = st.w
    if not is_finite(w) or st.cyclic:
        return None
    return max_cs_distance(w, st.triads.circles, st.tol, 0.0, st.q._offset_unit(w)) / st.scale


# near-cyclic, noncyclic at tol 1e-9 (D lies 8.5e-9 diameters off o2), with
# two triad centers inside the concentric cut of the circles of similitude
NEAR_CYCLIC_CONCENTRIC = Quadrilateral(*(Point(x, y) for x, y in (
    (0.41348789198651636, 0.0862118324355335), (0.38305962130541477, 0.17104623209910355),
    (-0.5136510949453672, 0.31768669074549866), (-0.28289641834656376, -0.5749447552801357))))


def _frame_of(q):
    """A quadrilateral with the frame its constructions read."""
    return (q, q._z, q._anchor, q._neg_anchor, q._rel, q._diffs, q._unit, q._scale, q._height,
            q.tol)


def _loop_next_generation(st):
    if st.cyclic:
        raise cyclic_collapse(st)
    triads = st.triads
    q = object.__new__(Quadrilateral)
    z = tuple(map(Point, (o.o for o in triads.circles)))
    q._frame(*z, triads.o1.o, (0j, *triads.diffs[:3]), triads.diffs, st.tol)
    return _frame_of(q)


def _loop_prev_generation(st):
    if st.cyclic:
        raise cyclic_collapse(st)
    ab, ac, ad, bc, _, cd = st.q._diffs
    g = (ab + ac + ad) / 4.0
    mirrors = [(p - g, e / e.conjugate()) for p, e in ((0j, ab), (ab, bc), (ac, cd), (ad, -ad))]
    m, b = 1.0 + 0j, 0j
    for p, u2 in mirrors:
        m, b = u2 * m.conjugate(), p + u2 * (b - p).conjugate()
    if 1.0 - m == 0.0:
        raise cyclic_collapse(st)
    out = [b / (1.0 - m)]
    for p, u2 in mirrors[:3]:
        out.append(p + u2 * (out[-1] - p).conjugate())
    za, unit, back = st.q._rel[0], st.q._unit, st.q._neg_anchor
    diffs = tuple((out[j] - out[i]) / unit for i, j in itertools.combinations(range(4), 2))
    return _frame_of(Quadrilateral._from_table(*(za + (v + g) / unit - back for v in out), diffs,
                                               st.tol))


def _loop_via_limit(st):
    if not is_finite(st.w):
        return st.w
    try:
        q3 = st.next.next.q
    except CyclicDegeneration as exc:
        return exc.point
    q1, unit = st.q, st.q._unit
    g1, g3 = centroid_of(q1._rel), centroid_of(q3._rel)
    u = [(z - g1) * unit for z in q1._rel]
    v = [(z - g3) * unit for z in q3._rel]
    k = sum(x.conjugate() * y for x, y in zip(u, v)) / sum((x.conjugate() * x).real for x in u)
    if abs(1.0 - k) <= 16 * sys.float_info.epsilon:
        raise PointAtInfinity("k is 1 within its rounding")
    shift = g3 - (q1._anchor - q3._anchor) - g1
    return finite_point(g1 + shift * unit / (1.0 - k) / unit - q1._neg_anchor, "W")


def _loop_mean_image(images):
    for img in images:
        if not is_finite(img):
            return img
    return Point(centroid_of(images))


def _loop_via_inversion(st):
    return _loop_mean_image([invert_point(mirror, v, st.tol)
                             for mirror, v in zip(st.next.triads.circles, st.q.vertices())])


def _loop_via_inv_iso(st):
    return _loop_mean_image([invert_point(mirror, p, st.tol) for mirror, p
                             in zip(st.triads.circles, _conjugates_in_triads(st.q))])


def _loop_interior_angles(st):
    orient = 1.0 if st.q._area2() > 0.0 else -1.0
    return tuple([math.atan2(orient * t.imag, t.real) % (2.0 * math.pi)
                  for t in st.side_shape[2]])


def _loop_cot(u, w):
    t = u.conjugate() * w
    return t.real / t.imag


def _loop_cotangent(st):
    ab, ac, ad, bc, bd, cd = st.q._diffs
    lhs = 4.0 * st.r
    r1 = (_loop_cot(ab, ac) - _loop_cot(bd, cd)) * (_loop_cot(bd, -ab) - _loop_cot(cd, -ac))
    r2 = (_loop_cot(ac, ad) - _loop_cot(bc, bd)) * (_loop_cot(ad, bd) - _loop_cot(ac, bc))
    scale = max(1.0, abs(lhs))
    return max(abs(lhs - r1) / scale, abs(lhs - r2) / scale)


def _loop_cross_generation(st):
    w = st.w
    if not is_finite(w):
        return None
    tol, scale, unit = st.tol, st.scale, st.q._offset_unit(w)
    circles = [c for g in (st, st.next, st.next.next) for c in g.triads.circles]
    res = max_cs_distance(w, circles, tol, 1e3 * tol * scale, unit) / scale
    if res == math.inf and abs(w * unit - st.q.a * unit) / unit / scale == math.inf:
        raise PointAtInfinity("w is so far that its distance is not a finite float")
    return res


def _loop_duality(st):
    w = st.w
    if not is_finite(w):
        return None
    tol, mirror = st.tol, Circle(w, st.scale)
    images = [invert_point(mirror, v, tol) for v in st.q.vertices()]
    if not all(is_finite(p) for p in images):
        raise DegenerateConjugate("a vertex maps to infinity under the duality mirror")
    img = QuadState(Quadrilateral(*images, tol=tol))
    return max_cs_distance(w, triad_circles(img).circles, tol, 0.0,
                           img.q._offset_unit(w)) / img.scale


def _loop_feet_circles(st):
    q, w, tol = st.q, st.w, st.tol
    if not is_finite(w):
        return None
    z, s = q._z, tuple(side / q._unit for side in q._sides())
    feet = []
    for k in range(4):
        f = line_meet(z[k] + 0.5 * s[k], 1j * s[k], z[k - 2], s[k - 2], tol)
        if f is None:
            return None
        feet.append(f)
    A, B, C, D = z
    fa, fb, fc, fd = feet
    a2, b2, c2, d2 = (o.o for o in st.triads.circles)
    triples = [(A, fb, b2), (A, fc, d2), (B, fc, c2), (B, fd, a2),
               (C, fd, d2), (C, fa, b2), (D, fa, a2), (D, fb, c2)]
    worst = 0.0
    for p1, p2, p3 in triples:
        o, radius = circumscribe(p1, p2, p3, tol)
        worst = max(worst, abs(abs(w - o) - radius) / st.scale)
    return worst


def _loop_spiral(st):
    q, triads, w = st.q, st.triads, st.w
    if not is_finite(w):
        return None
    cases = [(triads.o1, triads.o4, q.b, q.c), (triads.o1, triads.o2, q.d, q.c),
             (triads.o4, triads.o2, q.d, q.b)]
    worst, unit = 0.0, q._offset_unit(w)
    wu, up = w * unit, q._unit / unit
    for src, dst, point, expected in cases:
        k = (dst.o * unit - wu) * up * ((src.o * unit - wu) * up).conjugate()
        img = wu + (point * unit - wu) * cmath.rect(dst.r / src.r, cmath.phase(k))
        worst = max(worst, abs(img - expected * unit) / (st.scale * unit))
    return worst


def _loop_supplementary(st):
    a1, a2 = interior_angles(st), interior_angles(st.next)
    concave = st.shape.concave
    worst = 0.0
    for x, y in zip(a1, a2):
        if concave:
            d = y - x
            res = min(abs(d), abs(d - math.pi), abs(d + math.pi))
        else:
            res = abs(x + y - math.pi)
        worst = max(worst, res)
    return worst


def _loop_w_agreement(st):
    w = st.w
    if not is_finite(w):
        return None
    candidates = [w, isoptic_point_via_inversion(st), isoptic_point_via_inv_iso(st),
                  isoptic_point_via_limit(st)]
    if not all(is_finite(p) for p in candidates):
        return None
    return max(abs(p - q) for p, q in itertools.combinations(candidates, 2)) / st.scale


def _loop_permutation(st):
    w = st.w
    if not is_finite(w):
        return None
    worst = 0.0
    q = st.q
    a, b, c, d = q._rel
    for alt in [_isoptic_point(q, z, q._diffs[1])
                for z in ((a, c, b, d), (a, c, d, b))]:
        if not is_finite(alt):
            return None
        worst = max(worst, abs(alt - w) / st.scale)
    return worst


def _loop_q2_construction(st):
    a, b, c, d = st.q.vertices()
    return max(abs(circumscribe(*t, st.tol, with_radius=False) - v) for t, v
               in zip(((d, a, b), (a, b, c), (b, c, d), (c, d, a)), st.next.q.vertices())) / st.scale


# name -> (flat form, loop form) of the verify suite's constructions and
# residuals, each of a QuadState
_VERIFY_FLAT_AND_LOOP = {
    "next_generation": (lambda st: _frame_of(next_generation(st)), _loop_next_generation),
    "prev_generation": (lambda st: _frame_of(prev_generation(st)), _loop_prev_generation),
    "isoptic_point_via_limit": (isoptic_point_via_limit, _loop_via_limit),
    "isoptic_point_via_inversion": (isoptic_point_via_inversion, _loop_via_inversion),
    "isoptic_point_via_inv_iso": (isoptic_point_via_inv_iso, _loop_via_inv_iso),
    "interior_angles": (interior_angles, _loop_interior_angles),
    "cotangent_identity_residuals": (cotangent_identity_residuals, _loop_cotangent),
    "cross_generation_cs": (INVARIANTS["cross_generation_cs"][0], _loop_cross_generation),
    "quadrangle_duality": (INVARIANTS["quadrangle_duality"][0], _loop_duality),
    "feet_circles": (feet_circles_residual, _loop_feet_circles),
    "spiral_transport": (spiral_transport_residual, _loop_spiral),
    "supplementary_angles": (INVARIANTS["supplementary_angles"][0], _loop_supplementary),
    "w_agreement": (INVARIANTS["w_agreement"][0], _loop_w_agreement),
    "permutation_invariance": (INVARIANTS["permutation_invariance"][0], _loop_permutation),
    "q2_construction": (INVARIANTS["q2_construction"][0], _loop_q2_construction),
}


class TestOnePassFormsBitForBit:
    """The hot path's one-pass forms give what the slow forms that the
    package keeps give, bit for bit: compared by repr, since AtInfinity
    equality is per class and a repr shows every bit of a float."""

    POOL = [q for shape in SHAPE_CLASSES for q in generic_quads(20, shape, seed=13)]

    @staticmethod
    def _outcome(fn, *args):
        try:
            return repr(fn(*args))
        except GeometryError as exc:
            return type(exc).__name__

    def test_conjugates_in_triads_are_isogonal_conjugates(self):
        for q0 in self.POOL:
            for scale in (1e-300, 1.0, 1e300):
                q = Quadrilateral(*(Point(v * scale) for v in q0.vertices()))
                a, b, c, d = q.vertices()
                triads = (((d, a, b), c), ((a, b, c), d), ((b, c, d), a), ((c, d, a), b))
                slow = [self._outcome(isogonal_conjugate_triangle, *t, p, 1e-9) for t, p in triads]
                fast = self._outcome(_conjugates_in_triads, q)
                assert fast == f"[{', '.join(slow)}]", (q, scale)

    @pytest.mark.parametrize("name", list(_FLAT_AND_LOOP))
    def test_flat_form_is_the_loop_form(self, name):
        """Each flat part or residual of the report against the loop form it
        replaced, at W and S where finite, at scales 1e-300, 1 and 1e300."""
        flat, loop = _FLAT_AND_LOOP[name]
        for q0 in self.POOL:
            for scale in (1e-300, 1.0, 1e300):
                st = QuadState(Quadrilateral(*(Point(v * scale) for v in q0.vertices())))
                for p in (st.w, st.s):
                    if is_finite(p):
                        assert self._outcome(flat, st, p) == self._outcome(loop, st, p), (q0, scale)

    def test_six_cs_is_the_pair_loop(self):
        """six_cs_residual's six pairs on W's frame against max_cs_distance's
        pair loop, at W and at S (a state whose W reads S), on every class at
        scales 1e-300, 1 and 1e300; at the cross-generation replay's S;
        on the near-cyclic replay, where both raise; and at a center, where
        both read a finite distance."""
        states = []
        for q0 in self.POOL:
            for scale in (1e-300, 1.0, 1e300):
                q = Quadrilateral(*(Point(v * scale) for v in q0.vertices()))
                s = QuadState(q).s
                states += [lambda q=q: QuadState(q)]
                states += [lambda q=q, s=s: _state_at(q, s)] if is_finite(s) else []
        at_center = QuadState(GENERIC).triads.o3.o
        replay = random_quadrilateral(CaseSpec(17, "orthocentric"), 0)
        for scale in (1.0, 1e300):
            far = Quadrilateral(*(Point(v * scale) for v in replay.vertices()))
            states.append(lambda far=far: _state_at(far, QuadState(far).s))
        states += [lambda: QuadState(NEAR_CYCLIC_CONCENTRIC),
                   lambda: _state_at(GENERIC, Point(at_center))]
        outcomes = [(self._outcome(six_cs_residual, st()), self._outcome(_loop_six_cs, st()))
                    for st in states]
        assert [flat for flat, loop in outcomes if flat != loop] == []
        assert outcomes[-2][0] == "ConcentricCircles" and math.isfinite(float(outcomes[-1][0]))

    def test_six_cs_concentric_cut_is_the_pair_loops(self):
        # a triad system's coincident centers have equal radii, so each term
        # of the cut is pinned on planted circles: in turn each pair's second
        # or first circle has twice the radius, and the pair is 1.5 or 2.5
        # tol times the smaller radius apart, which only the larger one's
        # term cuts, or neither; last, each pair at one point with subnormal
        # radii, whose tol r underflows to 0: the inclusive cut reads them
        # concentric, as it does the same pairs at scale 1
        tol, w, centers = GENERIC.tol, Point(2.5, 1.5), (0j, 4 + 1j, 5 + 4j, 1 + 5j)
        outcomes = []
        planted = [(j, centers[i] + gap * tol, [2.0 if k == big else 1.0 for k in range(4)])
                   for i, j in itertools.combinations(range(4), 2)
                   for big, gap in itertools.product((i, j), (1.5, 2.5))]
        planted += [(j, centers[i], [1e-320] * 4) for i, j in itertools.combinations(range(4), 2)]
        for j, moved, radii in planted:
            o = list(centers)
            o[j] = moved
            st = _state_at(GENERIC, w)
            st.triads = TriadSystem(*map(Circle, o, radii), diffs=(), rel=tuple(o))
            st.cyclic = False
            outcomes.append((self._outcome(six_cs_residual, st),
                             self._outcome(_loop_six_cs, st)))
        assert [flat for flat, loop in outcomes if flat != loop] == []
        assert [flat for flat, _ in outcomes].count("ConcentricCircles") == 18
        assert [flat for flat, _ in outcomes[-6:]] == ["ConcentricCircles"] * 6

    def test_six_cs_equal_radii_is_the_pair_loops(self):
        # planted circles of one radius, W on the line of the centers of each
        # pair in turn, outside them: both read its distance from the bisector
        centers = (0j, 4 + 1j, 5 + 4j, 1 + 5j)
        outcomes = []
        for i, j in itertools.combinations(range(4), 2):
            st = _state_at(GENERIC, Point(2 * centers[j] - centers[i]))
            circles = [Circle(c, 1.0) for c in centers]
            st.triads, st.cyclic = TriadSystem(*circles, diffs=(), rel=centers), False
            outcomes.append((self._outcome(six_cs_residual, st), self._outcome(_loop_six_cs, st)))
        assert [flat for flat, loop in outcomes if flat != loop] == []
        assert all(math.isfinite(float(flat)) for flat, _ in outcomes)

    @pytest.mark.parametrize("name", list(_VERIFY_FLAT_AND_LOOP))
    def test_verify_flat_form_is_the_loop_form(self, name):
        """Each flat construction or residual of a verify case against the
        loop form it replaced, on every class at scales 1e-300, 1 and 1e300."""
        flat, loop = _VERIFY_FLAT_AND_LOOP[name]
        for q0 in self.POOL:
            for scale in (1e-300, 1.0, 1e300):
                st = QuadState(Quadrilateral(*(Point(v * scale) for v in q0.vertices())))
                assert self._outcome(flat, st) == self._outcome(loop, st), (q0, scale)

    def test_reordered_w_is_w_of_the_built_reorderings(self):
        for q in self.POOL:
            a, b, c, d = q.vertices()
            slow = [isoptic_point(Quadrilateral(*order)) for order in ((a, c, b, d), (a, c, d, b))]
            assert repr(reordered_isoptic_points(q)) == repr(slow)

    def test_center_only_circumcircle_is_circumcircle_center(self):
        for q in self.POOL:
            a, b, c, d = q.vertices()
            for t in ((d, a, b), (a, b, c), (b, c, d), (c, d, a)):
                circle = circumcircle(*t)
                assert repr(circumscribe(*t, 1e-9, with_radius=False)) == repr(circle.o)
                assert repr(circumscribe(*t, 1e-9)) == repr((circle.o, circle.r))
                assert repr(orthocenter(*t)) == repr(Point(sum(t) - 2.0 * circle.o))


class TestComputeOnce:
    @staticmethod
    def _record(monkeypatch, names):
        """Record the first argument of each call to the named quad functions."""
        import isoptic.quad as quad
        calls = {name: [] for name in names}

        def counting(name):
            fn = getattr(quad, name)

            def counted(q, *args, **kwargs):
                calls[name].append(q)
                return fn(q, *args, **kwargs)
            return counted

        for name in names:
            monkeypatch.setattr(quad, name, counting(name))
        return calls

    def test_analyze_builds_each_part_once(self, monkeypatch):
        import isoptic.curves as curves
        import isoptic.quad as quad
        import isoptic.report as report
        calls = self._record(monkeypatch, ("classify", "triad_circles", "circumcenter",
                                           "next_generation", "isoptic_quantity",
                                           "shape_of_sides"))
        offsets = self._count_calls(monkeypatch, Quadrilateral, "_offset_unit")
        means, loops = [], []
        monkeypatch.setattr(quad, "sum", lambda qty: means.append(qty) or sum(qty), raising=False)
        for module in (curves, report):
            monkeypatch.setattr(module, "max_cs_distance",
                                lambda *args: loops.append(args) or math.nan, raising=False)
        for shape in SHAPE_CLASSES:
            for q in generic_quads(5, shape, seed=5):
                for seen in (*calls.values(), offsets, means, loops):
                    seen.clear()
                rep = quad.analyze(q)
                # one frame of offsets from W, which every quantity at W reads
                # (the pedal feet of S read one of their own); the frame sees W
                # relative to the anchor, which is +0j on an input: W's value
                assert len([p for _, p in offsets if p == rep.w]) == int(is_finite(rep.w))
                # the mean of the d_i / R_i is formed once, for the spread and the report
                assert len(means) == int(is_finite(rep.w))
                # the six CS are read in one pass on that frame, with no pair loop
                assert loops == []
                assert len(calls["classify"]) == 1
                # classify and r read the turns of one QuadState part
                assert len(calls["shape_of_sides"]) == 1
                assert [st.q for st in calls["triad_circles"]] == [q]
                # one circumcenter per triad system: the other three centers
                # are the closed-form side table away from it
                assert len(calls["circumcenter"]) == 1
                # the area ratio reads Q2's area from that table, so no Q2
                assert calls["next_generation"] == []
                # the spread residual and the report's mean share one d_i / R_i
                assert len(calls["isoptic_quantity"]) == (1 if is_finite(rep.w) else 0)

    def test_analyze_and_a_verify_case_leave_no_reference_cycle(self):
        # a part that holds its state (a frame object the state keeps) makes
        # every report cyclic garbage, which only the collector frees: about
        # ten times the collections, and 4 us more per analyze
        from isoptic.verify import run_suite
        gc.collect()
        gc.disable()
        try:
            for shape in SHAPE_CLASSES:
                for q in generic_quads(3, shape, seed=5):
                    analyze(q)
                run_suite(CaseSpec(5, shape), 2)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_w_and_s_build_no_circle_and_no_shape(self, monkeypatch):
        import isoptic.quad as quad
        quads = [q for shape in SHAPE_CLASSES for q in generic_quads(5, shape, seed=5)]
        # quad solves every circle it builds with circumcenter
        calls = self._record(monkeypatch, ("circumcenter", "triad_circles", "classify",
                                           "next_generation"))
        for q in quads:
            quad.isoptic_point(q)
            quad.simson_point(q)
        assert all(seen == [] for seen in calls.values())

    def test_verify_case_builds_each_generation_once(self, monkeypatch):
        from isoptic.verify import run_suite
        calls = self._record(monkeypatch, ("triad_circles",))
        rep = run_suite(CaseSpec(3, "convex-noncyclic"), 1)
        assert rep.invariants["w_agreement"].cases_run == 1
        # Q1, Q2 and Q3, shared by the limit route, the inversion route and
        # the cross-generation residual, prev_generation(Q1) for the round
        # trip and the image quadrilateral of the duality residual
        seen = calls["triad_circles"]
        assert len(seen) == 5
        assert len({st.q for st in seen}) == 5

    # calls of each quad and kernel name of the tracer's LAYER_FUNCTIONS made
    # by run_suite(CaseSpec(3, cls), 1), as --trace 1 counts them
    VERIFY_CASE_CALLS = {
        "convex-noncyclic": {"classify": 1, "invert_point": 12, "isoptic_point": 1,
                             "isoptic_point_via_inv_iso": 1, "isoptic_point_via_inversion": 1,
                             "isoptic_point_via_limit": 1, "next_generation": 3,
                             "prev_generation": 2, "similarity_ratio": 1, "simson_point": 1,
                             "triad_circles": 5},
        "concave": {"classify": 1, "invert_point": 12, "isoptic_point": 1,
                    "isoptic_point_via_inv_iso": 1, "isoptic_point_via_inversion": 1,
                    "isoptic_point_via_limit": 1, "next_generation": 3, "prev_generation": 2,
                    "similarity_ratio": 1, "simson_point": 1, "triad_circles": 4},
        "cyclic": {"isoptic_point": 1, "next_generation": 1, "similarity_ratio": 1,
                   "simson_point": 1, "triad_circles": 1},
        "trapezoid": {"classify": 1, "invert_point": 12, "isoptic_point": 1,
                      "isoptic_point_via_inv_iso": 1, "isoptic_point_via_inversion": 1,
                      "isoptic_point_via_limit": 1, "next_generation": 3, "prev_generation": 2,
                      "similarity_ratio": 1, "simson_point": 1, "triad_circles": 4},
        "parallelogram": {"classify": 1, "isoptic_point": 1, "next_generation": 1,
                          "similarity_ratio": 1, "simson_point": 1, "triad_circles": 1},
        "parallelogram-pi4": {"classify": 1, "isoptic_point": 1, "next_generation": 2,
                              "similarity_ratio": 1, "simson_point": 1, "triad_circles": 2},
        "orthocentric": {"isoptic_point": 1, "next_generation": 2, "orthocenter": 1,
                         "similarity_ratio": 1, "triad_circles": 2},
        "near-cyclic": {"classify": 1, "isoptic_point": 1, "next_generation": 1,
                        "similarity_ratio": 1, "simson_point": 1, "triad_circles": 1},
    }

    def test_verify_case_calls_every_traced_name(self, monkeypatch):
        """No flat form hides a construction from the tracer: each traced
        quad and kernel name, swapped in every module that imported it, is
        called as often per verify case as the loop forms called it."""
        from isoptic.verify import run_suite
        tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        layers = next(ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
                      if isinstance(node, ast.Assign)
                      and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets))
        # every module of the package, as the tracer swaps the name in each
        modules = [module for name, module in sorted(sys.modules.items())
                   if name.startswith("isoptic.")]
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for layer in ("kernel", "quad"):
            for name in layers[layer]:
                fn = getattr(importlib.import_module(f"isoptic.{layer}"), name)
                for module in modules:
                    if getattr(module, name, None) is fn:
                        monkeypatch.setattr(module, name, counting(name, fn))
        for cls in SHAPE_CLASSES:
            calls.clear()
            run_suite(CaseSpec(3, cls), 1)
            assert dict(calls) == self.VERIFY_CASE_CALLS[cls], cls

    # _offset_unit calls per case of run_suite(CaseSpec(3, cls), n): W's frame,
    # which the cross-generation and spiral checks read too, the duality
    # image's frame of W and S's frame, where each is finite and used
    VERIFY_CASE_FRAMES = {"convex-noncyclic": 3, "concave": 3, "trapezoid": 3, "cyclic": 2,
                          "near-cyclic": 2, "parallelogram": 1, "parallelogram-pi4": 1,
                          "orthocentric": 0}

    def test_verify_case_frames_w_once(self, monkeypatch):
        from isoptic.verify import run_suite
        n = 20
        offsets = self._count_calls(monkeypatch, Quadrilateral, "_offset_unit")
        for cls in SHAPE_CLASSES:
            spec = CaseSpec(3, cls)
            ws = {q.vertices(): isoptic_point(q)
                  for q in (random_quadrilateral(spec, i) for i in range(n))}
            offsets.clear()
            run_suite(spec, n)
            assert len(offsets) == n * self.VERIFY_CASE_FRAMES[cls], cls
            at_w = [p for q, p in offsets if q.vertices() in ws and p == ws[q.vertices()]]
            assert len(at_w) == sum(map(is_finite, ws.values())), cls

    @staticmethod
    def _generic_states(*parts):
        """States of generic cases with the named parts already built."""
        states = [QuadState(q) for shape in ("convex-noncyclic", "concave", "trapezoid")
                  for q in generic_quads(10, shape, seed=5)]
        for st in states:
            for part in parts:
                getattr(st, part)
        return states

    @staticmethod
    def _count_calls(monkeypatch, cls, name):
        """Record each call of the method cls.name."""
        calls, method = [], getattr(cls, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return method(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
        return calls

    def test_permutation_invariance_builds_no_quadrilateral(self, monkeypatch):
        states = self._generic_states("w")
        # every Quadrilateral, built from vertices or from a side table, takes its frame
        built = self._count_calls(monkeypatch, Quadrilateral, "_frame")
        Quadrilateral(*GENERIC.vertices())
        assert len(built) == 1
        built.clear()
        permutation = INVARIANTS["permutation_invariance"][0]
        assert all(permutation(st) < 1e-12 for st in states)
        assert built == []

    def test_q2_construction_builds_no_circle(self, monkeypatch):
        states = self._generic_states("next")
        built = self._count_calls(monkeypatch, Circle, "__init__")
        circumcircle(*UNIT)
        assert len(built) == 1
        built.clear()
        q2_construction = INVARIANTS["q2_construction"][0]
        assert all(q2_construction(st) < 1e-12 for st in states)
        assert built == []

    def test_limit_route_builds_q2_and_q3_only(self, monkeypatch):
        import isoptic.quad as quad
        calls = self._record(monkeypatch, ("next_generation", "prev_generation"))
        for shape in ("convex-noncyclic", "concave", "trapezoid"):
            for q in generic_quads(40, shape, seed=2):
                for seen in calls.values():
                    seen.clear()
                quad.isoptic_point_via_limit(q)
                # Q3 = W + r (Q1 - W), whether the iteration contracts or not
                assert len(calls["next_generation"]) == 2
                assert calls["prev_generation"] == []


class TestNearCyclicConcentricCut:
    """Near-cyclic input that is not cyclic at tol can have two triad centers
    within the concentric cut of the circles of similitude, where the six-CS
    residual raises ConcentricCircles: analyze omits it there, as it omits
    the area ratio where Q2 is one point."""

    def test_the_replay_reports_every_other_residual(self):
        st = QuadState(NEAR_CYCLIC_CONCENTRIC)
        assert not st.cyclic
        with pytest.raises(ConcentricCircles):
            six_cs_residual(st)
        assert sorted(analyze(NEAR_CYCLIC_CONCENTRIC).residuals) == [
            "angle_sums", "area_ratio", "isodynamic", "isoptic_spread", "pedal_s_collinear",
            "pedal_w_parallelogram"]

    def test_analyze_never_raises_in_the_near_cyclic_band(self):
        # cyclic draws with D moved off the circle by 10^U(-8.7, -6) of its
        # radius, kept if they pass verify's angle, aspect and triad-height
        # tests: about one in sixteen falls inside the cut
        rng, kept, cut = random.Random(2), 0, 0
        while kept < 2000:
            ts = sorted(2.0 * math.pi * rng.random() for _ in range(4))
            z = [complex(math.cos(t), math.sin(t)) for t in ts]
            z[3] *= 1.0 + 10.0 ** rng.uniform(-8.7, -6.0)
            z = _normalized(z) if _angles_ok(z) else None
            q = Quadrilateral(*map(Point, z)) if z else None
            if q is None or q.min_triad_height() < _MIN_TRIAD_HEIGHT * q.scale():
                continue
            kept += 1
            rep = analyze(q)
            cut += not rep.shape.cyclic and "six_cs" not in rep.residuals
        assert cut > 50


class TestAtInfinityCuts:
    """Each degenerate locus is decided once, and classify reads that
    decision: orthocentric is the fixed cut that puts W at infinity,
    parallelogram the one that puts S at infinity, and cyclic the test on
    which both generation maps raise CyclicDegeneration."""

    @staticmethod
    def _near(shape, k, rng):
        """100 draws of the class with D moved 10^-k diameters off its
        locus, in a random direction."""
        for q in generic_quads(100, shape, seed=7):
            a, b, c, d = q.vertices()
            step = cmath.rect(10.0 ** -k * q.scale(), rng.uniform(0.0, 2.0 * math.pi))
            yield Quadrilateral(a, b, c, Point(d + step))

    @staticmethod
    def _collapses(step, q):
        try:
            step(q)
        except CyclicDegeneration:
            return True
        return False

    def test_flags_match_decisions_near_each_locus(self):
        # the flag named by each shape class against its decisions
        decisions = {
            "orthocentric": lambda q: [isinstance(isoptic_point(q), AtInfinity)],
            "parallelogram": lambda q: [isinstance(simson_point(q), AtInfinity)],
            "cyclic": lambda q: [self._collapses(step, q)
                                 for step in (next_generation, prev_generation)],
        }
        rng = random.Random(19)
        mismatches = {}
        for k in range(4, 17):
            for shape, decide in decisions.items():
                for q in self._near(shape, k, rng):
                    flag = getattr(classify(q), shape)
                    if any(d != flag for d in decide(q)):
                        mismatches[shape, k] = mismatches.get((shape, k), 0) + 1
        assert mismatches == {}

    def test_limit_route_raises_only_geometry_errors_near_the_orthocentric_locus(self):
        # r reads 1.0 and W is finite, 4.4e8 diameters out, but 1 - k is 0.6 eps, within
        # k's rounding: a center read from it, (3.87e6, -2.50e6), would be 4.5e8 diameters off
        q = Quadrilateral(Point(0.1180632273833318, -0.40745680553417896),
                          Point(-0.5270056392506484, 0.07714650204819978),
                          Point(0.4069132810175645, 0.43463139734456824),
                          Point(0.0020291312158341648, -0.10432109464374185))
        assert similarity_ratio(q) == 1.0 and is_finite(isoptic_point(q))
        with pytest.raises(PointAtInfinity):
            isoptic_point_via_limit(q)
        # r reads 1 + 2 eps and W is finite, 7.5e9 diameters out, and k rounds to 1
        q = Quadrilateral(Point(0.205034111544461, -0.34306564685216867),
                          Point(0.19347766273273878, 0.6568675751636127),
                          Point(-0.28459234919271126, -0.15788721647116544),
                          Point(-0.11391942507775818, -0.1559147118328825))
        assert similarity_ratio(q) == 1.0000000000000002 and is_finite(isoptic_point(q))
        with pytest.raises(PointAtInfinity):
            isoptic_point_via_limit(q)
        # a center it does return keeps the digits its conditioning leaves:
        # within 16 eps |W - G| / |1 - r| of W (the worst reads 8.5)
        rng, eps = random.Random(19), sys.float_info.epsilon
        for k in range(4, 17):
            for q in self._near("orthocentric", k, rng):
                try:
                    lim, w, r = isoptic_point_via_limit(q), isoptic_point(q), similarity_ratio(q)
                except GeometryError:
                    continue
                if is_finite(lim) and is_finite(w):
                    assert abs(lim - w) <= 16 * eps * abs(w - q.centroid()) / max(abs(1 - r), eps)

    def test_limit_route_reads_the_w_decision(self):
        # r = -1 on parallelogram-pi4, where 1 - k = 2: the route needs no cut
        for q in generic_quads(200, "parallelogram-pi4", seed=7):
            w, lim = isoptic_point(q), isoptic_point_via_limit(q)
            assert is_finite(lim)
            assert abs(lim - w) <= 1e-15 * q.scale()
        for q in generic_quads(200, "orthocentric", seed=7):
            w = isoptic_point(q)
            assert isinstance(w, AtInfinity)
            assert isoptic_point_via_limit(q) == w

    def test_decisions_match_classify(self):
        for shape in SHAPE_CLASSES:
            for q in generic_quads(300, shape, seed=11):
                kind = classify(q)
                assert isinstance(isoptic_point(q), AtInfinity) == kind.orthocentric
                assert isinstance(simson_point(q), AtInfinity) == kind.parallelogram

    def test_orthocentric_w_runs_along_side_ab(self):
        # o1 and o2 are congruent and both centered on the perpendicular
        # bisector of AB, so their line of similitude is parallel to AB
        for q in generic_quads(50, "orthocentric", seed=9):
            v = q.b - q.a
            assert isoptic_point(q) == AtInfinity.along(v.real, v.imag)


class TestSimilarityCovariance:
    """W, S, r, the triad circles, the pedal feet and the Simson line move
    with a similarity T of the input, within 100 eps times (1 + offset /
    diameter) of the copy's diameter (points, radii, collinearity), of
    max(1, |r|) (r) or of 1 (the Simson direction's sine and the scale-free
    reconstruction distance): rounding the moved coordinates costs that
    much."""

    @staticmethod
    def _copies():
        """(q, copy, move, rot, rel) for 50 quads per class."""
        eps = sys.float_info.epsilon
        rng = random.Random(7)

        def turn():
            return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))

        for shape in SHAPE_CLASSES:
            for q in generic_quads(50, shape, seed=11):
                rot = 10.0 ** rng.uniform(-9.0, 9.0) * turn()
                offset = 10.0 ** rng.uniform(-3.0, 6.0)  # in diameters
                shift = offset * abs(rot) * q.scale() * turn()

                def move(p):
                    return Point(rot * p + shift)

                copy = Quadrilateral(*(move(v) for v in q.vertices()))
                yield q, copy, move, rot, 100.0 * eps * (1.0 + offset)

    def test_w_s_and_r_follow_a_similarity(self):
        for q, copy, move, rot, rel in self._copies():
            for construction in (isoptic_point, simson_point):
                p, moved = construction(q), construction(copy)
                if is_finite(p):
                    assert is_finite(moved)
                    assert abs(moved - move(p)) <= rel * copy.scale()
                else:
                    d = rot * complex(p.dx, p.dy)
                    ref = AtInfinity.along(d.real, d.imag)
                    assert isinstance(moved, AtInfinity)
                    assert min(math.hypot(moved.dx - ref.dx, moved.dy - ref.dy),
                               math.hypot(moved.dx + ref.dx, moved.dy + ref.dy)) <= rel
            r = similarity_ratio(q)
            assert abs(similarity_ratio(copy) - r) <= rel * max(1.0, abs(r))

    def test_analyze_and_triad_circles_follow_a_similarity(self):
        for q, copy, move, rot, rel in self._copies():
            analyze(copy)  # returns on every copy
            for o, moved in zip(triad_circles(q).circles, triad_circles(copy).circles):
                assert abs(moved.o - move(o.o)) <= rel * copy.scale()
                assert abs(moved.r - abs(rot) * o.r) <= rel * copy.scale()

    def test_pedal_feet_simson_line_and_reconstructions_follow_a_similarity(self):
        for q, copy, move, rot, rel in self._copies():
            st_q, st_copy = QuadState(q), QuadState(copy)
            bound = rel * copy.scale()
            for feet, moved in ((st_q.pedal_w, st_copy.pedal_w), (st_q.pedal_s, st_copy.pedal_s)):
                if feet is not None:
                    assert max(abs(f - move(g)) for f, g in zip(moved, feet)) <= bound
            if st_copy.pedal_w is not None:
                rebuilt = reconstruct_from_pedal_w(st_copy.w, st_copy.pedal_w)
                assert quad_distance(rebuilt, copy) <= rel
            if st_copy.pedal_s is None:
                continue
            assert collinearity_residual(st_copy.pedal_s) <= bound
            d = simson_line(st_copy).u
            ref = rot / abs(rot) * simson_line(st_q).u
            assert abs(ref.real * d.imag - ref.imag * d.real) <= rel
            # a trapezoid's S lies on two side lines, so two of its feet are S
            if not st_q.shape.trapezoid:
                rebuilt = reconstruct_from_simson(st_copy.s, st_copy.pedal_s)
                assert quad_distance(rebuilt, copy) <= rel


class TestScaleSweep:
    """Every construction that meets two lines solves along unit directions,
    so CaseSpec(7, shape) case 0 scaled by 10^k gives the scale-1 answer
    times 10^k from 1e-300 to 1e300: no product of lengths overflows or
    underflows."""

    EXPONENTS = (-300, -250, -170, -100, 0, 100, 170, 250, 300)

    @classmethod
    def _sweep(cls, shape):
        """(q at scale 1, scale, QuadState of the scaled copy) per exponent."""
        q = random_quadrilateral(CaseSpec(7, shape), 0)
        for k in cls.EXPONENTS:
            scale = 10.0 ** k
            yield q, scale, QuadState(Quadrilateral(*(Point(v * scale) for v in q.vertices())))

    @pytest.mark.parametrize("shape", ["convex-noncyclic", "concave", "trapezoid"])
    def test_conjugate_of_w_scales(self, shape):
        for q, scale, st in self._sweep(shape):
            ref = isogonal_conjugate_quad(q, isoptic_point(q))
            got = isogonal_conjugate_quad(st.q, st.w)
            assert all(map(is_finite, ref + got)), scale
            assert max(abs(p - scale * r) for p, r in zip(got, ref)) <= 2.0 ** -48 * st.scale

    @pytest.mark.parametrize("shape", ["convex-noncyclic", "concave", "trapezoid"])
    def test_feet_circles_scale(self, shape):
        for _, scale, st in self._sweep(shape):
            residual = feet_circles_residual(st)
            assert residual is not None and residual <= 2.0 ** -48, scale

    @pytest.mark.parametrize("shape", ["convex-noncyclic", "concave", "trapezoid"])
    def test_reconstructions_scale(self, shape):
        for _, scale, st in self._sweep(shape):
            rebuilt = reconstruct_from_pedal_w(st.w, st.pedal_w)
            assert quad_distance(rebuilt, st.q) <= 2.0 ** -46, scale
            assert is_finite(st.s)
            if st.shape.trapezoid:
                # S lies on two side lines, so two of its feet are S
                with pytest.raises(DegenerateConjugate):
                    reconstruct_from_simson(st.s, st.pedal_s)
            else:
                rebuilt = reconstruct_from_simson(st.s, st.pedal_s)
                assert quad_distance(rebuilt, st.q) <= 2.0 ** -46, scale



# W near (-1.5e308, 1.1e308): three feet of W were not finite, and
# |W - center| and |W - vertex| overflowed (OverflowError) in the isoptic
# quantities, the isodynamic products and the CS defects
_FAR_W = (CaseSpec(257, "concave"), 2, 8.264060117480234e307, 0j)

# (spec, case, scale, offset): quadrilaterals at the edges of the float range
_FLOAT_EDGE_REPLAYS = [
    # about 1e300 near 5.7e307: sum(vertices) / 4 overflowed to inf before the
    # division, so the centroid read (inf, nan) and W and S were Point(nan, nan)
    (CaseSpec(11, "parallelogram-pi4"), 35, 6.6e299, complex(5.7e307, -1.8e307)),
    # about 1e307 near 1.9e308: abs(centroid) overflowed in the at-infinity
    # cuts of W and S (OverflowError), and on the trapezoid a conjugate of
    # the inverse-isogonal route was inf, so that route read Point(nan, nan);
    # the Varignon midpoints and the Simson line's centroid summed two or four
    # vertices before halving, and read nan
    *((CaseSpec(7, shape), 0, 1e307, 1.5e308 + 1.2e308j)
      for shape in ("convex-noncyclic", "concave", "trapezoid", "parallelogram")),
    # subnormal: tol * r underflowed to 0 in invert_point, which then divided
    # by a v that was exactly 0 (ZeroDivisionError)
    (CaseSpec(7, "orthocentric"), 0, 1e-320, 0j),
    # feet about 1e308 out: abs of a circumscribe difference overflowed
    (CaseSpec(11, "concave"), 7, 1e307, complex(4.564e307, -2.231e307)),
    # subnormal Q2 side tables: a side (near-cyclic) and a turn's cross
    # (cyclic) were exactly 0, and prev_generation and interior_angles
    # divided by them (ZeroDivisionError)
    (CaseSpec(78, "near-cyclic"), 32, 1e-320, 0j),
    (CaseSpec(78, "cyclic"), 17, 1e-320, 0j),
    # the ptolemy invariant squared the diameter: OverflowError at 1e160,
    # ZeroDivisionError at 1e-300
    (CaseSpec(91, "convex-noncyclic"), 0, 1e160, 0j),
    (CaseSpec(91, "convex-noncyclic"), 0, 1e-300, 0j),
    # p - v overflowed in the pedal feet, one foot of S read Point(-inf, nan)
    # and the Simson line nan
    (CaseSpec(294, "trapezoid"), 0, 6.952276265229011e307, 0j),
    # kernel.diameter formed |p - q| of two points about 3e308 apart
    # (OverflowError): isogonal_conjugate_quad at W and at S, and the
    # reconstructions, of these three and of _FAR_W
    (CaseSpec(961, "concave"), 10, 1.3072700043896275e308, 0j),
    (CaseSpec(174, "cyclic"), 36, 1.4914381515014527e308, 0j),
    (CaseSpec(528, "convex-noncyclic"), 25, 1.297457936254125e308, 0j),
    # a meet of isogonal_conjugate_quad at W read Point(-inf, inf)
    (CaseSpec(148, "cyclic"), 29, 1.2085082678807898e308, 0j),
    _FAR_W,
]


def _holds_nan(value) -> bool:
    """A nan float, or a complex (so a Point or a Line's p or u) with a part
    that is not finite, anywhere in value; an inf residual is allowed."""
    if isinstance(value, complex):
        return not cmath.isfinite(value)
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, Line):
        return _holds_nan(value.p) or _holds_nan(value.u)
    if isinstance(value, Circle):  # whose radius Circle holds finite
        return _holds_nan(value.o)
    if isinstance(value, Quadrilateral):
        value = value.vertices()
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (list, tuple)) and any(map(_holds_nan, value))


def test_no_nan_point_near_the_float_maximum():
    """Each construction, residual and invariant returns a finite point or a
    point at infinity and no nan, or raises a GeometryError, on
    quadrilaterals at the edges of the float range: a Point with an inf or
    nan part, which is_finite accepts, or an OverflowError or
    ZeroDivisionError is a fault."""
    for spec, index, scale, offset in _FLOAT_EDGE_REPLAYS:
        q = random_quadrilateral(spec, index)
        far = Quadrilateral(*(Point(v * scale + offset) for v in q.vertices()))
        calls = [far.centroid, lambda: analyze(far).w, lambda: analyze(far).s,
                 lambda: isoptic_point(far), lambda: simson_point(far),
                 lambda: isoptic_point_via_limit(far), lambda: isoptic_point_via_inversion(far),
                 lambda: isoptic_point_via_inv_iso(far), lambda: varignon(far),
                 lambda: simson_line(far), lambda: analyze(far).residuals,
                 lambda: interior_angles(QuadState(far).next),
                 lambda: prev_generation(QuadState(far).next),
                 lambda: QuadState(far).pedal_w, lambda: QuadState(far).pedal_s]
        calls += [lambda fn=fn: fn(QuadState(far)) for fn, _ in INVARIANTS.values()]
        # the reconstructions fed from the state's own outputs; a pedal is
        # None where its point is at infinity, and require_finite raises there
        st = QuadState(far)
        calls += [lambda: isogonal_conjugate_quad(st, st.w),
                  lambda: isogonal_conjugate_quad(st, st.s),
                  lambda: reconstruct_from_pedal_w(st.w, st.pedal_w or []),
                  lambda: reconstruct_from_simson(st.s, st.pedal_s or []),
                  lambda: reconstruct_fourth_vertex(far.a, far.b, far.c, st.w)]
        for call in calls:
            try:
                value = call()
            except GeometryError:
                continue
            assert not _holds_nan(value), (spec, scale, value)


def test_offsets_from_w_are_read_in_the_frame_near_the_float_maximum():
    # the far replay reads as at scale 1; at W and at a point near it, whose
    # angle sums the overflowing quotients of the absolute offsets read as 0
    spec, index, scale, _ = _FAR_W
    q = random_quadrilateral(spec, index)
    far = Quadrilateral(*(Point(v * scale) for v in q.vertices()))
    st, near = QuadState(far), QuadState(q)
    for p, ref in ((st.w, near.w), (st.w + 0.1 * far.scale(), near.w + 0.1 * q.scale())):
        p, ref = Point(p), Point(ref)
        assert isoptic_quantity(st, p) == pytest.approx(isoptic_quantity(near, ref), rel=1e-12)
        assert angle_sums_at_point(far, p) == pytest.approx(angle_sums_at_point(q, ref),
                                                            rel=1e-9, abs=1e-15)
    assert isodynamic_ratios(st, st.w) < 1e-14 and analyze(far).residuals["six_cs"] < 1e-13


def _all_finite(value) -> bool:
    """Every float, complex and Point in value is finite (a point at infinity passes)."""
    if isinstance(value, (list, tuple)):
        return all(map(_all_finite, value))
    return isinstance(value, AtInfinity) or cmath.isfinite(value)


@pytest.mark.parametrize("scale, p, near", [(1.0, Point(1.5e308, 1.5e308), Point(1e307, 1e307)),
                                            (1e-300, Point(1e302, -1e302), Point(1e292, -1e292))])
def test_far_points_are_read_in_a_frame_of_their_own(scale, p, near):
    # a small quadrilateral and a far point p: q's _unit_down frame never
    # scaled the offsets down, so the first replay raised OverflowError in
    # four of these and angle_sums_at_point read a nan quotient as 0.0; in
    # p's frame the radii of the second underflow to 0, where the ratios
    # and the distances overflow.  Both read as a nearer point in the same direction
    q = Quadrilateral(*(Point(x * scale, y * scale)
                        for x, y in ((-.1, -.1), (.1, -.1), (.13, .1), (-.1, .1))))
    calls = [lambda fn=fn: fn(q, p) for fn in (isogonal_conjugate_quad, isoptic_quantity,
                                               isodynamic_ratios, angle_sums_at_point,
                                               pedal_quadrilateral)]
    for call in calls + [lambda: cross_generation_cs_residual(_state_at(q, p))]:
        try:
            value = call()
        except GeometryError:
            continue
        assert _all_finite(value), value
    assert angle_sums_at_point(q, p) == pytest.approx(angle_sums_at_point(q, near), rel=1e-12)
    assert isodynamic_ratios(q, p) == pytest.approx(isodynamic_ratios(q, near), rel=1e-12)


def test_w_routes_agree_near_the_float_maximum():
    # the parallelogram of the replays above: W is its center exactly
    q = random_quadrilateral(CaseSpec(7, "parallelogram"), 0)
    far = Quadrilateral(*(Point(v * 1e307 + (1.5e308 + 1.2e308j)) for v in q.vertices()))
    for route in (isoptic_point, isoptic_point_via_limit, isoptic_point_via_inversion,
                  isoptic_point_via_inv_iso):
        assert route(far) == Point(1.5e308, 1.2e308)


def test_public_constructions_return_points():
    """A Point is a complex number, and arithmetic on it gives a plain
    complex, so each construction wraps what it returns: is_finite, the
    renderer's bounds and the benchmark tell a finite point by its type."""
    q = GENERIC
    rep = analyze(q)
    w, s = rep.w, rep.s
    a, b, c, _ = q.vertices()
    found = {
        "w, s": [w, s],
        "pedal_w": rep.pedal_w,
        "pedal_s": rep.pedal_s,
        "varignon": rep.varignon,
        "quad": rep.quad.vertices(),
        "next_generation": next_generation(q).vertices(),
        "prev_generation": prev_generation(q).vertices(),
        "centroid": [q.centroid()],
        "w routes": [route(q) for route in (isoptic_point_via_limit,
                                            isoptic_point_via_inversion,
                                            isoptic_point_via_inv_iso)],
        "fourth vertex": [reconstruct_fourth_vertex(a, b, c, w)],
        "from pedal_w": reconstruct_from_pedal_w(w, rep.pedal_w).vertices(),
        "from simson": reconstruct_from_simson(s, rep.pedal_s).vertices(),
        "isogonal_conjugate_quad": [p for p in isogonal_conjugate_quad(q, w) if is_finite(p)],
        "intersect": (intersect(Circle(0j, 1.0), Circle(1 + 0j, 1.0))
                      + intersect(Circle(0j, 1.0), Circle(2 + 0j, 1.0))
                      + intersect(Circle(0j, 1.0), Line(0.5 + 0j, 1j))
                      + intersect(Line(0j, 1 + 0j), Line(1j, 1j))),
        "kernel": [invert_point(Circle(0j, 1.0), Point(0.5, 0.25)),
                   isogonal_conjugate_triangle(*UNIT, Point(0.2, 0.3)), orthocenter(*UNIT)],
    }
    assert len(found["intersect"]) == 6 and len(found["isogonal_conjugate_quad"]) == 4
    wrong = {name: [type(p).__name__ for p in pts] for name, pts in found.items()
             if not pts or any(type(p) is not Point for p in pts)}
    assert wrong == {}


_COORD = st.one_of(st.integers(-8, 8).map(float),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@given(vertices=st.lists(st.tuples(_COORD, _COORD), min_size=4, max_size=4),
       scale=st.sampled_from((1e-12, 1.0, 1e9)), offset=st.tuples(_COORD, _COORD))
@settings(max_examples=300, deadline=None)
@example(vertices=[(0.0, 0.0), (3.0, 1.0), (2.0, 0.0), (0.0, 1.0)], scale=1.0, offset=(0.0, 0.0))
@example(vertices=[(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 2.2e-309)], scale=1e-12,
         offset=(0.0, 0.0))
def test_analyze_returns_or_raises_a_geometry_error(vertices, scale, offset):
    """Steered toward large residuals (targeted property-based testing):
    analyze either reports or raises a GeometryError, never another error.
    The first example is a bowtie whose two lobes cancel to area 0; the
    second has three coincident vertices at a subnormal scale, where
    tol * diameter underflowed to 0 and the quadrilateral was accepted."""
    try:
        rep = analyze(Quadrilateral(*(Point(scale * x + offset[0], scale * y + offset[1])
                                      for x, y in vertices)))
    except GeometryError:
        return
    finite = [v for v in rep.residuals.values() if 0.0 < v < math.inf]
    target(math.log10(max(finite, default=1e-300)), label="log10 largest residual")


# |W_k - W_0| <= _ORBIT_C eps max(diam_0, diam_k) on every generation of an
# orbit; the worst over seeds 7 and 42 is 143 eps (concave, forward; 78 backward)
_ORBIT_C = 256


def _orbit_faults(seed):
    """Each generation of 60 steps each way from CaseSpec(seed, cls), 20 per
    class, where W_k is not within _ORBIT_C eps max(diam_0, diam_k) of a finite
    W_0, or S_k is not finite where S_0 and S_1 are; and how many orbits stop
    where the vertices round together.  analyze and both maps must return or
    raise a GeometryError: any other error fails the caller."""
    faults, collapsed, eps = [], 0, sys.float_info.epsilon
    for shape, step in itertools.product(SHAPE_CLASSES, (next_generation, prev_generation)):
        for index in range(20):
            q = random_quadrilateral(CaseSpec(seed, shape), index)
            w0, d0, s_finite = None, q.scale(), []
            for k in range(61):
                try:
                    rep = analyze(q)
                except GeometryError:
                    rep = None
                if rep is not None and k == 0 and is_finite(rep.w):
                    w0 = rep.w
                if rep is not None and w0 is not None and not (
                        is_finite(rep.w)
                        and abs(rep.w - w0) <= _ORBIT_C * eps * max(d0, q.scale())):
                    faults.append(("W", shape, step.__name__, index, k))
                s_finite.append(rep is not None and is_finite(rep.s))
                if rep is not None and s_finite[:2] == [True, True] and not s_finite[k]:
                    faults.append(("S", shape, step.__name__, index, k))
                try:
                    q = step(q) if k < 60 else q
                except CollinearInput as exc:
                    collapsed += "round together" in str(exc)
                    break
                except GeometryError:
                    break
    return faults, collapsed


def test_the_maps_own_outputs_are_total():
    """analyze and both maps return or raise a GeometryError on every
    generation of 60 steps each way, and each generation keeps W and S.  On a
    shrinking orbit the vertices round together at W's ulp while the
    closed-form side table does not: such a generation raised
    ZeroDivisionError in analyze until the maps refused it (CollinearInput),
    and before every construction read the quadrilateral's anchor and its
    offsets, W and S went to infinity some generations earlier."""
    faults, collapsed = _orbit_faults(7)
    assert faults == []
    # 61 of the forward orbits reach such a generation (none backward), and
    # the README quadrilateral at 21
    assert collapsed > 40
    q = Quadrilateral(Point(0, 0), Point(4, 0), Point(5, 3), Point(1, 4))
    for _ in range(20):
        q = next_generation(q)
    with pytest.raises(CollinearInput, match="round together"):
        next_generation(q)


@pytest.mark.slow
def test_the_orbits_keep_w_and_s_at_seed_42():
    assert _orbit_faults(42)[0] == []


def test_deep_generations_keep_w_and_s():
    """The README quadrilateral's generations shrink by |r| = 0.027 each two
    steps onto W: every one of the 20 that round apart keeps W within 4 eps
    diam_0 of W_0 and a finite S, and so does each W route that can build its
    Q2 and Q3; so does the second generation of a near-cyclic draw, 1.2e-13
    across.  Each read W or S at infinity when the constructions read the
    generation's rounded vertices."""
    q = Quadrilateral(Point(0, 0), Point(4, 0), Point(5, 3), Point(1, 4))
    rep0, eps = analyze(q), sys.float_info.epsilon
    for k in range(1, 21):
        q = next_generation(q)
        rep = analyze(q)
        assert is_finite(rep.w) and abs(rep.w - rep0.w) <= 4 * eps * 5.83, k
        assert is_finite(rep.s), k
        for route in (isoptic_point_via_limit, isoptic_point_via_inversion,
                      isoptic_point_via_inv_iso):
            try:
                w = route(q)
            except CollinearInput:  # its Q2 or Q3 rounds together, from k = 19
                assert k >= 19
                continue
            assert is_finite(w) and abs(w - rep0.w) <= 4 * eps * 5.83, (k, route.__name__)
    with pytest.raises(CollinearInput, match="round together"):
        next_generation(q)
    q2 = next_generation(next_generation(random_quadrilateral(CaseSpec(7, "near-cyclic"), 0)))
    assert q2.scale() < 1.3e-13 and is_finite(analyze(q2).s)
