import cmath
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st, target

from isoptic.errors import (
    CollinearInput,
    CyclicDegeneration,
    DegenerateRay,
    GeometryError,
    NonCollinearFeet,
    OrthocentricDegeneration,
    PointAtInfinity,
    Underdetermined,
)
from isoptic.kernel import (
    AtInfinity,
    Point,
    circumcircle,
    is_finite,
    orthocenter,
)
from isoptic.quad import (
    Quadrilateral,
    QuadState,
    _conjugates_in_triads,
    analyze,
    angle_sums_at_point,
    classify,
    collinearity_residual,
    cotangent_identity_residuals,
    interior_angles,
    isodynamic_ratios,
    isogonal_conjugate_quad,
    isoptic_point,
    isoptic_point_via_inv_iso,
    isoptic_point_via_inversion,
    isoptic_point_via_limit,
    isoptic_quantity,
    next_generation,
    noncyclicity_measure,
    parallelogram_residual,
    pedal_quadrilateral,
    prev_generation,
    quad_distance,
    quadrangle_duality_residual,
    reconstruct_fourth_vertex,
    reconstruct_from_pedal_w,
    reconstruct_from_simson,
    similarity_ratio,
    simson_line,
    simson_point,
    triad_circles,
    varignon,
)
from isoptic.verify import SHAPE_CLASSES, CaseSpec, random_quadrilateral

SQUARE = Quadrilateral(Point(1, 1), Point(-1, 1), Point(-1, -1), Point(1, -1))
GENERIC = Quadrilateral(Point(0, 0), Point(4, 0), Point(5, 3), Point(1, 4))
TRAPEZOID = Quadrilateral(Point(0, 0), Point(4, 0), Point(3, 2), Point(1, 2))
DART = Quadrilateral(Point(0, 0), Point(4, 0), Point(1, 1), Point(0, 4))


def ortho_quad():
    a, b, c = Point(0, 0), Point(4, 0), Point(1, 3)
    return Quadrilateral(a, b, c, orthocenter(a, b, c))


def pi4_parallelogram():
    a = Point(0, 0)
    u = Point(2, 0)
    v = Point(3 * math.cos(math.pi / 4), 3 * math.sin(math.pi / 4))
    return Quadrilateral(a, a + u, a + u + v, a + v)


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
        # inf raised CollinearInput
        with pytest.raises(ValueError):
            analyze(GENERIC, tol)
        with pytest.raises(ValueError):
            QuadState(GENERIC, tol)

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
            assert route(big).dist(w) <= 1e-14 * size, route.__name__
        assert quadrangle_duality_residual(big, w, size) <= 1e-12
        assert reconstruct_fourth_vertex(big.a, big.b, big.c, w).dist(big.d) <= 1e-12 * size

    def test_coincident_vertices_rejected_at_subnormal_scale(self):
        # tol * diameter underflowed to 0 at a diameter of 2.2e-321
        with pytest.raises(CollinearInput):
            Quadrilateral(Point(0, 0), Point(0, 0), Point(0, 0), Point(0, 2.2e-321))


class TestTriadCircles:
    def test_square_all_equal(self):
        sys = triad_circles(SQUARE)
        for c in sys.circles:
            assert c.center().dist(Point(0, 0)) < 1e-12
            assert c.radius() == pytest.approx(math.sqrt(2), abs=1e-12)

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
            assert _float_error(triad_circles(q).circles[i].center(), exact[i]) <= 1e-14

    @pytest.mark.parametrize("factor", [1e-140, 1e140])
    def test_extreme_scales(self, factor):
        # the lifts |z|^2 / 2 and the crosses of raw coordinates would
        # underflow or overflow; the side table is rescaled by a power of two
        for shape in ("convex-noncyclic", "concave", "trapezoid"):
            for q in generic_quads(20, shape, seed=1):
                big = Quadrilateral(*(Point(v.x * factor, v.y * factor) for v in q.vertices()))
                for o, moved in zip(triad_circles(q).circles, triad_circles(big).circles):
                    assert moved.center().dist(o.center() * factor) <= 1e-14 * big.scale()
                    assert abs(moved.radius() - o.radius() * factor) <= 1e-14 * big.scale()
                w, moved = analyze(q).w, analyze(big).w
                assert moved.dist(w * factor) <= 1e-14 * big.scale()

    def test_collinear_triple(self):
        # validation happens when the quadrilateral is built
        with pytest.raises(CollinearInput):
            Quadrilateral(Point(0, 0), Point(2, 0), Point(4, 0), Point(1, 3))


class TestGenerations:
    def test_square_degenerates(self):
        with pytest.raises(CyclicDegeneration) as exc:
            next_generation(SQUARE)
        assert exc.value.point.dist(Point(0, 0)) < 1e-12

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
        sides1 = sorted(v1[i].dist(v1[(i + 1) % 4]) for i in range(4))
        sides2 = sorted(v2[i].dist(v2[(i + 1) % 4]) for i in range(4))
        ratios = [s2 / s1 for s1, s2 in zip(sides1, sides2)]
        diags = [v2[0].dist(v2[2]) / max(v1[0].dist(v1[2]), v1[1].dist(v1[3])),
                 v2[1].dist(v2[3]) / min(v1[0].dist(v1[2]), v1[1].dist(v1[3]))]
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
                conj = _conjugates_in_triads(q, 1e-9)
                gap = max(p.dist(c) for p, c in zip(prev.vertices(), conj))
                assert gap <= 1e-12 * prev.scale()

    def test_cyclic_input_has_no_prev_generation(self):
        with pytest.raises(OrthocentricDegeneration, match="cyclic"):
            prev_generation(SQUARE)

    def test_generation_maps_validate_their_output_at_the_callers_tol(self):
        # B sits 1e-3 off AC: t's least triad height is 4.0e-4 of its
        # diameter, and that of its neighbours prev(t) and next(t) 4.8e-4, so
        # at tol 4.4e-4 both maps take a valid input to an invalid output
        t = Quadrilateral(Point(0, 0), Point(1, 1e-3), Point(2, 0), Point(0.5, 2))
        tol = 4.4e-4
        for step, q in ((next_generation, prev_generation(t)),
                        (prev_generation, next_generation(t))):
            Quadrilateral(*q.vertices(), tol=tol)
            assert quad_distance(step(q), t) < 1e-12
            with pytest.raises(CollinearInput):
                step(q, tol)

    @pytest.mark.parametrize("k", [2.0 ** -200, 2.0 ** 200])
    def test_prev_generation_scales_exactly(self, k):
        # the conjugation weights are of degree 6 in the coordinates; unscaled,
        # they underflowed to 0 below about 1e-54 and the division raised
        # ZeroDivisionError
        scaled = Quadrilateral(*(v * k for v in GENERIC.vertices()))
        assert prev_generation(scaled).vertices() == tuple(
            v * k for v in prev_generation(GENERIC).vertices())

    def test_area_ratio_law(self):
        r = similarity_ratio(GENERIC)
        q2 = next_generation(GENERIC)
        assert q2.area() / GENERIC.area() == pytest.approx(abs(r), abs=1e-12)


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
        off = Point(1e8, 7e7)
        for q in generic_quads(60, seed=11):
            far = Quadrilateral(*(v + off for v in q.vertices()))
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
            signs.add(u.cross(v) > 0)
        assert len(signs) == 2

    def test_orthocentric(self):
        assert classify(ortho_quad()).orthocentric


class TestAngleDecomposition:
    def test_parts_sum_to_interior_angle(self):
        # the diagonal splits each interior angle into the two directed
        # angles whose cotangents the identities pair
        A, B, C, D = (v.to_complex() for v in GENERIC.vertices())
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
        assert max(cotangent_identity_residuals(GENERIC)) < 1e-9


class TestIsopticPoint:
    def test_cyclic_gives_circumcenter(self):
        q = Quadrilateral(*(Point(2 + math.cos(t), -1 + math.sin(t))
                            for t in (0.2, 1.5, 3.0, 4.8)))
        w = isoptic_point(q)
        assert is_finite(w)
        assert w.dist(Point(2, -1)) < 1e-9

    def test_orthocentric_at_infinity(self):
        assert isinstance(isoptic_point(ortho_quad()), AtInfinity)

    def test_agrees_with_iteration_limit(self):
        w = isoptic_point(GENERIC)
        w2 = isoptic_point_via_limit(GENERIC)
        assert w.dist(w2) < 1e-8 * GENERIC.scale()

    def test_all_methods_agree(self):
        w = isoptic_point(GENERIC)
        for other in (isoptic_point_via_inversion(GENERIC),
                      isoptic_point_via_inv_iso(GENERIC),
                      isoptic_point_via_limit(GENERIC)):
            assert w.dist(other) < 1e-8 * GENERIC.scale()

    def test_lies_on_all_six_cs(self):
        from isoptic.kernel import circle_of_similitude
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
                image = Quadrilateral(*(w + (v - w) * r for v in q.vertices()))
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
                assert w.dist(isoptic_point(q)) < 1e-7 * q.scale()
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
        assert w.dist(a) / w.dist(c) == pytest.approx(
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
            assert f.dist(e) < 1e-12

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
        assert s.dist(Point(2, 4)) < 1e-9

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
            assert m.dist(e) < 1e-14

    def test_always_parallelogram(self):
        for q in (GENERIC, TRAPEZOID, DART):
            assert parallelogram_residual(varignon(q), q.scale()) < 1e-14

    def test_cyclic_equals_pedal_of_circumcenter(self):
        q = Quadrilateral(*(Point(5 * math.cos(t), 5 * math.sin(t))
                            for t in (0.5, 1.6, 3.1, 4.7)))
        mids = varignon(q)
        feet = pedal_quadrilateral(q, Point(0, 0))
        for m, f in zip(mids, feet):
            assert m.dist(f) < 1e-9


class TestIsogonalConjugateQuad:
    def test_square_center_fixed(self):
        pts = isogonal_conjugate_quad(SQUARE, Point(0, 0))
        for p in pts:
            assert is_finite(p) and p.dist(Point(0, 0)) < 1e-10

    def test_conjugate_of_w_is_parallelogram(self):
        w = isoptic_point(GENERIC)
        pts = isogonal_conjugate_quad(GENERIC, w)
        assert all(is_finite(p) for p in pts)
        assert parallelogram_residual(pts, GENERIC.scale()) < 1e-8

    def test_conjugate_of_s_escapes_to_infinity(self):
        s = simson_point(GENERIC)
        pts = isogonal_conjugate_quad(GENERIC, s)
        assert all(isinstance(p, AtInfinity) for p in pts)


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
        assert rec.dist(d) < 1e-8 * GENERIC.scale()

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


class TestDualityAndTransport:
    def test_duality_residual_small_at_w(self):
        w = isoptic_point(GENERIC)
        assert quadrangle_duality_residual(GENERIC, w, 1.0) < 1e-7

    def test_duality_independent_of_mirror_radius(self):
        w = isoptic_point(GENERIC)
        r1 = quadrangle_duality_residual(GENERIC, w, 0.5)
        r2 = quadrangle_duality_residual(GENERIC, w, 3.0)
        assert r1 < 1e-7 and r2 < 1e-7

    def test_duality_large_off_w(self):
        assert quadrangle_duality_residual(GENERIC, Point(2, 1), 1.0) > 1e-4

    @pytest.mark.parametrize("shape", ["convex-noncyclic", "concave", "trapezoid"])
    def test_duality_rises_off_w(self, shape):
        # W moved by 1e-6 diameters leaves the image's circles of similitude
        # by a first-order amount (at least 3.5e-7 over these 600 cases)
        for q in generic_quads(200, shape, seed=3):
            w = isoptic_point(q)
            moved = Point(w.x + 1e-6 * q.scale(), w.y)
            assert quadrangle_duality_residual(q, moved, 1.0) > 1e-8

    @pytest.mark.parametrize("shape", ["convex-noncyclic", "concave", "trapezoid"])
    def test_duality_holds_at_w_on_a_thousand_cases(self, shape):
        for q in generic_quads(1000, shape, seed=7):
            w = isoptic_point(q)
            assert is_finite(w)
            assert quadrangle_duality_residual(q, w, 1.0) <= 1e-12

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
    return math.hypot(float(Fraction(p.x) - exact[0]), float(Fraction(p.y) - exact[1]))


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
        import isoptic.quad as quad
        calls = self._record(monkeypatch, ("classify", "triad_circles", "circumcenter"))
        for shape in SHAPE_CLASSES:
            for q in generic_quads(5, shape, seed=5):
                for seen in calls.values():
                    seen.clear()
                quad.analyze(q)
                assert len(calls["classify"]) == 1
                assert calls["triad_circles"] == [q]
                # one circumcenter per triad system: the other three centers
                # are the closed-form side table away from it
                assert len(calls["circumcenter"]) == 1

    def test_w_and_s_build_no_circle_and_no_shape(self, monkeypatch):
        import isoptic.quad as quad
        quads = [q for shape in SHAPE_CLASSES for q in generic_quads(5, shape, seed=5)]
        calls = self._record(monkeypatch, ("circumcircle", "triad_circles", "classify",
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
        assert len(set(seen)) == 5

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


class TestAtInfinityCuts:
    """The fixed cuts of isoptic_point and simson_point decide as classify's
    orthocentric and parallelogram tests do."""

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
            assert isoptic_point(q) == AtInfinity.along(v.x, v.y)


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
                    return Point.from_complex(rot * p.to_complex() + shift)

                copy = Quadrilateral(*(move(v) for v in q.vertices()))
                yield q, copy, move, rot, 100.0 * eps * (1.0 + offset)

    def test_w_s_and_r_follow_a_similarity(self):
        for q, copy, move, rot, rel in self._copies():
            for construction in (isoptic_point, simson_point):
                p, moved = construction(q), construction(copy)
                if is_finite(p):
                    assert is_finite(moved)
                    assert moved.dist(move(p)) <= rel * copy.scale()
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
                assert moved.center().dist(move(o.center())) <= rel * copy.scale()
                assert abs(moved.radius() - abs(rot) * o.radius()) <= rel * copy.scale()

    def test_pedal_feet_simson_line_and_reconstructions_follow_a_similarity(self):
        for q, copy, move, rot, rel in self._copies():
            st_q, st_copy = QuadState(q), QuadState(copy)
            bound = rel * copy.scale()
            for feet, moved in ((st_q.pedal_w, st_copy.pedal_w), (st_q.pedal_s, st_copy.pedal_s)):
                if feet is not None:
                    assert max(f.dist(move(g)) for f, g in zip(moved, feet)) <= bound
            if st_copy.pedal_w is not None:
                rebuilt = reconstruct_from_pedal_w(st_copy.w, st_copy.pedal_w)
                assert quad_distance(rebuilt, copy) <= rel
            if st_copy.pedal_s is None:
                continue
            assert collinearity_residual(st_copy.pedal_s) <= bound
            d = simson_line(st_copy).direction()
            ref = rot / abs(rot) * simson_line(st_q).direction().to_complex()
            assert abs(ref.real * d.y - ref.imag * d.x) <= rel
            # a trapezoid's S lies on two side lines, so two of its feet are S
            if not st_q.shape.trapezoid:
                rebuilt = reconstruct_from_simson(st_copy.s, st_copy.pedal_s)
                assert quad_distance(rebuilt, copy) <= rel


_COORD = st.one_of(st.integers(-8, 8).map(float),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@given(vertices=st.lists(st.tuples(_COORD, _COORD), min_size=4, max_size=4),
       scale=st.sampled_from((1e-12, 1.0, 1e9)), offset=st.tuples(_COORD, _COORD))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
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
