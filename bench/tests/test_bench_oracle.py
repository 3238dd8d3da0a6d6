"""The 60-digit oracle against the defining properties of r, W and S."""

import mpmath
import pytest

import oracle
from isoptic.verify import SHAPE_CLASSES, CaseSpec, random_quadrilateral

TIGHT = mpmath.mpf("1e-40")  # far below any double rounding, far above 60-digit noise


def quads(shape_class, n=3):
    return [[(v.x, v.y) for v in random_quadrilateral(CaseSpec(5, shape_class), i).vertices()]
            for i in range(n)]


def triads(q):
    a, b, c, d = q
    return [(oracle.circumcenter(*t), abs(oracle.circumcenter(*t) - t[0]))
            for t in ((d, a, b), (a, b, c), (b, c, d), (c, d, a))]


def area(q):
    return abs(sum(oracle._cross(q[i], q[(i + 1) % 4]) for i in range(4))) / 2


def foot(p, u, v):
    d = v - u
    return u + d * (oracle._dot(p - u, d) / oracle._dot(d, d))


@pytest.mark.parametrize("shape_class", SHAPE_CLASSES)
def test_w_on_all_six_circles_of_similitude(shape_class):
    for verts in quads(shape_class):
        ref = oracle.evaluate(verts)
        with mpmath.workdps(oracle.DPS):
            q = [oracle._mpc(v) for v in verts]
            circles = triads(q)
            if not ref.w.finite:
                # r = 1 up to rounding of the input: congruent triad circles,
                # and the CS of o1, o2 is the perpendicular bisector of their centers
                assert abs(1 - oracle.ratio(q)) < oracle._W_INF
                radii = [rad for _, rad in circles]
                assert max(radii) - min(radii) < 1e-12 * ref.diameter
                normal = circles[1][0] - circles[0][0]
                assert abs(oracle._dot(mpmath.mpc(*ref.w.xy), normal)) < TIGHT
                continue
            w = mpmath.mpc(*ref.w.xy)
            for i in range(4):
                for j in range(i + 1, 4):
                    (oi, ri), (oj, rj) = circles[i], circles[j]
                    # Apollonius condition |W Oi| / |W Oj| = Ri / Rj
                    assert abs(abs(w - oi) * rj - abs(w - oj) * ri) < TIGHT * ref.diameter ** 2


@pytest.mark.parametrize("shape_class", SHAPE_CLASSES)
def test_pedal_feet_of_s_are_collinear(shape_class):
    for verts in quads(shape_class):
        ref = oracle.evaluate(verts)
        with mpmath.workdps(oracle.DPS):
            a, b, c, d = q = [oracle._mpc(v) for v in verts]
            if not ref.s.finite:
                assert abs(a + c - b - d) < oracle._S_INF * ref.diameter
                assert abs(oracle._cross(mpmath.mpc(*ref.s.xy), d - a)) < TIGHT
                continue
            s = mpmath.mpc(*ref.s.xy)
            feet = [foot(s, q[i], q[(i + 1) % 4]) for i in range(4)]
            for k in (2, 3):
                assert abs(oracle._cross(feet[1] - feet[0], feet[k] - feet[0])) \
                    < TIGHT * ref.diameter ** 2


@pytest.mark.parametrize("shape_class", SHAPE_CLASSES)
def test_ratio_is_the_area_ratio(shape_class):
    for verts in quads(shape_class):
        ref = oracle.evaluate(verts)
        with mpmath.workdps(oracle.DPS):
            q = [oracle._mpc(v) for v in verts]
            q2 = oracle.next_generation(q)
            assert abs(abs(ref.r) - area(q2) / area(q)) < TIGHT


def test_readme_quadrilateral():
    ref = oracle.evaluate([(0, 0), (4, 0), (5, 3), (1, 4)])
    assert float(ref.r) == pytest.approx(-0.0272435897435897, rel=1e-14)
    assert [float(x) for x in ref.w.xy] == pytest.approx([2.2917, 1.9266], abs=1e-4)


def test_orthocentric_limit_direction_depends_on_the_approach():
    """Why the oracle reports a conventional direction for W at r = 1."""
    with mpmath.workdps(oracle.DPS):
        a, b, c = mpmath.mpc(0.1, 0.2), mpmath.mpc(1.0, -0.1), mpmath.mpc(0.4, 0.9)
        h = a + b + c - 2 * oracle.circumcenter(a, b, c)
        directions = []
        for nudge in (mpmath.mpc(1, 0), mpmath.mpc(0, 1)):
            q = [a, b, c, h + mpmath.mpf("1e-25") * nudge]
            r = oracle.ratio(q)
            w = (oracle.next_generation(oracle.next_generation(q))[0] - r * a) / (1 - r)
            directions.append(oracle.unit(w))
        (x1, y1), (x2, y2) = directions
        assert abs(x1 * y2 - x2 * y1) > 0.1
