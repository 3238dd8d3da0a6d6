"""The closed forms of W, S, r, Q2 and the distance from a circle of
similitude, proved in exact symbolic arithmetic.

A similarity puts A at 0 and B at 1, so C = (x1, y1) and D = (x2, y2) are
the only free coordinates, and every construction below is a rational
function of them.  sympy's rational function field reduces each one to
lowest terms as it is built, so an equality here is an identity in x1, y1,
x2, y2, not a check at sample points.  Complex numbers are pairs (re, im)
of field elements; the formulas are those of ``isoptic.quad``.  The
distance from a circle of similitude (``isoptic.curves.max_cs_distance``)
has a field of its own, of the ratio k, the point and the two centers.
"""

from functools import cache

import sympy

K, X1, Y1, X2, Y2 = sympy.field("x1,y1,x2,y2", sympy.QQ)
ZERO = (K(0), K(0))


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _scale(k, p):
    return (k * p[0], k * p[1])


def _mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _conj(p):
    return (p[0], -p[1])


def _div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    m = _mul(p, _conj(q))
    return (m[0] / n, m[1] / n)


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1]


def _cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def _circumcenter(p, q, r):
    u, v = _sub(q, p), _sub(r, p)
    ku, kv = _dot(u, u) / 2, _dot(v, v) / 2
    det = _cross(u, v)
    return (p[0] + (ku * v[1] - u[1] * kv) / det, p[1] + (u[0] * kv - ku * v[0]) / det)


def _next(vs):
    a, b, c, d = vs
    return [_circumcenter(d, a, b), _circumcenter(a, b, c),
            _circumcenter(b, c, d), _circumcenter(c, d, a)]


def _pedal(vs, p):
    feet = []
    for k in range(4):
        u, e = vs[k], _sub(vs[(k + 1) % 4], vs[k])
        feet.append(_add(u, _scale(_dot(_sub(p, u), e) / _dot(e, e), e)))
    return feet


Q1 = [(K(0), K(0)), (K(1), K(0)), (X1, Y1), (X2, Y2)]
G = _scale(K(1) / 4, _add(_add(Q1[0], Q1[1]), _add(Q1[2], Q1[3])))
Z = [_sub(v, G) for v in Q1]


def _pedal_w():
    # conj(W - g) sum s_k u_k^2 = sum s_k (u_k^2 conj z_k - z_k)
    num = den = ZERO
    for k, sign in enumerate((1, -1, 1, -1)):
        e = _sub(Z[(k + 1) % 4], Z[k])
        u2 = _div(e, _conj(e))
        den = _add(den, _scale(sign, u2))
        num = _add(num, _scale(sign, _sub(_mul(u2, _conj(Z[k])), Z[k])))
    return _add(G, _conj(_div(num, den)))


def _cotangent_r():
    # dot / cross at each vertex; the orientation sign flips all four
    # cotangents and leaves the product unchanged
    cots = []
    for i in range(4):
        nxt, prv = _sub(Q1[(i + 1) % 4], Q1[i]), _sub(Q1[i - 1], Q1[i])
        cots.append(_dot(nxt, prv) / _cross(nxt, prv))
    return (cots[0] + cots[2]) * (cots[1] + cots[3]) / 4


@cache
def _third_generation():
    return _next(_next(Q1))


def test_third_generation_is_the_homothety_about_pedal_w():
    w, r = _pedal_w(), _cotangent_r()
    for v1, v3 in zip(Q1, _third_generation()):
        assert _sub(v3, w) == _scale(r, _sub(v1, w))


def test_homothety_ratio_is_the_cotangent_formula():
    # B - A = 1, so A3B3 = r AB makes B3 - A3 the real number r
    a3, b3 = _third_generation()[:2]
    assert _sub(b3, a3) == (_cotangent_r(), K(0))


def test_pedal_feet_of_w_form_a_parallelogram():
    f1, f2, f3, f4 = _pedal(Q1, _pedal_w())
    assert _sub(f1, f2) == _sub(f4, f3)


def test_pedal_feet_of_miquel_s_are_collinear():
    a, b, c, d = Z
    s = _add(G, _div(_sub(_mul(a, c), _mul(b, d)), _sub(_add(a, c), _add(b, d))))
    f1, f2, f3, f4 = _pedal(Q1, s)
    assert _cross(_sub(f2, f1), _sub(f3, f1)) == 0
    assert _cross(_sub(f2, f1), _sub(f4, f1)) == 0


def _orient(p, q, x):
    # c_PQX = (P - X) x (Q - X), twice the signed area of the triangle P Q X
    return _cross(_sub(p, x), _sub(q, x))


def _incircle(vs):
    # Delta: the determinant of the rows (V - A, |V - A|^2) for V = B, C, D
    a = vs[0]
    (bx, by), (cx, cy), (dx, dy) = (_sub(v, a) for v in vs[1:])
    lb, lc, ld = bx * bx + by * by, cx * cx + cy * cy, dx * dx + dy * dy
    return lb * (cx * dy - cy * dx) - lc * (bx * dy - by * dx) + ld * (bx * cy - by * cx)


def _bisector_step(u, v, x, y, sign):
    # sign (i/2) (V - U) Delta / (c_UVX c_UVY)
    e = _sub(v, u)
    k = sign * _incircle(Q1) / (2 * _orient(u, v, x) * _orient(u, v, y))
    return (-k * e[1], k * e[0])


@cache
def _second_generation():
    return _next(Q1)


def test_q2_sides_share_one_incircle_determinant():
    # side k of Q2 lies on the perpendicular bisector of side k of Q1, with
    # the other two vertices x and y of Q1 in cyclic order; the sign
    # alternates from side to side
    q2 = _second_generation()
    for k in range(4):
        u, v, x, y = (Q1[(k + m) % 4] for m in range(4))
        sign = -1 if k % 2 == 0 else 1
        assert _sub(q2[(k + 1) % 4], q2[k]) == _bisector_step(u, v, x, y, sign)


def test_q2_diagonals_share_the_same_determinant():
    # A2 and C2 are the centers of (D A B) and (B C D), both through B and
    # D; B2 and D2 those of (A B C) and (C D A), both through A and C
    a, b, c, d = Q1
    a2, b2, c2, d2 = _second_generation()
    assert _sub(c2, a2) == _bisector_step(b, d, c, a, -1)
    assert _sub(d2, b2) == _bisector_step(a, c, d, b, -1)


# the circle of similitude |X - c1| = k |X - c2| of two circles, of centers c1
# and c2 and radius ratio k, and a point w, in a field of their own
_CS = sympy.field("k,wx,wy,a1,b1,a2,b2", sympy.QQ)


def test_cs_distance_closed_form():
    """The identities behind curves.max_cs_distance.  With u_i = w - c_i,
    C = (c1 - k^2 c2) / (1 - k^2) and rho^2 from completing the square:
    (1 - k^2)(w - C) = u1 - k^2 u2, (1 - k^2)^2 rho^2 = k^2 gap^2 and
    (1 - k^2)(|w - C|^2 - rho^2) = d1^2 - k^2 d2^2.  So ||w - C| - rho| is
    |d1^2 - k^2 d2^2| / (|u1 - k^2 u2| + k gap); at k = 1, d1^2 - d2^2 is
    2 gap times w's signed distance from the bisector."""
    _, k, wx, wy, a1, b1, a2, b2 = _CS
    w, c1, c2 = (wx, wy), (a1, b1), (a2, b2)
    u1, u2, k2, gap = _sub(w, c1), _sub(w, c2), k * k, _sub(c1, c2)
    a = 1 - k2
    center = _scale(1 / a, _sub(c1, _scale(k2, c2)))
    rho2 = _dot(center, center) - (_dot(c1, c1) - k2 * _dot(c2, c2)) / a
    off = _sub(w, center)
    assert _scale(a, off) == _sub(u1, _scale(k2, u2))
    assert a * a * rho2 == k2 * _dot(gap, gap)
    assert a * (_dot(off, off) - rho2) == _dot(u1, u1) - k2 * _dot(u2, u2)
    # 2 (w - m) = 2 w - c1 - c2 for the midpoint m of the centers
    assert _dot(u1, u1) - _dot(u2, u2) == _dot(_sub(_scale(2, w), _add(c1, c2)), _sub(c2, c1))
