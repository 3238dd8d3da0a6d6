"""Second constructions of the report's quantities, loaded on first use.

The three further routes to W (the limit of the iteration, inversion in the
second generation's triads, and inversion of the triad conjugates), the
isogonal conjugate with respect to the quadrilateral of the paper's final
theorem, and the interior angles: the verify suite checks the report
against them, and no other command runs them.
"""

from __future__ import annotations

import math

from .curves import invert_point, line_meet, meet_of_cevians, mirrored_cevian
from .errors import CyclicDegeneration, DegenerateConjugate, PointAtInfinity
from .kernel import AtInfinity, Circle, MaybePoint, Point, finite_point, is_finite
from .quad import QuadOrState, Quadrilateral, TriadSystem, centroid_of, state_of


def interior_angles(q: QuadOrState) -> tuple[float, float, float, float]:
    """Interior angles in (0, 2*pi), from the turns of the side shape; a
    reflex vertex of a concave quadrilateral gets its actual reflex angle."""
    st = state_of(q)
    orient = 1.0 if st.q._area2() > 0.0 else -1.0
    ta, tb, tc, td = st.side_shape[2]
    atan2, turn = math.atan2, 2.0 * math.pi
    return (atan2(orient * ta.imag, ta.real) % turn, atan2(orient * tb.imag, tb.real) % turn,
            atan2(orient * tc.imag, tc.real) % turn, atan2(orient * td.imag, td.real) % turn)


def _conjugates_in_triads(q: Quadrilateral) -> list[MaybePoint]:
    """The isogonal conjugate of the vertex left out of each triad DAB, ABC,
    BCD and CDA (C, D, A and B) in the triangle of that triad, isogonal_conjugate_triangle's
    in one pass, relative to q's anchor: each pair's length and unit direction formed once."""
    a, b, c, d, tol = *q._rel, q.tol
    ab, ac, ad, bc, bd, cd = b - a, c - a, d - a, c - b, d - b, d - c
    nab, nac, nad, nbc, nbd, ncd = abs(ab), abs(ac), abs(ad), abs(bc), abs(bd), abs(cd)
    # each pair is a gap from the left-out vertex of two triads: the vertex test of all four
    if min(nab, nac, nad, nbc, nbd, ncd) <= tol * max(nab, nac, nad, nbc, nbd, ncd):
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


def isoptic_point_via_limit(q: QuadOrState) -> MaybePoint:
    """The limit of the perpendicular-bisector iteration, as the center of
    the similarity that takes Q1 to Q3.

    Q^(k+2) = W + r (Q^(k) - W), so with g1 and g3 the centroids, u and v
    the vertices of Q1 and Q3 about them and k = sum conj(u_i) v_i /
    sum |u_i|^2 (r up to rounding), W = g1 + (g3 - g1) / (1 - k).  u, v and
    g3 - g1 are read in Q1's power-of-two frame, so no square overflows or
    underflows.  A cyclic input gives the center its Q2 collapses to, and an
    orthocentric one (r = 1) isoptic_point's point at infinity.  Near it k's rounding
    reaches 9 eps, so a k within 16 eps of 1 leaves W a digit at most: PointAtInfinity.
    The period-two classes (r = -1) need no special case: there 1 - k = 2.
    """
    st = state_of(q)
    if not is_finite(st.w):
        return st.w
    try:
        q3 = st.next.next.q
    except CyclicDegeneration as exc:
        return exc.point
    q1, unit = st.q, st.q._unit
    g1, g3 = centroid_of(q1._rel), centroid_of(q3._rel)
    a, b, c, d = q1._rel
    ua, ub, uc, ud = (a - g1) * unit, (b - g1) * unit, (c - g1) * unit, (d - g1) * unit
    a, b, c, d = q3._rel
    va, vb, vc, vd = (a - g3) * unit, (b - g3) * unit, (c - g3) * unit, (d - g3) * unit
    # both sums from int 0, as sum starts; |u|^2 = Re(conj(u) u) exactly
    k = ((0 + ua.conjugate() * va + ub.conjugate() * vb + uc.conjugate() * vc
          + ud.conjugate() * vd)
         / (0 + (ua.real * ua.real + ua.imag * ua.imag) + (ub.real * ub.real + ub.imag * ub.imag)
            + (uc.real * uc.real + uc.imag * uc.imag) + (ud.real * ud.real + ud.imag * ud.imag)))
    if abs(1.0 - k) <= 3.552713678800501e-15:
        raise PointAtInfinity("k is 1 within its rounding, near the orthocentric locus: no center")
    shift = g3 - (q1._anchor - q3._anchor) - g1  # g3 relative to Q1's anchor, less g1
    return finite_point(g1 + shift * unit / (1.0 - k) / unit - q1._neg_anchor, "W")


def _mean_inverse(q: Quadrilateral, t: TriadSystem, shift: complex, z: tuple | list) -> MaybePoint:
    """The mean of the inverses of the points z in t's circles, both from q's anchor (t's own
    at an input's 0j, else t._rel - shift: q's anchor less t's), or the first at infinity."""
    tol, (m1, m2, m3, m4) = q.tol, t.circles if not q._anchor else [
        Circle(o - shift, m.r) for o, m in zip(t._rel, t.circles)]
    a, b = invert_point(m1, z[0], tol), invert_point(m2, z[1], tol)
    c, d = invert_point(m3, z[2], tol), invert_point(m4, z[3], tol)
    if is_finite(a) and is_finite(b) and is_finite(c) and is_finite(d):
        return Point(centroid_of((a, b, c, d)) - q._neg_anchor)
    return a if not is_finite(a) else b if not is_finite(b) else c if not is_finite(c) else d


def isoptic_point_via_inversion(q: QuadOrState) -> MaybePoint:
    """W as the inversion of each vertex in the matching second-generation
    triad circle; the four images are averaged."""
    st = state_of(q)   # its Q2 raises CyclicDegeneration when cyclic
    return _mean_inverse(st.q, st.next.triads, st.q._anchor - st.next.q._anchor, st.q._rel)


def isoptic_point_via_inv_iso(q: QuadOrState) -> MaybePoint:
    """W as inversion-of-conjugate: each vertex is conjugated in the triangle
    of the remaining three, then inverted in that triangle's circumcircle."""
    st = state_of(q)  # the conjugates of C, D, A and B, in the triads of o1 to o4
    return _mean_inverse(st.q, st.triads, 0j, _conjugates_in_triads(st.q))


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
    st = state_of(q)
    tol, (unit, _, (oa, ob, oc, od)) = st.tol, st.frame(p)
    na, nb, nc, nd = abs(oa), abs(ob), abs(oc), abs(od)
    if min(na, nb, nc, nd) < tol * max(st.scale * unit, na, nb, nc, nd):  # of q and p
        raise DegenerateConjugate("p coincides with a vertex")
    # each vertex about the centroid g in the side table's frame, and the
    # direction of its line: rays along its outgoing side and its reversed incoming one
    ab, ac, ad, bc, _, cd = st.q._diffs
    za, g, frame, back = st.q._rel[0], (ab + ac + ad) / 4.0, st.q._unit, st.q._neg_anchor
    va, vb, vc, vd = 0j - g, ab - g, ac - g, ad - g
    la, lb = mirrored_cevian(0j, ab, ad, oa), mirrored_cevian(0j, bc, -ab, ob)
    lc, ld = mirrored_cevian(0j, cd, -bc, oc), mirrored_cevian(0j, -ad, -cd, od)
    # P_A = l_A ^ l_B, P_B = l_B ^ l_C, P_C = l_C ^ l_D, P_D = l_D ^ l_A
    meets = ((line_meet(va, la, vb, lb, tol), la), (line_meet(vb, lb, vc, lc, tol), lb),
             (line_meet(vc, lc, vd, ld, tol), lc), (line_meet(vd, ld, va, la, tol), ld))
    return [AtInfinity.along(u.real, u.imag) if m is None else
            finite_point(za + (m + g) / frame - back, "the isogonal conjugate") for m, u in meets]
