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
from .kernel import AtInfinity, MaybePoint, Point, finite_point, is_finite
from .quad import QuadOrState, Quadrilateral, centroid_of, state_of


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
    st = state_of(q)
    if not is_finite(st.w):
        return st.w
    try:
        z3 = st.next.next.q._z
    except CyclicDegeneration as exc:
        return exc.point
    z1, unit = st.q._z, st.q._unit
    g1, g3 = centroid_of(z1), centroid_of(z3)
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
        return Point(centroid_of((a, b, c, d)))
    return a if not is_finite(a) else b if not is_finite(b) else c if not is_finite(c) else d


def isoptic_point_via_inversion(q: QuadOrState) -> MaybePoint:
    """W as the inversion of each vertex in the matching second-generation
    triad circle; the four images are averaged."""
    st = state_of(q)   # its Q2 raises CyclicDegeneration when cyclic
    t, tol = st.next.triads, st.tol
    a, b, c, d = st.q._z
    return _mean_image(invert_point(t.o1, a, tol), invert_point(t.o2, b, tol),
                       invert_point(t.o3, c, tol), invert_point(t.o4, d, tol))


def isoptic_point_via_inv_iso(q: QuadOrState) -> MaybePoint:
    """W as inversion-of-conjugate: each vertex is conjugated in the triangle
    of the remaining three, then inverted in that triangle's circumcircle."""
    st = state_of(q)
    t, tol = st.triads, st.tol
    pc, pd, pa, pb = _conjugates_in_triads(st.q)
    return _mean_image(invert_point(t.o1, pc, tol), invert_point(t.o2, pd, tol),
                       invert_point(t.o3, pa, tol), invert_point(t.o4, pb, tol))


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
    a, g, frame = st.q.a, (ab + ac + ad) / 4.0, st.q._unit
    va, vb, vc, vd = 0j - g, ab - g, ac - g, ad - g
    la, lb = mirrored_cevian(0j, ab, ad, oa), mirrored_cevian(0j, bc, -ab, ob)
    lc, ld = mirrored_cevian(0j, cd, -bc, oc), mirrored_cevian(0j, -ad, -cd, od)
    # P_A = l_A ^ l_B, P_B = l_B ^ l_C, P_C = l_C ^ l_D, P_D = l_D ^ l_A
    meets = ((line_meet(va, la, vb, lb, tol), la), (line_meet(vb, lb, vc, lc, tol), lb),
             (line_meet(vc, lc, vd, ld, tol), lc), (line_meet(vd, ld, va, la, tol), ld))
    return [AtInfinity.along(u.real, u.imag) if m is None
            else finite_point(a + (m + g) / frame, "the isogonal conjugate") for m, u in meets]
