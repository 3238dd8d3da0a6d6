"""The aggregate report of one quadrilateral, loaded on first use.

``analyze`` and its ``AnalysisReport``: r, W, S, the triad circles, the
pedal quadrilaterals and the residuals of the identities at W and S, which
the verify suite reads too.  Every residual takes the QuadState of
``quad`` and reads its parts.
"""

from __future__ import annotations

import math

from .errors import ConcentricCircles, CyclicDegeneration, DegenerateRay, IllConditionedAngles
from .kernel import (
    MaybePoint,
    Point,
    Report,
    max_or_nan,
    unit_near,
)
from .quad import (
    QuadOrState,
    QuadState,
    Quadrilateral,
    ShapeClass,
    TriadSystem,
    collinearity_residual,
    cyclic_collapse,
    state_of,
    varignon,
)


class AnalysisReport(Report):
    """Everything derived from one quadrilateral, with invariant residuals."""

    _fields = ("quad", "triads", "r", "w", "s", "shape", "pedal_w", "pedal_s", "varignon",
               "isoptic_quantity", "residuals")

    def __init__(self, quad: Quadrilateral, triads: TriadSystem, r: float, w: MaybePoint,
                 s: MaybePoint, shape: ShapeClass, pedal_w: list[Point] | None,
                 pedal_s: list[Point] | None, varignon: list[Point],
                 isoptic_quantity: float | None, residuals: dict[str, float] | None = None):
        self.quad = quad
        self.triads = triads
        self.r = r
        self.w = w
        self.s = s
        self.shape = shape
        self.pedal_w = pedal_w
        self.pedal_s = pedal_s
        self.varignon = varignon
        self.isoptic_quantity = isoptic_quantity
        self.residuals = {} if residuals is None else residuals


def isodynamic_ratios(q: QuadOrState, w: Point) -> float:
    """Relative spread of |w - vertex_k| * R_sigma(k); ~0 exactly at W.

    sigma pairs each vertex with the radius of the triad circle through the
    other three: (A, R3), (B, R4), (C, R1), (D, R2).  The distances are read
    in w's frame (QuadState.frame) and the radii in an exact power of two
    near the largest, so that no distance or product overflows.
    """
    st = state_of(q)
    pa, pb, pc, pd = st.frame(w)[2]
    t = st.triads
    r1, r2, r3, r4 = t.o1.r, t.o2.r, t.o3.r, t.o4.r
    runit = unit_near(max(r1, r2, r3, r4))
    pa, pb = abs(pa) * (r3 * runit), abs(pb) * (r4 * runit)
    pc, pd = abs(pc) * (r1 * runit), abs(pd) * (r2 * runit)
    mean = (pa + pb + pc + pd) / 4.0  # sum's order; from 0, which changes no product >= 0
    if mean == 0.0:
        return 0.0
    # every term reads the mean, which reads every distance: one nan is all nan
    return max(abs(pa - mean), abs(pb - mean), abs(pc - mean), abs(pd - mean)) / mean


def angle_sums_at_point(q: QuadOrState, w: Point) -> float:
    """Max residual of angle(X w Y) = angle(X u Y) + angle(X v Y) over the
    four sides XY, in directed angles mod pi; ~0 exactly at W.  The sides differ
    by the phase of t = (Y - w) / (X - w) (X - u) / (Y - u) (X - v) / (Y - v),
    atan2(|Im t|, |Re t|) from a multiple of pi.  w at a vertex raises DegenerateRay."""
    # the offsets w - X in w's frame (QuadState.frame), whose quotients are
    # those of X - w, and the vertices in q's own, where no offset,
    # difference or quotient of them overflows
    st = state_of(q)
    wa, wb, wc, wd = st.frame(w)[2]
    a, b, c, d = st.q._rel
    if not (wa and wb and wc and wd):
        raise DegenerateRay("w coincides with a vertex")
    frame = st.q._unit
    a, b, c, d = a * frame, b * frame, c * frame, d * frame
    ac, ca, bd, db = a - c, c - a, b - d, d - b
    # the sides (X, Y, U, V) = (A, B, C, D), (B, C, A, D), (C, D, A, B) and (D, A, B, C)
    t1 = wb / wa * ac / (b - c) * (a - d) / bd
    t2 = wc / wb * (b - a) / ca * bd / (c - d)
    t3 = wd / wc * ca / (d - a) * (c - b) / db
    t4 = wa / wd * db / (a - b) * (d - c) / ac
    atan2 = math.atan2
    return max_or_nan(atan2(abs(t1.imag), abs(t1.real)), atan2(abs(t2.imag), abs(t2.real)),
                      atan2(abs(t3.imag), abs(t3.real)), atan2(abs(t4.imag), abs(t4.real)))


def parallelogram_residual(pts: list[Point], scale: float) -> float:
    """Scale-free deviation of the opposite-side vector sums from zero."""
    e1 = (pts[1] - pts[0]) + (pts[3] - pts[2])
    e2 = (pts[2] - pts[1]) + (pts[0] - pts[3])
    # each sum holds every point once with each sign: one is nan just where the other is
    return max(abs(e1), abs(e2)) / scale


# ---------------------------------------------------------------------------
# residuals of the identities at W and S, shared by analyze and the verify
# suite; None where W or S is not finite


def six_cs_residual(st: QuadState) -> float | None:
    """Max scale-free distance of W from the six circles of similitude, each
    read in the closed form on W's frame: curves.max_cs_distance's pair loop,
    bit for bit, written out over its six pairs in its order."""
    if st.w_frame is None or st.cyclic:
        return None
    t, tol = st.triads, st.tol
    (o1, o2, o3, o4), (u1, u2, u3, u4), (d1, d2, d3, d4), (s1, s2, s3, s4) = st.w_centers
    t1, t2, t3, t4 = tol * s1, tol * s2, tol * s3, tol * s4
    c12, c13, c14, c23, c24, c34 = (abs(o1 - o2), abs(o1 - o3), abs(o1 - o4), abs(o2 - o3),
                                    abs(o2 - o4), abs(o3 - o4))
    # a pair of centers less than tol times either radius apart (the loop's
    # gap < tol gap never holds: a quadrilateral's frame rejects a tol >= 1)
    if (c12 < t1 or c12 < t2 or c13 < t1 or c13 < t3 or c14 < t1 or c14 < t4
            or c23 < t2 or c23 < t3 or c24 < t2 or c24 < t4 or c34 < t3 or c34 < t4):
        raise ConcentricCircles("circle of similitude of concentric circles")
    if not (c12 and c13 and c14 and c23 and c24 and c34):
        return math.inf  # centers at one point, where tol r underflows
    r1, r2, r3, r4 = t.o1.r, t.o2.r, t.o3.r, t.o4.r
    k12, k13, k14, k23, k24, k34 = r1 / r2, r1 / r3, r1 / r4, r2 / r3, r2 / r4, r3 / r4
    # max keeps the first of equal or nan distances, as the loop does
    return max(abs(d1 - k12 * d2) / (abs(u1 - k12 * k12 * u2) + k12 * c12) * (d1 + k12 * d2),
               abs(d1 - k13 * d3) / (abs(u1 - k13 * k13 * u3) + k13 * c13) * (d1 + k13 * d3),
               abs(d1 - k14 * d4) / (abs(u1 - k14 * k14 * u4) + k14 * c14) * (d1 + k14 * d4),
               abs(d2 - k23 * d3) / (abs(u2 - k23 * k23 * u3) + k23 * c23) * (d2 + k23 * d3),
               abs(d2 - k24 * d4) / (abs(u2 - k24 * k24 * u4) + k24 * c24) * (d2 + k24 * d4),
               abs(d3 - k34 * d4) / (abs(u3 - k34 * k34 * u4) + k34 * c34) * (d3 + k34 * d4)
               ) / st.w_frame[0] / st.scale


def area_ratio_residual(st: QuadState) -> float | None:
    """| |r| - area(Q2) / area(Q1) |, with no Q2 built: Q2's doubled area is
    read from the closed-form side table of the triad system (O2 - O1,
    O3 - O1, O4 - O1) in Q1's frame, where Q1's is read too.  None where
    Q1's two lobes cancel to area 0; raises where r is undefined, and
    CyclicDegeneration where Q2 is one point."""
    if st.cyclic:
        raise cyclic_collapse(st)
    a1 = st.q._area2()
    if a1 == 0.0:
        return None
    unit, (o12, o13, o14) = st.q._unit, st.triads.diffs[:3]
    t0, t1, t2 = o12 * unit, o13 * unit, o14 * unit
    a2 = (t0.real * t1.imag - t0.imag * t1.real) + (t1.real * t2.imag - t1.imag * t2.real)
    return abs(abs(st.r) - abs(a2 / a1))


def isoptic_spread_residual(st: QuadState) -> float | None:
    """Relative spread of the four d_i / R_i at W; None on cyclic input,
    where W is the common center and every d_i / R_i is rounding noise."""
    qty, mean = st.quantities
    if qty is None or st.cyclic or mean == 0.0:
        return None
    return (max(qty) - min(qty)) / mean


def isodynamic_residual(st: QuadState) -> float | None:
    return None if st.w_frame is None else isodynamic_ratios(st, st.w)


def angle_sums_residual(st: QuadState) -> float | None:
    return None if st.w_frame is None else angle_sums_at_point(st, st.w)


def pedal_w_residual(st: QuadState) -> float | None:
    """The pedal feet of W form a parallelogram."""
    feet = st.pedal_w
    return None if feet is None else parallelogram_residual(feet, st.scale)


def pedal_s_residual(st: QuadState) -> float | None:
    """The pedal feet of S are collinear."""
    feet = st.pedal_s
    return None if feet is None else collinearity_residual(feet) / st.scale


# ---------------------------------------------------------------------------
# the aggregate report


# report key -> residual
_RESIDUALS = {
    "isoptic_spread": isoptic_spread_residual,
    "isodynamic": isodynamic_residual,
    "pedal_w_parallelogram": pedal_w_residual,
    "angle_sums": angle_sums_residual,
    "six_cs": six_cs_residual,
    "pedal_s_collinear": pedal_s_residual,
    "area_ratio": area_ratio_residual,
}


def analyze(q: Quadrilateral) -> AnalysisReport:
    st = QuadState(q)
    shape, triads = st.shape, st.triads
    try:
        r = st.r
    except IllConditionedAngles:
        r = math.nan
    residuals: dict[str, float] = {}
    for name, fn in _RESIDUALS.items():
        try:
            res = fn(st)
        except (CyclicDegeneration, ConcentricCircles, IllConditionedAngles):
            continue  # the area ratio needs r and a Q2 not one point, the six CS centers apart
        if res is not None:
            residuals[name] = res
    return AnalysisReport(quad=q, triads=triads, r=r, w=st.w, s=st.s, shape=shape,
                          pedal_w=st.pedal_w, pedal_s=st.pedal_s, varignon=varignon(q),
                          isoptic_quantity=st.quantities[1], residuals=residuals)
