"""Seeded random-instance generator and the invariant suite.

Each structural identity becomes a residual of one QuadState on randomized
quadrilaterals: those analyze reports, and the cross-checks by a second
construction that only this suite needs.  Everything is deterministic given
(seed, shape class, case count); each residual is divided by the diameter, 1 here.
"""

from __future__ import annotations

import cmath
import math
import random

from .curves import circumscribe, invert_point, line_meet, max_cs_distance, orthocenter
from .errors import (
    CyclicDegeneration,
    DegenerateConjugate,
    GeometryError,
    PointAtInfinity,
    RejectionExhausted,
)
from .kernel import (
    DEFAULT_TOL,
    Circle,
    Point,
    Record,
    Report,
    check_tol,
    is_finite,
    max_or_nan,
)
from .quad import (
    SHAPE_CLASSES,
    QuadState,
    Quadrilateral,
    classify,  # noqa: F401  bench/tests/test_bench_trace.py reads verify.classify
    reordered_isoptic_points,
    shape_of_sides,
    varignon,
)
from .report import (
    angle_sums_residual,
    area_ratio_residual,
    isodynamic_residual,
    isoptic_spread_residual,
    parallelogram_residual,
    pedal_s_residual,
    pedal_w_residual,
    six_cs_residual,
)
from .routes import (
    interior_angles,
    isoptic_point_via_inv_iso,
    isoptic_point_via_inversion,
    isoptic_point_via_limit,
)

# conditioning of every generated case
_MIN_ANGLE = 0.3          # radians from {0, pi, 2*pi} for every interior angle
_MAX_ASPECT = 12.0        # diameter / shortest vertex separation
_MIN_TRIAD_HEIGHT = 0.05  # least triad height / diameter
_MAX_TRIES = 4000         # draws per case before RejectionExhausted
_SIN_MIN_ANGLE = math.sin(_MIN_ANGLE)
# an orthocentric draw's triangle has every angle in (0.3, pi/2 - 0.15), so
# its orthocenter is interior: the cosines lie in (sin 0.15, cos 0.3)
_ACUTE_COS = (math.sin(0.15), math.cos(0.3))


class CaseSpec(Record):
    _fields = ("seed", "shape_class")

    def __init__(self, seed: int, shape_class: str = "convex-noncyclic"):
        if shape_class not in SHAPE_CLASSES:
            raise ValueError(f"unknown shape class {shape_class!r}")
        object.__setattr__(self, "seed", seed)  # inline, as every record stores its fields
        object.__setattr__(self, "shape_class", shape_class)


def _normalized(z: list[complex]) -> list[complex] | None:
    """The vertices of Quadrilateral(*z) with the centroid moved to 0 and the
    diameter scaled to 1: its centroid sum and scale, (x - g) * (1 / d); None
    when two of them are closer than d / _MAX_ASPECT."""
    a, b, c, d = z
    gaps = [math.hypot(v.real, v.imag) for v in (b - a, c - a, d - a, c - b, d - b, d - c)]
    d = max(gaps)
    if not 0.0 < d / _MAX_ASPECT <= min(gaps):
        return None
    g, k = sum(z) / 4.0, 1.0 / d
    return [complex((v.real - g.real) * k, (v.imag - g.imag) * k) for v in z]


def _angles_ok(z: list[complex]) -> bool:
    """Every interior angle of Quadrilateral(*z) at least _MIN_ANGLE from 0,
    pi and 2 pi, in either orientation: |sin| of the turn t = conj(u) v of
    the two sides at each vertex, |u x v| / (|u| |v|), is at least
    sin(_MIN_ANGLE)."""
    a, b, c, d = z
    ab, bc, cd, da = b - a, c - b, d - c, a - d
    return (abs((t := ab.conjugate() * da).imag) >= _SIN_MIN_ANGLE * abs(t)
            and abs((t := bc.conjugate() * ab).imag) >= _SIN_MIN_ANGLE * abs(t)
            and abs((t := cd.conjugate() * bc).imag) >= _SIN_MIN_ANGLE * abs(t)
            and abs((t := da.conjugate() * cd).imag) >= _SIN_MIN_ANGLE * abs(t))


def _simple_convex_order(z: list[complex]) -> list[complex]:
    g = sum(z) / 4.0
    return sorted(z, key=lambda v: cmath.phase(v - g))


def _draw(rng: random.Random, shape_class: str) -> Quadrilateral | None:
    """One attempt, normalized to diameter 1, or None: the angle test runs on
    the drawn vertices first (keeping every cot far from similarity_ratio's
    cut), then the class's tests on their raw sides, and only a draw that
    passes both is normalized, which tests the vertex separation."""
    try:
        pts = _vertices(rng, shape_class)
        if pts is None or not _angles_ok(pts):
            return None
        ok = True  # a draw too flat to build fails the normalized height test
        if shape_class in _GENERIC:  # the classes with tests of their own
            a, b, c, d = pts  # the sides as a Quadrilateral's side table holds them
            convex, r, _ = shape_of_sides((b - a, c - b, d - c, -(d - a)))
            if shape_class == "convex-noncyclic":
                ok = -0.92 <= r <= -1e-3  # r < 0 only on a convex noncyclic quadrilateral
            elif shape_class == "concave":
                ok = not convex and 1.05 <= r <= 8.0
            else:
                ok = convex
        z = _normalized(pts) if ok else None
        return Quadrilateral(*map(Point, z)) if z else None
    except GeometryError:
        return None


def _vertices(rng: random.Random, shape_class: str) -> list[complex] | None:
    # rng.uniform(lo, hi) written out as lo + (hi - lo) * rng.random(): the same floats
    rnd = rng.random
    if shape_class in ("convex-noncyclic", "concave"):
        pts = [complex(-1 + 2 * rnd(), -1 + 2 * rnd()) for _ in range(4)]
        if shape_class == "convex-noncyclic":
            return _simple_convex_order(pts)
        # concave: triangle with an interior point spliced in as C
        a, b, c = pts[0], pts[1], pts[2]
        u, v = 0.15 + (0.4 - 0.15) * rnd(), 0.15 + (0.4 - 0.15) * rnd()
        return [a, b, a + (b - a) * u + (c - a) * v, c]
    if shape_class in ("cyclic", "near-cyclic"):
        ts = sorted(2.0 * math.pi * rnd() for _ in range(4))
        pts = [complex(math.cos(t), math.sin(t)) for t in ts]
        if shape_class == "near-cyclic":
            bump = (10.0 + (1e3 - 10.0) * rnd()) * DEFAULT_TOL * 2.0
            pts[3] = pts[3] * (1.0 + bump)
        return pts
    if shape_class == "trapezoid":
        a = complex(-1 + 2 * rnd(), -1 + 2 * rnd())
        direction = cmath.rect(1.0, math.pi * rnd())
        normal = 1j * direction
        b = a + direction * (0.8 + (1.6 - 0.8) * rnd())
        h = 0.4 + (1.2 - 0.4) * rnd()
        c = b + normal * h - direction * (0.1 + (0.5 - 0.1) * rnd())
        d = a + normal * h + direction * (0.1 + (0.5 - 0.1) * rnd())
        return [a, b, c, d]
    if shape_class in ("parallelogram", "parallelogram-pi4"):
        a = complex(-1 + 2 * rnd(), -1 + 2 * rnd())
        theta = math.pi * rnd()
        if shape_class == "parallelogram-pi4":
            phi = theta + math.pi / 4.0
        else:
            phi = theta + (0.4 + (math.pi - 0.4 - 0.4) * rnd())
        u = cmath.rect(0.7 + (1.5 - 0.7) * rnd(), theta)
        v = cmath.rect(0.7 + (1.5 - 0.7) * rnd(), phi)
        return [a, a + u, a + u + v, a + v]
    if shape_class == "orthocentric":
        lo, hi = _ACUTE_COS
        for _ in range(64):
            a, b, c = (complex(-1 + 2 * rnd(), -1 + 2 * rnd()) for _ in range(3))
            if (lo * abs(t := (b - a).conjugate() * (c - a)) < t.real < hi * abs(t)
                    and lo * abs(t := (c - b).conjugate() * (a - b)) < t.real < hi * abs(t)
                    and lo * abs(t := (a - c).conjugate() * (b - c)) < t.real < hi * abs(t)):
                return [a, b, c, orthocenter(a, b, c)]
    return None


def random_quadrilateral(spec: CaseSpec, index: int) -> Quadrilateral:
    """Deterministic sample for (spec.seed, index), normalized to diameter 1."""
    rng = random.Random((spec.seed * 1_000_003 + index) & 0xFFFFFFFF)
    for _ in range(_MAX_TRIES):
        q = _draw(rng, spec.shape_class)
        if q is not None and q.min_triad_height() >= _MIN_TRIAD_HEIGHT * q.scale():
            return q
    raise RejectionExhausted(
        f"no valid {spec.shape_class} case for seed={spec.seed} index={index}")


# ---------------------------------------------------------------------------
# invariant registry

_NONCYCLIC = ("convex-noncyclic", "concave", "trapezoid", "parallelogram",
              "parallelogram-pi4", "near-cyclic")
_GENERIC = ("convex-noncyclic", "concave", "trapezoid")
# checks with heavy cancellation when the triad circles nearly coincide
_STABLE = _GENERIC + ("parallelogram", "parallelogram-pi4")


def _inv_r_range(st):
    r = st.r
    if 0.0 < r < 1.0:
        return min(r, 1.0 - r)
    return 0.0


def _inv_supplementary(st):
    xa, xb, xc, xd = interior_angles(st)
    ya, yb, yc, yd = interior_angles(st.next)
    pi = math.pi
    if st.shape.concave:
        # reflex case: each angle carries over mod pi (the reflex
        # vertex may shift by one step, trading pi between neighbours)
        da, db, dc, dd = ya - xa, yb - xb, yc - xc, yd - xd
        return max_or_nan(min(abs(da), abs(da - pi), abs(da + pi)),
                          min(abs(db), abs(db - pi), abs(db + pi)),
                          min(abs(dc), abs(dc - pi), abs(dc + pi)),
                          min(abs(dd), abs(dd - pi), abs(dd + pi)))
    return max_or_nan(abs(xa + ya - pi), abs(xb + yb - pi), abs(xc + yc - pi),
                      abs(xd + yd - pi))


def _inv_w_agreement(st):
    w = st.w
    if not is_finite(w):
        return None
    # the limit route uses only the generation maps, never the circles of
    # similitude: the independent oracle for W
    a, b, c = (isoptic_point_via_inversion(st), isoptic_point_via_inv_iso(st),
               isoptic_point_via_limit(st))
    if not (is_finite(a) and is_finite(b) and is_finite(c)):
        return None
    # the six pairs in the order of combinations((w, a, b, c), 2)
    return max(abs(w - a), abs(w - b), abs(w - c), abs(a - b), abs(a - c), abs(b - c)) / st.scale


def _inv_varignon(st):
    return parallelogram_residual(varignon(st.q), st.scale)


def _inv_permutation(st):
    w = st.w
    if not is_finite(w):
        return None
    acbd, acdb = reordered_isoptic_points(st.q)
    if not (is_finite(acbd) and is_finite(acdb)):
        return None
    return max_or_nan(abs(acbd - w) / st.scale, abs(acdb - w) / st.scale)


def cotangent_identity_residuals(st: QuadState) -> float:
    """The larger residual of the two side-diagonal cotangent identities against 4r.

    The diagonals split each interior angle into two directed angles, one
    from the outgoing side to the diagonal and one from the diagonal to the
    incoming side; each identity pairs the cotangents of four of them.
    """
    ab, ac, ad, bc, bd, cd = st.q._diffs
    lhs = 4.0 * st.r
    # pairing fixed by requiring equality with 4*r of the reordered
    # quadrilaterals ACBD / ACDB, whose ratio coincides with the original;
    # the cot from ray u to ray v is Re t / Im t of t = conj(u) v, so the
    # angle at D between DB and DC is that of conj(-bd) (-cd) = conj(bd) cd
    t1, t2 = ab.conjugate() * ac, bd.conjugate() * cd
    t3, t4 = bd.conjugate() * -ab, cd.conjugate() * -ac
    t5, t6 = ac.conjugate() * ad, bc.conjugate() * bd
    t7, t8 = ad.conjugate() * bd, ac.conjugate() * bc
    r1 = (t1.real / t1.imag - t2.real / t2.imag) * (t3.real / t3.imag - t4.real / t4.imag)
    r2 = (t5.real / t5.imag - t6.real / t6.imag) * (t7.real / t7.imag - t8.real / t8.imag)
    scale = max(1.0, abs(lhs))
    return max_or_nan(abs(lhs - r1) / scale, abs(lhs - r2) / scale)


def quad_distance(q1: Quadrilateral, q2: Quadrilateral) -> float:
    """Scale-free distance between quadrilaterals, up to cyclic relabeling.

    Needed for the periodicity checks: a period-two parallelogram returns to
    itself with vertices exchanged by the half-turn about W.
    """
    (a, b, c, d), (e, f, g, h) = q1._z, q2._z
    best = min(max(abs(a - e), abs(b - f), abs(c - g), abs(d - h)),
               max(abs(a - f), abs(b - g), abs(c - h), abs(d - e)),
               max(abs(a - g), abs(b - h), abs(c - e), abs(d - f)),
               max(abs(a - h), abs(b - e), abs(c - f), abs(d - g)))
    return best / max(q1._scale, q2._scale)


def _inv_roundtrip(st):
    return max(quad_distance(st.q, st.next.prev.q), quad_distance(st.q, st.prev.next.q))


def periodicity_residual(st: QuadState) -> float:
    """How far Q^(3) is from Q^(1), zero for the period-two classes."""
    return quad_distance(st.q, st.next.next.q)


def cross_generation_cs_residual(st: QuadState) -> float | None:
    """Max scale-free distance of W to CS(o_i^(k), o_j^(l)) across the first
    three generations, each read from the Apollonius defect (max_cs_distance);
    None where W is not finite.  An inf one where W's distance in diameters
    overflows raises PointAtInfinity."""
    if st.w_frame is None:
        return None
    w, tol, scale, (unit, _, (wa, _, _, _)) = st.w, st.tol, st.scale, st.w_frame
    t1, t2, t3 = st.triads, st.next.triads, st.next.next.triads
    # a pair of centers within noise is one circle twice: no CS
    res = max_cs_distance(w, (t1.o1, t1.o2, t1.o3, t1.o4, t2.o1, t2.o2, t2.o3, t2.o4,
                              t3.o1, t3.o2, t3.o3, t3.o4), tol, 1e3 * tol * scale, unit) / scale
    if res == math.inf and abs(wa) / unit / scale == math.inf:
        raise PointAtInfinity("w is so far that its distance is not a finite float")
    return res


def quadrangle_duality_residual(st: QuadState) -> float | None:
    """Inversion centered at W takes the six vertex-pair lines onto the six
    circles of similitude of the image quadrilateral's triad circles.

    The image of line AB passes through W, A' and B'.  A' and B' lie on o1'
    and o2', so the image is in their pencil; so is CS(o1', o2'), and only
    one member of the pencil passes through W.  So the image is the CS if and
    only if W lies on it: the residual is W's largest distance from the six
    (max_cs_distance, the Apollonius defect) over the image's diameter.  The
    mirror's radius is q's diameter, so the image is q's size at any scale."""
    w = st.w
    if not is_finite(w):
        return None
    tol, mirror = st.tol, Circle(w, st.scale)
    a, b, c, d = st.q._z
    a, b = invert_point(mirror, a, tol), invert_point(mirror, b, tol)
    c, d = invert_point(mirror, c, tol), invert_point(mirror, d, tol)
    if not (is_finite(a) and is_finite(b) and is_finite(c) and is_finite(d)):
        raise DegenerateConjugate("a vertex maps to infinity under the duality mirror")
    img = QuadState(Quadrilateral(a, b, c, d, tol=tol))
    return max_cs_distance(w, img.triads.circles, tol, 0.0, img.frame(w)[0]) / img.scale


def feet_circles_residual(st: QuadState) -> float | None:
    """Max scale-free distance of W from the eight vertex/foot/center circles.

    F_x is the meet of the perpendicular bisector of side x (AB, BC, CD,
    DA) with the opposite side line.
    """
    q, w, tol = st.q, st.w, st.tol
    if not is_finite(w):
        return None
    A, B, C, D = q._z
    ab, _, ad, bc, _, cd = q._diffs
    unit = q._unit
    sa, sb, sc, sd = ab / unit, bc / unit, cd / unit, -ad / unit  # the sides, unframed
    if ((fa := line_meet(A + 0.5 * sa, 1j * sa, C, sc, tol)) is None
            or (fb := line_meet(B + 0.5 * sb, 1j * sb, D, sd, tol)) is None
            or (fc := line_meet(C + 0.5 * sc, 1j * sc, A, sa, tol)) is None
            or (fd := line_meet(D + 0.5 * sd, 1j * sd, B, sb, tol)) is None):
        return None  # trapezoid: a foot escapes to infinity
    t, scale = st.triads, st.scale
    a2, b2, c2, d2 = t.o1.o, t.o2.o, t.o3.o, t.o4.o
    o1, r1 = circumscribe(A, fb, b2, tol)
    o2, r2 = circumscribe(A, fc, d2, tol)
    o3, r3 = circumscribe(B, fc, c2, tol)
    o4, r4 = circumscribe(B, fd, a2, tol)
    o5, r5 = circumscribe(C, fd, d2, tol)
    o6, r6 = circumscribe(C, fa, b2, tol)
    o7, r7 = circumscribe(D, fa, a2, tol)
    o8, r8 = circumscribe(D, fb, c2, tol)
    return max_or_nan(abs(abs(w - o1) - r1) / scale, abs(abs(w - o2) - r2) / scale,
                      abs(abs(w - o3) - r3) / scale, abs(abs(w - o4) - r4) / scale,
                      abs(abs(w - o5) - r5) / scale, abs(abs(w - o6) - r6) / scale,
                      abs(abs(w - o7) - r7) / scale, abs(abs(w - o8) - r8) / scale)


def spiral_transport_residual(st: QuadState) -> float | None:
    """Residual of the spiral similarity at W taking o1 -> o4 mapping B to C
    (and the o1 -> o2, o4 -> o2 analogues): one complex factor about W,
    R_dst / R_src times the unit phase of k = (o_dst - W) conj(o_src - W).
    Offsets from W are read in its frame (st.w_frame), where none overflows,
    and k's scaled on to q's frame, where k neither overflows nor underflows."""
    if st.w_frame is None:
        return None
    q, (unit, wu, (_, wb, _, wd)), (_, (u1, u2, _, u4), _, _) = st.q, st.w_frame, st.w_centers
    r1, r2, r4, up = st.triads.o1.r, st.triads.o2.r, st.triads.o4.r, q._unit / unit
    # O - W as 0 - (W - O), which rounds a zero part to +0.0 as O - W does: a
    # -0.0 there would move the phase of k between -pi and pi
    e1, e2, e4 = (0j - u1) * up, (0j - u2) * up, (0j - u4) * up
    b, c = q._rel[1] * unit, q._rel[2] * unit
    rect, phase = cmath.rect, cmath.phase
    # o1 -> o4 takes B to C, o1 -> o2 takes D to C, and o4 -> o2 takes D to B
    c14 = wu - wb * rect(r4 / r1, phase(e4 * e1.conjugate()))
    c12 = wu - wd * rect(r2 / r1, phase(e2 * e1.conjugate()))
    b42 = wu - wd * rect(r2 / r4, phase(e2 * e4.conjugate()))
    size = st.scale * unit
    return max_or_nan(abs(c14 - c) / size, abs(c12 - c) / size, abs(b42 - b) / size)


def _inv_ptolemy(st):
    # the six lengths in the frame of the side table, where their products
    # neither overflow nor underflow
    ab, ac, da, bc, bd, cd = map(abs, st.q._diffs)
    res1 = abs(ac * bd - (ab * cd + bc * da)) / (st.scale * st.q._unit) ** 2
    lhs = ac / bd
    rhs = (ab * da + bc * cd) / (ab * bc + da * cd)
    res2 = abs(lhs - rhs) / max(1.0, abs(lhs))
    return max(res1, res2)


def _inv_q2_construction(st):
    """Q2 from the closed-form side table against the four triad
    circumcenters solved one by one, in Q1's diameter (their own error
    scale)."""
    a, b, c, d = st.q.vertices()
    a2, b2, c2, d2 = st.next.q.vertices()
    tol = st.tol
    return max(abs(circumscribe(d, a, b, tol, with_radius=False) - a2),
               abs(circumscribe(a, b, c, tol, with_radius=False) - b2),
               abs(circumscribe(b, c, d, tol, with_radius=False) - c2),
               abs(circumscribe(c, d, a, tol, with_radius=False) - d2)) / st.scale


def _inv_cyclic_degeneration(st):
    try:
        st.next
    except CyclicDegeneration as exc:
        o = exc.point
        return max(abs(abs(o - v) - abs(o - st.q.a)) for v in st.q.vertices()) / st.scale
    return math.inf


# name -> (function, applicable shape classes)
INVARIANTS: dict[str, tuple] = {
    "six_cs_concurrence": (six_cs_residual, _NONCYCLIC),
    "area_ratio": (area_ratio_residual, _NONCYCLIC),
    "q2_construction": (_inv_q2_construction, _NONCYCLIC),
    "r_range": (_inv_r_range, SHAPE_CLASSES),
    "supplementary_angles": (_inv_supplementary, _NONCYCLIC),
    "w_agreement": (_inv_w_agreement, _GENERIC),
    "isoptic_spread": (isoptic_spread_residual, _STABLE),
    "isodynamic": (isodynamic_residual, _NONCYCLIC),
    "angle_sums": (angle_sums_residual, _NONCYCLIC + ("cyclic",)),
    "pedal_w_parallelogram": (pedal_w_residual, _NONCYCLIC + ("cyclic",)),
    "pedal_s_collinear": (pedal_s_residual, _NONCYCLIC + ("cyclic",)),
    "varignon_parallelogram": (_inv_varignon, SHAPE_CLASSES),
    "permutation_invariance": (_inv_permutation, _GENERIC),
    "cotangent_identities": (cotangent_identity_residuals, _GENERIC),
    "roundtrip_generations": (_inv_roundtrip, _GENERIC),
    "cross_generation_cs": (cross_generation_cs_residual, ("convex-noncyclic",)),
    "quadrangle_duality": (quadrangle_duality_residual, _GENERIC),
    "feet_circles": (feet_circles_residual, _GENERIC),
    "spiral_transport": (spiral_transport_residual, _STABLE),
    "ptolemy": (_inv_ptolemy, ("cyclic",)),
    "periodicity": (periodicity_residual, ("parallelogram-pi4", "orthocentric")),
    "cyclic_degeneration": (_inv_cyclic_degeneration, ("cyclic",)),
}


class InvariantStats(Report):
    _fields = ("name", "cases_run", "skipped", "max_residual", "failures")

    def __init__(self, name: str, cases_run: int = 0, skipped: int = 0,
                 max_residual: float = 0.0, failures: int = 0):
        self.name = name
        self.cases_run = cases_run
        self.skipped = skipped
        self.max_residual = max_residual
        self.failures = failures


class SuiteReport(Report):
    _fields = ("spec", "n_cases", "tol", "invariants", "errors")

    def __init__(self, spec: CaseSpec, n_cases: int, tol: float,
                 invariants: dict[str, InvariantStats], errors: int = 0):
        self.spec = spec
        self.n_cases = n_cases
        self.tol = tol
        self.invariants = invariants
        self.errors = errors

    @property
    def failures(self) -> int:
        return sum(s.failures for s in self.invariants.values()) + self.errors

    def to_dict(self) -> dict:
        return {
            "seed": self.spec.seed,
            "shape_class": self.spec.shape_class,
            "n_cases": self.n_cases,
            "tolerance": self.tol,
            "errors": self.errors,
            "failures": self.failures,
            "invariants": {
                name: {
                    "cases_run": s.cases_run,
                    "skipped": s.skipped,
                    "max_residual": s.max_residual,
                    "failures": s.failures,
                }
                for name, s in sorted(self.invariants.items())
            },
        }


def run_suite(spec: CaseSpec, n_cases: int, tol: float = 1e-8) -> SuiteReport:
    """Evaluate every applicable invariant on n_cases random instances.

    Degeneracies are recorded (as skips or errors), never raised; the report
    is deterministic for a fixed (spec, n_cases, tol).
    """
    if n_cases <= 0:
        raise ValueError("n_cases must be positive")
    check_tol(tol)
    # each applicable invariant with its stats, read from INVARIANTS per call
    shape_class = spec.shape_class
    applicable = [(fn, InvariantStats(name)) for name, (fn, classes) in INVARIANTS.items()
                  if shape_class in classes]
    errors = 0
    for index in range(n_cases):
        try:
            state = QuadState(random_quadrilateral(spec, index))
            state.w  # a case whose W fails is an error, not a skip
        except GeometryError:
            errors += 1
            continue
        for fn, st in applicable:
            try:
                res = fn(state)
            except GeometryError:
                res = None
            if res is None:
                st.skipped += 1
                continue
            st.cases_run += 1
            if res > st.max_residual:  # max's choice: a nan residual is not kept
                st.max_residual = res
            if not res <= tol:  # a nan residual fails too
                st.failures += 1
    return SuiteReport(spec, n_cases, tol, {st.name: st for _, st in applicable}, errors)
