"""Seeded random-instance generator and the invariant suite.

Each structural identity becomes a numerical residual evaluated on
randomized quadrilaterals.  Everything is deterministic given (seed, shape class,
case count); residuals are reported scale-free (divided by the input
diameter, which the generator normalizes to 1).
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from .errors import (
    CyclicDegeneration,
    GeometryError,
    RejectionExhausted,
)
from .kernel import (
    DEFAULT_TOL,
    Point,
    Record,
    Report,
    circumcircle,
    is_finite,
    orthocenter,
)
from .quad import (
    QuadState,
    Quadrilateral,
    angle_sums_residual,
    area_ratio_residual,
    classify,  # noqa: F401  bench/tests/test_bench_trace.py reads verify.classify
    cotangent_identity_residuals,
    cross_generation_cs_residual,
    feet_circles_residual,
    interior_angles,
    isodynamic_residual,
    isoptic_point,
    isoptic_point_via_inv_iso,
    isoptic_point_via_inversion,
    isoptic_point_via_limit,
    isoptic_spread_residual,
    parallelogram_residual,
    pedal_s_residual,
    pedal_w_residual,
    periodicity_residual,
    quad_distance,
    quadrangle_duality_residual,
    similarity_ratio,
    six_cs_residual,
    spiral_transport_residual,
    varignon,
)

SHAPE_CLASSES = (
    "convex-noncyclic",
    "concave",
    "cyclic",
    "trapezoid",
    "parallelogram",
    "parallelogram-pi4",
    "orthocentric",
    "near-cyclic",
)


# conditioning of every generated case
_MIN_ANGLE = 0.3          # radians from {0, pi, 2*pi} for every interior angle
_MAX_ASPECT = 12.0        # diameter / shortest vertex separation
_MIN_TRIAD_HEIGHT = 0.05  # least triad height / diameter
_MAX_TRIES = 4000         # draws per case before RejectionExhausted


class CaseSpec(Record):
    _fields = ("seed", "shape_class")

    def __init__(self, seed: int, shape_class: str = "convex-noncyclic"):
        if shape_class not in SHAPE_CLASSES:
            raise ValueError(f"unknown shape class {shape_class!r}")
        vars(self).update(seed=seed, shape_class=shape_class)


def _normalized(pts: list[Point]) -> list[complex]:
    """The vertices of Quadrilateral(*pts) with the centroid moved to 0 and the
    diameter scaled to 1: its centroid sum and scale, (x - g) * (1 / d)."""
    z = [p.to_complex() for p in pts]
    g = sum(z) / 4.0
    d = max(math.hypot((w - v).real, (w - v).imag) for v, w in combinations(z, 2)) or 1.0
    k = 1.0 / d
    return [complex((v.real - g.real) * k, (v.imag - g.imag) * k) for v in z]


def _angles_ok(z: list[complex]) -> bool:
    """interior_angles' test of Quadrilateral(*z), by its float operations:
    conj(u) * v holds u.v as its real part and u x v as its imaginary part."""
    a, b, c, d = z
    ab, ac, ad = b - a, c - a, d - a
    orient = 1.0 if ((ab.conjugate() * ac).imag + (ac.conjugate() * ad).imag) / 2.0 > 0.0 else -1.0
    s = (ab, c - b, d - c, -ad)
    for i in range(4):
        uv = s[i].conjugate() * -s[i - 1]
        ang = math.atan2(orient * uv.imag, uv.real) % (2.0 * math.pi)
        if min(abs(ang), abs(ang - math.pi), abs(ang - 2 * math.pi)) < _MIN_ANGLE:
            return False
    return True


def _well_conditioned(q: Quadrilateral) -> bool:
    """The separation and triad-height tests (_draw ran the angle test)."""
    vs, scale = q.vertices(), q.scale()
    return (min(v.dist(w) for v, w in combinations(vs, 2)) >= scale / _MAX_ASPECT
            and q.min_triad_height() >= _MIN_TRIAD_HEIGHT * scale)


def _simple_convex_order(pts: list[Point]) -> list[Point]:
    cx = sum(p.x for p in pts) / 4.0
    cy = sum(p.y for p in pts) / 4.0
    return sorted(pts, key=lambda p: math.atan2(p.y - cy, p.x - cx))


def _draw(rng: random.Random, shape_class: str) -> Quadrilateral | None:
    """One attempt, normalized to diameter 1, or None: the angle test runs on
    the normalized vertices first, then the class's tests on the drawn ones."""
    try:
        pts = _vertices(rng, shape_class)
        z = None if pts is None else _normalized(pts)
        if z is None or not _angles_ok(z):
            return None
        ok = True  # a draw too flat to build fails the normalized height test
        if shape_class == "convex-noncyclic":
            # r < 0 only on a convex noncyclic quadrilateral
            ok = -0.92 <= similarity_ratio(Quadrilateral(*pts)) <= -1e-3
        elif shape_class == "concave":
            q = Quadrilateral(*pts)
            ok = not q.is_convex() and 1.05 <= similarity_ratio(q) <= 8.0
        elif shape_class == "trapezoid":
            ok = Quadrilateral(*pts).is_convex()
        return Quadrilateral(*(Point(v.real, v.imag) for v in z)) if ok else None
    except GeometryError:
        return None


def _vertices(rng: random.Random, shape_class: str) -> list[Point] | None:
    if shape_class in ("convex-noncyclic", "concave"):
        pts = [Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
        if shape_class == "convex-noncyclic":
            return _simple_convex_order(pts)
        # concave: triangle with an interior point spliced in as C
        a, b, c = pts[0], pts[1], pts[2]
        u, v = rng.uniform(0.15, 0.4), rng.uniform(0.15, 0.4)
        return [a, b, a + (b - a) * u + (c - a) * v, c]
    if shape_class in ("cyclic", "near-cyclic"):
        ts = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(4))
        pts = [Point(math.cos(t), math.sin(t)) for t in ts]
        if shape_class == "near-cyclic":
            bump = rng.uniform(10.0, 1e3) * DEFAULT_TOL * 2.0
            pts[3] = pts[3] * (1.0 + bump)
        return pts
    if shape_class == "trapezoid":
        a = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        direction = Point(math.cos(rng.uniform(0, math.pi)), math.sin(rng.uniform(0, math.pi)))
        normal = Point(-direction.y, direction.x)
        b = a + direction * rng.uniform(0.8, 1.6)
        h = rng.uniform(0.4, 1.2)
        c = b + normal * h - direction * rng.uniform(0.1, 0.5)
        d = a + normal * h + direction * rng.uniform(0.1, 0.5)
        return [a, b, c, d]
    if shape_class in ("parallelogram", "parallelogram-pi4"):
        a = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        theta = rng.uniform(0.0, math.pi)
        if shape_class == "parallelogram-pi4":
            phi = theta + math.pi / 4.0
        else:
            phi = theta + rng.uniform(0.4, math.pi - 0.4)
        u = Point(math.cos(theta), math.sin(theta)) * rng.uniform(0.7, 1.5)
        v = Point(math.cos(phi), math.sin(phi)) * rng.uniform(0.7, 1.5)
        return [a, a + u, a + u + v, a + v]
    if shape_class == "orthocentric":
        # acute triangle keeps the orthocenter interior
        for _ in range(64):
            a, b, c = (Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
            angs = interior_triangle_angles(a, b, c)
            if max(angs) < math.pi / 2 - 0.15 and min(angs) > 0.3:
                return [a, b, c, orthocenter(a, b, c)]
    return None


def interior_triangle_angles(a: Point, b: Point, c: Point) -> tuple[float, float, float]:
    def ang(v, p, q):
        u1, u2 = p - v, q - v
        return math.acos(max(-1.0, min(1.0, u1.dot(u2) / (u1.norm() * u2.norm()))))
    return (ang(a, b, c), ang(b, c, a), ang(c, a, b))


def random_quadrilateral(spec: CaseSpec, index: int) -> Quadrilateral:
    """Deterministic sample for (spec.seed, index), normalized to diameter 1."""
    rng = random.Random((spec.seed * 1_000_003 + index) & 0xFFFFFFFF)
    for _ in range(_MAX_TRIES):
        q = _draw(rng, spec.shape_class)
        if q is not None and _well_conditioned(q):
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
    a1 = interior_angles(st.q)
    a2 = interior_angles(st.q2)
    concave = st.shape.concave
    worst = 0.0
    for x, y in zip(a1, a2):
        if concave:
            # reflex case: each angle carries over mod pi (the reflex
            # vertex may shift by one step, trading pi between neighbours)
            d = y - x
            res = min(abs(d), abs(d - math.pi), abs(d + math.pi))
        else:
            res = abs(x + y - math.pi)
        worst = max(worst, res)
    return worst


def _inv_w_agreement(st):
    w = st.w
    if not is_finite(w):
        return None
    # the limit route uses only the generation maps, never the circles of
    # similitude: the independent oracle for W
    candidates = [w, isoptic_point_via_inversion(st), isoptic_point_via_inv_iso(st),
                  isoptic_point_via_limit(st)]
    if not all(is_finite(p) for p in candidates):
        return None
    return max(p.dist(q) for p, q in combinations(candidates, 2)) / st.scale


def _inv_varignon(st):
    return parallelogram_residual(varignon(st.q), st.scale)


def _inv_permutation(st):
    w = st.w
    if not is_finite(w):
        return None
    worst = 0.0
    for order in ("acbd", "acdb"):
        alt = isoptic_point(st.q.reordered(order))
        if not is_finite(alt):
            return None
        worst = max(worst, alt.dist(w) / st.scale)
    return worst


def _inv_cotangent(st):
    return max(cotangent_identity_residuals(st.q))


def _inv_roundtrip(st):
    return max(quad_distance(st.q, st.next.prev.q), quad_distance(st.q, st.prev.q2))


def _inv_cross_generation(st):
    return cross_generation_cs_residual(st, st.w) if is_finite(st.w) else None


def _inv_duality(st):
    return quadrangle_duality_residual(st.q, st.w, 1.0, st.tol) if is_finite(st.w) else None


def _inv_ptolemy(st):
    q = st.q
    A, B, C, D = q.vertices()
    ac, bd = A.dist(C), B.dist(D)
    ab, bc, cd, da = A.dist(B), B.dist(C), C.dist(D), D.dist(A)
    scale = st.scale ** 2
    res1 = abs(ac * bd - (ab * cd + bc * da)) / scale
    lhs = ac / bd
    rhs = (ab * da + bc * cd) / (ab * bc + da * cd)
    res2 = abs(lhs - rhs) / max(1.0, abs(lhs))
    return max(res1, res2)


def _inv_q2_construction(st):
    """Q2 from the closed-form side table against the four triad
    circumcenters solved one by one, in Q1's diameter (their own error
    scale)."""
    a, b, c, d = st.q.vertices()
    centers = [circumcircle(*t).o for t in ((d, a, b), (a, b, c), (b, c, d), (c, d, a))]
    return max(abs(o - v.to_complex()) for o, v in zip(centers, st.q2.vertices())) / st.scale


def _inv_cyclic_degeneration(st):
    try:
        st.q2
    except CyclicDegeneration as exc:
        o = exc.point
        return max(abs(o.dist(v) - o.dist(st.q.a)) for v in st.q.vertices()) / st.scale
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
    "cotangent_identities": (_inv_cotangent, _GENERIC),
    "roundtrip_generations": (_inv_roundtrip, _GENERIC),
    "cross_generation_cs": (_inv_cross_generation, ("convex-noncyclic",)),
    "quadrangle_duality": (_inv_duality, _GENERIC),
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
        vars(self).update(name=name, cases_run=cases_run, skipped=skipped,
                          max_residual=max_residual, failures=failures)


class SuiteReport(Report):
    _fields = ("spec", "n_cases", "tol", "invariants", "errors")

    def __init__(self, spec: CaseSpec, n_cases: int, tol: float,
                 invariants: dict[str, InvariantStats], errors: int = 0):
        vars(self).update(spec=spec, n_cases=n_cases, tol=tol, invariants=invariants, errors=errors)

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
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    applicable = {name: fn for name, (fn, classes) in INVARIANTS.items()
                  if spec.shape_class in classes}
    stats = {name: InvariantStats(name) for name in applicable}
    errors = 0
    for index in range(n_cases):
        try:
            state = QuadState(random_quadrilateral(spec, index), DEFAULT_TOL)
            state.w  # a case whose W fails is an error, not a skip
        except GeometryError:
            errors += 1
            continue
        for name, fn in applicable.items():
            st = stats[name]
            try:
                res = fn(state)
            except GeometryError:
                st.skipped += 1
                continue
            if res is None:
                st.skipped += 1
                continue
            st.cases_run += 1
            st.max_residual = max(st.max_residual, res)
            if res > tol:
                st.failures += 1
    return SuiteReport(spec=spec, n_cases=n_cases, tol=tol,
                       invariants=stats, errors=errors)
