"""Seeded random-instance generator and the invariant suite.

Each structural identity becomes a numerical residual evaluated on
randomized quadrilaterals.  Everything is deterministic given (seed, shape class,
case count); residuals are reported scale-free (divided by the input
diameter, which the generator normalizes to 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import (
    CyclicDegeneration,
    GeometryError,
    NonConvergent,
    RejectionExhausted,
)
from .kernel import (
    DEFAULT_TOL,
    Point,
    diameter,
    is_finite,
    orthocenter,
)
from .quad import (
    Quadrilateral,
    classify,
    collinearity_residual,
    cotangent_identity_residuals,
    cross_generation_cs_residual,
    feet_circles_residual,
    interior_angles,
    isodynamic_ratios,
    isoptic_point,
    isoptic_point_via_inv_iso,
    isoptic_point_via_inversion,
    isoptic_point_via_limit,
    isoptic_quantity,
    angle_sums_at_point,
    next_generation,
    parallelogram_residual,
    pedal_quadrilateral,
    periodicity_residual,
    prev_generation,
    quad_distance,
    quadrangle_duality_residual,
    similarity_ratio,
    simson_point,
    spiral_transport_residual,
    triad_circles,
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


@dataclass(frozen=True)
class Conditioning:
    min_angle: float = 0.3       # radians from {0, pi, 2*pi} for every interior angle
    max_aspect: float = 12.0     # diameter / shortest vertex separation
    min_triad_height: float = 0.05


@dataclass(frozen=True)
class CaseSpec:
    seed: int
    shape_class: str = "convex-noncyclic"
    conditioning: Conditioning = field(default_factory=Conditioning)

    def __post_init__(self):
        if self.shape_class not in SHAPE_CLASSES:
            raise ValueError(f"unknown shape class {self.shape_class!r}")
        if self.conditioning.min_angle <= 0:
            raise ValueError("min_angle must be positive")


def _normalize(q: Quadrilateral) -> Quadrilateral:
    """Translate the centroid to the origin and scale the diameter to 1."""
    c = q.centroid()
    d = q.scale()
    return Quadrilateral(*((v - c) * (1.0 / d) for v in q.vertices()))


def _well_conditioned(q: Quadrilateral, cond: Conditioning) -> bool:
    vs = q.vertices()
    scale = q.scale()
    if min(vs[i].dist(vs[j]) for i in range(4) for j in range(i + 1, 4)) \
            < scale / cond.max_aspect:
        return False
    for ang in interior_angles(q):
        if min(abs(ang), abs(ang - math.pi), abs(ang - 2 * math.pi)) < cond.min_angle:
            return False
    for i in range(4):
        trip = [vs[j] for j in range(4) if j != i]
        area2 = abs((trip[1] - trip[0]).cross(trip[2] - trip[0]))
        longest = max(trip[0].dist(trip[1]), trip[1].dist(trip[2]), trip[0].dist(trip[2]))
        if area2 / longest < cond.min_triad_height * scale:
            return False
    return True


def _simple_convex_order(pts: list[Point]) -> list[Point]:
    cx = sum(p.x for p in pts) / 4.0
    cy = sum(p.y for p in pts) / 4.0
    return sorted(pts, key=lambda p: math.atan2(p.y - cy, p.x - cx))


def _draw(rng: random.Random, shape_class: str) -> Quadrilateral | None:
    try:
        if shape_class in ("convex-noncyclic", "concave"):
            pts = [Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
            q = Quadrilateral(*_simple_convex_order(pts))
            shape = classify(q)
            if shape_class == "convex-noncyclic":
                if not shape.convex or shape.cyclic:
                    return None
                r = similarity_ratio(q)
                if not (-0.92 <= r <= -1e-3):
                    return None
            else:
                # concave: triangle with an interior point spliced in as C
                a, b, c = pts[0], pts[1], pts[2]
                u, v = rng.uniform(0.15, 0.4), rng.uniform(0.15, 0.4)
                d = a + (b - a) * u + (c - a) * v
                q = Quadrilateral(a, b, d, c)
                if classify(q).convex:
                    return None
                r = similarity_ratio(q)
                if not (1.05 <= r <= 8.0):
                    return None
            return q
        if shape_class == "cyclic":
            ts = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(4))
            return Quadrilateral(*(Point(math.cos(t), math.sin(t)) for t in ts))
        if shape_class == "near-cyclic":
            ts = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(4))
            pts = [Point(math.cos(t), math.sin(t)) for t in ts]
            bump = rng.uniform(10.0, 1e3) * DEFAULT_TOL * 2.0
            pts[3] = pts[3] * (1.0 + bump)
            return Quadrilateral(*pts)
        if shape_class == "trapezoid":
            a = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
            direction = Point(math.cos(rng.uniform(0, math.pi)), math.sin(rng.uniform(0, math.pi)))
            normal = Point(-direction.y, direction.x)
            b = a + direction * rng.uniform(0.8, 1.6)
            h = rng.uniform(0.4, 1.2)
            c = b + normal * h - direction * rng.uniform(0.1, 0.5)
            d = a + normal * h + direction * rng.uniform(0.1, 0.5)
            q = Quadrilateral(a, b, c, d)
            return q if classify(q).convex else None
        if shape_class in ("parallelogram", "parallelogram-pi4"):
            a = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
            theta = rng.uniform(0.0, math.pi)
            if shape_class == "parallelogram-pi4":
                phi = theta + math.pi / 4.0
            else:
                phi = theta + rng.uniform(0.4, math.pi - 0.4)
            u = Point(math.cos(theta), math.sin(theta)) * rng.uniform(0.7, 1.5)
            v = Point(math.cos(phi), math.sin(phi)) * rng.uniform(0.7, 1.5)
            return Quadrilateral(a, a + u, a + u + v, a + v)
        if shape_class == "orthocentric":
            # acute triangle keeps the orthocenter interior
            for _ in range(64):
                a, b, c = (Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
                angs = interior_triangle_angles(a, b, c)
                if max(angs) < math.pi / 2 - 0.15 and min(angs) > 0.3:
                    return Quadrilateral(a, b, c, orthocenter(a, b, c))
            return None
    except GeometryError:
        return None
    return None


def interior_triangle_angles(a: Point, b: Point, c: Point) -> tuple[float, float, float]:
    def ang(v, p, q):
        u1, u2 = p - v, q - v
        return math.acos(max(-1.0, min(1.0, u1.dot(u2) / (u1.norm() * u2.norm()))))
    return (ang(a, b, c), ang(b, c, a), ang(c, a, b))


def random_quadrilateral(spec: CaseSpec, index: int, max_tries: int = 4000) -> Quadrilateral:
    """Deterministic sample for (spec.seed, index), normalized to diameter 1."""
    rng = random.Random((spec.seed * 1_000_003 + index) & 0xFFFFFFFF)
    for _ in range(max_tries):
        q = _draw(rng, spec.shape_class)
        if q is None:
            continue
        q = _normalize(q)
        if _well_conditioned(q, spec.conditioning):
            return q
    raise RejectionExhausted(
        f"no valid {spec.shape_class} case for seed={spec.seed} index={index}")


def oracle_limit_point(q: Quadrilateral, generations: int = 60,
                       tol: float = DEFAULT_TOL):
    """Brute-force limit of the iteration; the independent oracle for W.

    Uses only the perpendicular-bisector step (forward) or the isogonal
    reversal (backward), never the circles of similitude.
    """
    return isoptic_point_via_limit(q, max_gen=generations, tol=tol)


# ---------------------------------------------------------------------------
# invariant registry

_NONCYCLIC = ("convex-noncyclic", "concave", "trapezoid", "parallelogram",
              "parallelogram-pi4", "near-cyclic")
_GENERIC = ("convex-noncyclic", "concave", "trapezoid")
# checks with heavy cancellation when the triad circles nearly coincide
_STABLE = _GENERIC + ("parallelogram", "parallelogram-pi4")


def _ctx(q: Quadrilateral, tol: float) -> dict:
    ctx = {"q": q, "tol": tol, "shape": classify(q, tol)}
    ctx["w"] = isoptic_point(q, tol)
    return ctx


def _inv_six_cs(ctx):
    q, w, tol = ctx["q"], ctx["w"], ctx["tol"]
    if not is_finite(w):
        return None
    circles = triad_circles(q, tol).circles
    from .kernel import circle_of_similitude
    scale = q.scale()
    worst = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            cs = circle_of_similitude(circles[i], circles[j], tol)
            worst = max(worst, cs.distance_to(w) / scale)
    return worst


def _inv_area_ratio(ctx):
    q, tol = ctx["q"], ctx["tol"]
    r = similarity_ratio(q, tol)
    q2 = next_generation(q, tol)
    return abs(abs(r) - q2.area() / q.area())


def _inv_r_range(ctx):
    r = similarity_ratio(ctx["q"], ctx["tol"])
    if 0.0 < r < 1.0:
        return min(r, 1.0 - r)
    return 0.0


def _inv_supplementary(ctx):
    q, tol = ctx["q"], ctx["tol"]
    a1 = interior_angles(q)
    a2 = interior_angles(next_generation(q, tol))
    concave = ctx["shape"].concave
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


def _inv_w_agreement(ctx):
    q, w, tol = ctx["q"], ctx["w"], ctx["tol"]
    if not is_finite(w):
        return None
    r = abs(similarity_ratio(q, tol))
    if not (0.05 <= r <= 0.9 or 1.1 <= r <= 5.0):
        return None
    candidates = [w, isoptic_point_via_inversion(q, tol),
                  isoptic_point_via_inv_iso(q, tol)]
    try:
        candidates.append(oracle_limit_point(q, 60, tol))
    except NonConvergent:
        return None
    if not all(is_finite(p) for p in candidates):
        return None
    scale = q.scale()
    worst = 0.0
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            worst = max(worst, candidates[i].dist(candidates[j]) / scale)
    return worst


def _inv_isoptic_spread(ctx):
    q, w, tol = ctx["q"], ctx["w"], ctx["tol"]
    if not is_finite(w):
        return None
    qty = isoptic_quantity(q, w, tol)
    mean = sum(qty) / 4.0
    if mean == 0.0:
        return 0.0
    return (max(qty) - min(qty)) / mean


def _inv_isodynamic(ctx):
    if not is_finite(ctx["w"]):
        return None
    return isodynamic_ratios(ctx["q"], ctx["w"], ctx["tol"])


def _inv_angle_sums(ctx):
    if not is_finite(ctx["w"]):
        return None
    return angle_sums_at_point(ctx["q"], ctx["w"])


def _inv_pedal_w(ctx):
    q, w = ctx["q"], ctx["w"]
    if not is_finite(w):
        return None
    return parallelogram_residual(pedal_quadrilateral(q, w), q.scale())


def _inv_pedal_s(ctx):
    q, tol = ctx["q"], ctx["tol"]
    s = simson_point(q, tol)
    if not is_finite(s):
        return None
    return collinearity_residual(pedal_quadrilateral(q, s)) / q.scale()


def _inv_varignon(ctx):
    q = ctx["q"]
    return parallelogram_residual(varignon(q), q.scale())


def _inv_permutation(ctx):
    q, w, tol = ctx["q"], ctx["w"], ctx["tol"]
    if not is_finite(w):
        return None
    worst = 0.0
    for order in ("acbd", "acdb"):
        alt = isoptic_point(q.reordered(order), tol)
        if not is_finite(alt):
            return None
        worst = max(worst, alt.dist(w) / q.scale())
    return worst


def _inv_cotangent(ctx):
    return max(cotangent_identity_residuals(ctx["q"]))


def _inv_roundtrip(ctx):
    q, tol = ctx["q"], ctx["tol"]
    fwd = prev_generation(next_generation(q, tol), tol)
    bwd = next_generation(prev_generation(q, tol), tol)
    return max(quad_distance(q, fwd), quad_distance(q, bwd))


def _inv_cross_generation(ctx):
    q, w, tol = ctx["q"], ctx["w"], ctx["tol"]
    if not is_finite(w):
        return None
    return cross_generation_cs_residual(q, w, 3, tol)


def _inv_duality(ctx):
    q, w, tol = ctx["q"], ctx["w"], ctx["tol"]
    if not is_finite(w):
        return None
    return quadrangle_duality_residual(q, w, 1.0, tol)


def _inv_feet_circles(ctx):
    q, w, tol = ctx["q"], ctx["w"], ctx["tol"]
    if not is_finite(w):
        return None
    res = feet_circles_residual(q, w, tol)
    return None if math.isnan(res) else res


def _inv_spiral_transport(ctx):
    q, w, tol = ctx["q"], ctx["w"], ctx["tol"]
    if not is_finite(w):
        return None
    return spiral_transport_residual(q, w, tol)


def _inv_ptolemy(ctx):
    q = ctx["q"]
    A, B, C, D = q.vertices()
    ac, bd = A.dist(C), B.dist(D)
    ab, bc, cd, da = A.dist(B), B.dist(C), C.dist(D), D.dist(A)
    scale = q.scale() ** 2
    res1 = abs(ac * bd - (ab * cd + bc * da)) / scale
    lhs = ac / bd
    rhs = (ab * da + bc * cd) / (ab * bc + da * cd)
    res2 = abs(lhs - rhs) / max(1.0, abs(lhs))
    return max(res1, res2)


def _inv_periodicity(ctx):
    return periodicity_residual(ctx["q"], 2, ctx["tol"])


def _inv_cyclic_degeneration(ctx):
    q, tol = ctx["q"], ctx["tol"]
    try:
        next_generation(q, tol)
    except CyclicDegeneration as exc:
        o = exc.point
        return max(abs(o.dist(v) - o.dist(q.a)) for v in q.vertices()) / q.scale()
    return math.inf


# name -> (function, applicable shape classes)
INVARIANTS: dict[str, tuple] = {
    "six_cs_concurrence": (_inv_six_cs, _NONCYCLIC),
    "area_ratio": (_inv_area_ratio, _NONCYCLIC),
    "r_range": (_inv_r_range, SHAPE_CLASSES),
    "supplementary_angles": (_inv_supplementary, _NONCYCLIC),
    "w_agreement": (_inv_w_agreement, _GENERIC),
    "isoptic_spread": (_inv_isoptic_spread, _STABLE),
    "isodynamic": (_inv_isodynamic, _NONCYCLIC),
    "angle_sums": (_inv_angle_sums, _NONCYCLIC + ("cyclic",)),
    "pedal_w_parallelogram": (_inv_pedal_w, _NONCYCLIC + ("cyclic",)),
    "pedal_s_collinear": (_inv_pedal_s, _NONCYCLIC + ("cyclic",)),
    "varignon_parallelogram": (_inv_varignon, SHAPE_CLASSES),
    "permutation_invariance": (_inv_permutation, _GENERIC),
    "cotangent_identities": (_inv_cotangent, _GENERIC),
    "roundtrip_generations": (_inv_roundtrip, _GENERIC),
    "cross_generation_cs": (_inv_cross_generation, ("convex-noncyclic",)),
    "quadrangle_duality": (_inv_duality, _GENERIC),
    "feet_circles": (_inv_feet_circles, _GENERIC),
    "spiral_transport": (_inv_spiral_transport, _STABLE),
    "ptolemy": (_inv_ptolemy, ("cyclic",)),
    "periodicity": (_inv_periodicity, ("parallelogram-pi4", "orthocentric")),
    "cyclic_degeneration": (_inv_cyclic_degeneration, ("cyclic",)),
}


@dataclass
class InvariantStats:
    name: str
    cases_run: int = 0
    skipped: int = 0
    max_residual: float = 0.0
    failures: int = 0


@dataclass
class SuiteReport:
    spec: CaseSpec
    n_cases: int
    tol: float
    invariants: dict[str, InvariantStats]
    errors: int = 0

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
    applicable = {name: fn for name, (fn, classes) in INVARIANTS.items()
                  if spec.shape_class in classes}
    stats = {name: InvariantStats(name) for name in applicable}
    errors = 0
    for index in range(n_cases):
        try:
            q = random_quadrilateral(spec, index)
            ctx = _ctx(q, DEFAULT_TOL)
        except GeometryError:
            errors += 1
            continue
        for name, fn in applicable.items():
            st = stats[name]
            try:
                res = fn(ctx)
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
