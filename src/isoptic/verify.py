"""Seeded random-instance generator and the invariant suite.

Each structural identity becomes a numerical residual evaluated on
randomized quadrilaterals.  Everything is deterministic given (seed, shape class,
case count); residuals are reported scale-free (divided by the input
diameter, which the generator normalizes to 1).
"""

from __future__ import annotations

import cmath
import math
import random

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
    check_tol,
    circumscribe,
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
    reordered_isoptic_points,
    shape_of_sides,
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
        return max(0.0, min(abs(da), abs(da - pi), abs(da + pi)),
                   min(abs(db), abs(db - pi), abs(db + pi)),
                   min(abs(dc), abs(dc - pi), abs(dc + pi)),
                   min(abs(dd), abs(dd - pi), abs(dd + pi)))
    return max(0.0, abs(xa + ya - pi), abs(xb + yb - pi), abs(xc + yc - pi), abs(xd + yd - pi))


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
    return max(0.0, abs(acbd - w) / st.scale, abs(acdb - w) / st.scale)


def _inv_cotangent(st):
    return max(cotangent_identity_residuals(st))


def _inv_roundtrip(st):
    return max(quad_distance(st.q, st.next.prev.q), quad_distance(st.q, st.prev.next.q))


def _inv_cross_generation(st):
    return cross_generation_cs_residual(st, st.w) if is_finite(st.w) else None


def _inv_duality(st):
    return quadrangle_duality_residual(st, st.w, 1.0) if is_finite(st.w) else None


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
