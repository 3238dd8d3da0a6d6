import hashlib
import json
import math

import pytest

from isoptic.errors import GeometryError
from isoptic.kernel import Point, is_finite
from isoptic.quad import (
    Quadrilateral,
    QuadState,
    classify,
    next_generation,
    prev_generation,
    similarity_ratio,
)
from isoptic.report import analyze
from isoptic.routes import (
    interior_angles,
    isogonal_conjugate_quad,
    isoptic_point_via_inv_iso,
    isoptic_point_via_inversion,
    isoptic_point_via_limit,
)
from isoptic.verify import (
    INVARIANTS,
    SHAPE_CLASSES,
    CaseSpec,
    random_quadrilateral,
    run_suite,
    spiral_transport_residual,
)

from cyclicity import noncyclicity_measure

# sha256 of the float.hex vertices of random_quadrilateral(CaseSpec(s, cls), i)
# for s in 0..39, every shape class and i in 0..9: 3,200 draws
DRAWS_SHA256 = "372813761b3a0ffe46e7170779f65031e8b19e52b8870abaa45fdbf47705614b"
# the same for s in 100..103, cls in convex-noncyclic and concave and
# i in 0..599: 4,800 draws, rich in draws the interior-angle test rejects
ANGLE_REJECTION_DRAWS_SHA256 = \
    "8f9d759285eceb1216d1bca40867d26fb83c4da5f98a2bb8702e21cfcc68c741"
# sha256 of json.dumps(run_suite(CaseSpec(5, cls), 60).to_dict()), one line
# per shape class in SHAPE_CLASSES order; and of the repr of (r, w, s,
# residuals) of analyze on random_quadrilateral(CaseSpec(7, cls), i) for
# every class and i in 0..49.  A change that only makes the program faster
# keeps both bit for bit; a re-pin means the reports or results changed, and
# the change that re-pins says why
SUITE_SHA256 = "9da9c1d63d729abc1312037dac94dde50dfb9689e6122f46ef637a041b2d434b"
ANALYZE_SHA256 = "6127af2ef63997e0c78945681266010c1d8508cd75fa60df12b419118b4cd38f"
# sha256 of the repr of the whole AnalysisReport (every field: the triads,
# shape, pedal feet, Varignon midpoints and mean isoptic quantity too) of
# analyze on the same 400 quadrilaterals scaled by 1, 1e-300 and 1e300, one
# line per report, in that order
REPORT_SHA256 = "ca888c07df10f9ce415a155b01158b79d4a83c8b4b0b68acca67ad3758e130c0"
# sha256 of one line per case of random_quadrilateral(CaseSpec(5, cls), i)
# for every class and i in 0..59, scaled by 1, 1e-300 and 1e300: the repr
# (or the GeometryError's name) of W, of every INVARIANTS entry, whether or
# not the class runs it, of the three W routes, both generation maps and
# interior_angles.  SUITE_SHA256 holds only each invariant's maximum; this
# holds every case below it too
RESIDUALS_SHA256 = "b1211dccc9c858b410c4625583b4d82c66d7c7ac930bc7dc1508ecf0ba74c239"
# the same cases, one line each: the repr (or the GeometryError's name) of
# isogonal_conjugate_quad(st, st.w), then of isogonal_conjugate_quad(st, st.s)
CONJUGATE_SHA256 = "d8b4491762f77460a9b41fe55ee910dcc49b4b399b72b153ae18833b967dbdf8"
_CASE_PARTS = ((lambda st: st.w,) + tuple(fn for fn, _ in INVARIANTS.values())
               + (isoptic_point_via_limit, isoptic_point_via_inversion, isoptic_point_via_inv_iso,
                  next_generation, prev_generation, interior_angles))


def _draws_digest(seeds, shapes, count):
    digest = hashlib.sha256()
    for seed in seeds:
        for shape in shapes:
            for i in range(count):
                for v in random_quadrilateral(CaseSpec(seed, shape), i).vertices():
                    digest.update(f"{v.x.hex()} {v.y.hex()}\n".encode())
    return digest.hexdigest()


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except GeometryError as exc:
        return type(exc).__name__


def _scaled_cases_digest(line):
    """sha256 of line(st), one per case of RESIDUALS_SHA256's recipe."""
    digest = hashlib.sha256()
    for scale in (1.0, 1e-300, 1e300):
        for cls in SHAPE_CLASSES:
            for i in range(60):
                q = random_quadrilateral(CaseSpec(5, cls), i)
                st = QuadState(Quadrilateral(*(Point(v * scale) for v in q.vertices())))
                digest.update(line(st).encode() + b"\n")
    return digest.hexdigest()


class TestPinnedResults:
    def test_suite_reports_are_pinned(self):
        digest = hashlib.sha256()
        for cls in SHAPE_CLASSES:
            report = run_suite(CaseSpec(5, cls), 60).to_dict()
            digest.update(json.dumps(report).encode() + b"\n")
        assert digest.hexdigest() == SUITE_SHA256

    def test_analyze_results_are_pinned(self):
        digest = hashlib.sha256()
        for cls in SHAPE_CLASSES:
            for i in range(50):
                rep = analyze(random_quadrilateral(CaseSpec(7, cls), i))
                digest.update(repr((rep.r, rep.w, rep.s, rep.residuals)).encode() + b"\n")
        assert digest.hexdigest() == ANALYZE_SHA256

    def test_whole_reports_are_pinned(self):
        digest = hashlib.sha256()
        for scale in (1.0, 1e-300, 1e300):
            for cls in SHAPE_CLASSES:
                for i in range(50):
                    q = random_quadrilateral(CaseSpec(7, cls), i)
                    rep = analyze(Quadrilateral(*(Point(v * scale) for v in q.vertices())))
                    digest.update(repr(rep).encode() + b"\n")
        assert digest.hexdigest() == REPORT_SHA256

    def test_every_case_is_pinned(self):
        digest = _scaled_cases_digest(lambda st: " ".join(_outcome(fn, st) for fn in _CASE_PARTS))
        assert digest == RESIDUALS_SHA256

    def test_conjugates_are_pinned(self):
        digest = _scaled_cases_digest(lambda st: " ".join(
            _outcome(isogonal_conjugate_quad, st, p) for p in (st.w, st.s)))
        assert digest == CONJUGATE_SHA256


class TestGenerator:
    def test_draws_are_pinned(self):
        # a cheaper Quadrilateral or generator must not change which cases
        # the suite and the benchmark see
        assert _draws_digest(range(40), SHAPE_CLASSES, 10) == DRAWS_SHA256

    def test_angle_rejections_are_pinned(self):
        # the angle test runs before the class's own tests; the order of the
        # tests must not change which draws are accepted
        digest = _draws_digest(range(100, 104), ("convex-noncyclic", "concave"), 600)
        assert digest == ANGLE_REJECTION_DRAWS_SHA256

    def test_deterministic(self):
        spec = CaseSpec(seed=42, shape_class="convex-noncyclic")
        q1 = random_quadrilateral(spec, 0)
        q2 = random_quadrilateral(spec, 0)
        assert q1.vertices() == q2.vertices()

    def test_distinct_indices_differ(self):
        spec = CaseSpec(seed=42, shape_class="convex-noncyclic")
        assert random_quadrilateral(spec, 0).vertices() != \
            random_quadrilateral(spec, 1).vertices()

    def test_cyclic_cases_are_cyclic(self):
        spec = CaseSpec(seed=1, shape_class="cyclic")
        for i in range(10):
            assert noncyclicity_measure(random_quadrilateral(spec, i)) < 1e-12

    def test_orthocentric_cases(self):
        spec = CaseSpec(seed=1, shape_class="orthocentric")
        for i in range(10):
            q = random_quadrilateral(spec, i)
            assert similarity_ratio(q) == pytest.approx(1.0, abs=1e-9)

    def test_trapezoid_cases_have_parallel_pair(self):
        spec = CaseSpec(seed=1, shape_class="trapezoid")
        for i in range(10):
            vs = random_quadrilateral(spec, i).vertices()
            u = vs[1] - vs[0]
            v = vs[2] - vs[3]
            assert abs((u.conjugate() * v).imag) < 1e-9 * abs(u) * abs(v)

    def test_concave_cases_have_large_r(self):
        spec = CaseSpec(seed=1, shape_class="concave")
        for i in range(10):
            assert similarity_ratio(random_quadrilateral(spec, i)) > 1.0

    def test_near_cyclic_band(self):
        spec = CaseSpec(seed=1, shape_class="near-cyclic")
        for i in range(10):
            q = random_quadrilateral(spec, i)
            assert not classify(q).cyclic
            assert noncyclicity_measure(q) < 1e-4

    def test_normalized_scale(self):
        spec = CaseSpec(seed=3, shape_class="convex-noncyclic")
        q = random_quadrilateral(spec, 0)
        assert q.scale() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            CaseSpec(seed=1, shape_class="pentagon")


class TestOracle:
    def test_agrees_with_direct_construction(self):
        from isoptic.quad import isoptic_point
        spec = CaseSpec(seed=9, shape_class="convex-noncyclic")
        for i in range(5):
            q = random_quadrilateral(spec, i)
            w = isoptic_point_via_limit(q)
            assert is_finite(w)
            assert abs(w - isoptic_point(q)) < 1e-7 * q.scale()


class TestRunSuite:
    def test_deterministic_reports(self):
        spec = CaseSpec(seed=5, shape_class="convex-noncyclic")
        r1 = run_suite(spec, 20, tol=1e-8)
        r2 = run_suite(spec, 20, tol=1e-8)
        assert r1.to_dict() == r2.to_dict()

    def test_zero_failures_on_every_class(self):
        for sc in SHAPE_CLASSES:
            rep = run_suite(CaseSpec(seed=5, shape_class=sc), 15, tol=1e-8)
            assert rep.failures == 0, f"{sc}: {rep.to_dict()}"

    @pytest.mark.parametrize("seed, most", [(2, 0), (3, 0), (7, 0)])
    def test_trapezoid_roundtrip_failures_do_not_grow(self, seed, most):
        # nearly cyclic trapezoids, whose Q2 shrinks to rounding level; seed 3
        # case 397 (r = -1.4e-10) failed at 2.5e-8 while Q2 was rebuilt from
        # its rounded absolute centers and conjugated in absolute coordinates
        rep = run_suite(CaseSpec(seed, "trapezoid"), 1000)
        assert rep.invariants["roundtrip_generations"].failures <= most, rep.to_dict()

    @pytest.mark.slow
    @pytest.mark.parametrize("seed, shape_class",
                             [(s, c) for s in (7, 42) for c in SHAPE_CLASSES]
                             + [(s, "near-cyclic") for s in range(100, 120)])
    def test_no_failures_at_a_thousand_cases(self, seed, shape_class):
        # Q2 of a nearly cyclic case shrinks to a point; it keeps the shape of
        # its closed-form side table, so its angles stay supplementary
        rep = run_suite(CaseSpec(seed, shape_class), 1000)
        assert rep.failures == 0 and rep.errors == 0, rep.to_dict()
        if shape_class == "trapezoid":
            # w_agreement has no |r| window: it runs on every trapezoid
            assert rep.invariants["w_agreement"].cases_run == 1000

    def test_q2_construction_runs_on_noncyclic_classes(self):
        for sc in SHAPE_CLASSES:
            rep = run_suite(CaseSpec(seed=5, shape_class=sc), 5)
            stats = rep.invariants.get("q2_construction")
            if sc in ("cyclic", "orthocentric"):
                assert stats is None
            else:
                assert stats.cases_run == 5 and stats.max_residual < 1e-13

    def test_cyclic_runs_ptolemy_but_not_cs(self):
        rep = run_suite(CaseSpec(seed=5, shape_class="cyclic"), 5, tol=1e-8)
        assert "ptolemy" in rep.invariants
        assert "six_cs_concurrence" not in rep.invariants

    def test_rejects_nonpositive_case_count(self):
        with pytest.raises(ValueError):
            run_suite(CaseSpec(seed=5, shape_class="cyclic"), 0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_tol_that_is_not_finite_and_positive(self, tol):
        # at nan no residual exceeds tol, so every case passed
        with pytest.raises(ValueError):
            run_suite(CaseSpec(seed=5, shape_class="cyclic"), 1, tol)

    def test_a_nan_residual_is_a_failure(self, monkeypatch):
        # res > tol let a nan pass; max_residual keeps max's choice, which drops it
        monkeypatch.setitem(INVARIANTS, "r_range", (lambda st: math.nan, SHAPE_CLASSES))
        rep = run_suite(CaseSpec(seed=5, shape_class="concave"), 3)
        stats = rep.invariants["r_range"]
        assert (stats.cases_run, stats.failures, stats.max_residual) == (3, 3, 0.0)
        assert rep.failures == 3

    def test_residuals_nonnegative(self):
        rep = run_suite(CaseSpec(seed=5, shape_class="concave"), 10, tol=1e-8)
        for stats in rep.invariants.values():
            assert stats.max_residual >= 0.0
            assert math.isfinite(stats.max_residual)


@pytest.mark.parametrize("factor, exact", [(2.0 ** -600, True), (2.0 ** 600, True),
                                           (1e-300, False), (1e300, False)])
def test_spiral_transport_holds_at_extreme_scales(factor, exact):
    # CaseSpec(5, "convex-noncyclic") case 0 reads 4.7e-16 at scale 1.  The
    # phase product of two raw offsets from W underflowed at 2^-600 and
    # 1e-300 (the residual read 1.19, a false failure) and overflowed at
    # 2^600 and 1e300, where its nan was read as 0.0
    q = random_quadrilateral(CaseSpec(5, "convex-noncyclic"), 0)
    ref = spiral_transport_residual(QuadState(q))
    got = spiral_transport_residual(QuadState(Quadrilateral(*(Point(v * factor)
                                                              for v in q.vertices()))))
    if exact:  # a power of two scales every offset exactly
        assert got == ref
    else:
        assert 0.0 < got <= 1e-15
