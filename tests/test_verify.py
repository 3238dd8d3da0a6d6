import hashlib
import math

import pytest

from isoptic.kernel import is_finite
from isoptic.quad import (
    classify,
    isoptic_point_via_limit,
    noncyclicity_measure,
    similarity_ratio,
)
from isoptic.verify import (
    SHAPE_CLASSES,
    CaseSpec,
    random_quadrilateral,
    run_suite,
)

# sha256 of the float.hex vertices of random_quadrilateral(CaseSpec(s, cls), i)
# for s in 0..39, every shape class and i in 0..9: 3,200 draws
DRAWS_SHA256 = "329e769d497ed070e9ad42cc287cea2e3bfb64d5f6fb8ff532f7e3c6e95090e7"
# the same for s in 100..103, cls in convex-noncyclic and concave and
# i in 0..599: 4,800 draws, rich in draws the interior-angle test rejects
ANGLE_REJECTION_DRAWS_SHA256 = \
    "8f9d759285eceb1216d1bca40867d26fb83c4da5f98a2bb8702e21cfcc68c741"


def _draws_digest(seeds, shapes, count):
    digest = hashlib.sha256()
    for seed in seeds:
        for shape in shapes:
            for i in range(count):
                for v in random_quadrilateral(CaseSpec(seed, shape), i).vertices():
                    digest.update(f"{v.x.hex()} {v.y.hex()}\n".encode())
    return digest.hexdigest()


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
            assert abs(u.cross(v)) < 1e-9 * u.norm() * v.norm()

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
            assert w.dist(isoptic_point(q)) < 1e-7 * q.scale()


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

    def test_residuals_nonnegative(self):
        rep = run_suite(CaseSpec(seed=5, shape_class="concave"), 10, tol=1e-8)
        for stats in rep.invariants.values():
            assert stats.max_residual >= 0.0
            assert math.isfinite(stats.max_residual)
