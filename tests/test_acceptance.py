"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single PASS/FAIL line; corpora are generated once per
session and shared.
"""

import json
import math
import random

import pytest

from isoptic.kernel import (
    Point,
    circle_of_similitude,
    is_finite,
    orthocenter,
)
from isoptic.quad import (
    Quadrilateral,
    cotangent_identity_residuals,
    collinearity_residual,
    interior_angles,
    isodynamic_ratios,
    isoptic_point,
    isoptic_point_via_inv_iso,
    isoptic_point_via_inversion,
    isoptic_point_via_limit,
    isoptic_quantity,
    next_generation,
    parallelogram_residual,
    pedal_quadrilateral,
    prev_generation,
    quad_distance,
    quadrangle_duality_residual,
    cross_generation_cs_residual,
    reconstruct_fourth_vertex,
    reconstruct_from_pedal_w,
    reconstruct_from_simson,
    similarity_ratio,
    simson_point,
    triad_circles,
    varignon,
)
from isoptic.verify import CaseSpec, random_quadrilateral


def report(number, description, worst, bound):
    ok = worst < bound
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] "
          f"{description}: worst residual {worst:.3e} (bound {bound:.0e})")
    assert ok, f"criterion {number}: {worst:.3e} >= {bound:.0e}"


def corpus(shape_class, count, seed=42):
    spec = CaseSpec(seed=seed, shape_class=shape_class)
    return [random_quadrilateral(spec, i) for i in range(count)]


@pytest.fixture(scope="module")
def convex_1000():
    return corpus("convex-noncyclic", 1000)


@pytest.fixture(scope="module")
def concave_1000():
    return corpus("concave", 1000)


def test_criterion_01_ratio_spot_values():
    worst = 0.0
    a = Point(0, 0)
    u = Point(2, 0)
    v = Point(3 / math.sqrt(2), 3 / math.sqrt(2))
    pi4 = Quadrilateral(a, a + u, a + u + v, a + v)
    worst = max(worst, abs(similarity_ratio(pi4) + 1.0))
    p, q, r = Point(0, 0), Point(4, 0), Point(1, 3)
    ortho = Quadrilateral(p, q, r, orthocenter(p, q, r))
    worst = max(worst, abs(similarity_ratio(ortho) - 1.0))
    for ts in ((0.2, 1.1, 2.9, 4.5), (0.7, 1.8, 3.6, 5.4)):
        cyc = Quadrilateral(*(Point(math.cos(t), math.sin(t)) for t in ts))
        worst = max(worst, abs(similarity_ratio(cyc)))
    report(1, "ratio spot values (pi/4 parallelogram, orthocentric, cyclic)",
           worst, 1e-9)


def test_criterion_02_area_ratio_law(convex_1000):
    worst = 0.0
    for q in convex_1000:
        r = similarity_ratio(q)
        q2 = next_generation(q)
        worst = max(worst, abs(abs(r) - q2.area() / q.area()))
    report(2, "area ratio equals |r| on 1000 convex-noncyclic cases",
           worst, 1e-9)


def test_criterion_03_six_circle_concurrence(convex_1000, concave_1000):
    worst = 0.0
    for q in convex_1000 + concave_1000:
        w = isoptic_point(q)
        assert is_finite(w)
        circles = triad_circles(q).circles
        for i in range(4):
            for j in range(i + 1, 4):
                cs = circle_of_similitude(circles[i], circles[j])
                worst = max(worst, cs.distance_to(w) / q.scale())
    report(3, "all six similitude circles pass through W (2000 cases)",
           worst, 1e-8)


def test_criterion_04_four_way_agreement(convex_1000, concave_1000):
    cases = [q for q in convex_1000 if 0.05 <= abs(similarity_ratio(q)) <= 0.9]
    cases += [q for q in concave_1000 if 1.1 <= similarity_ratio(q) <= 5.0]
    spec_cx = CaseSpec(seed=7, shape_class="convex-noncyclic")
    spec_cc = CaseSpec(seed=7, shape_class="concave")
    i = 0
    while len(cases) < 1000:
        for spec in (spec_cx, spec_cc):
            q = random_quadrilateral(spec, i)
            r = similarity_ratio(q)
            if 0.05 <= abs(r) <= 0.9 or 1.1 <= r <= 5.0:
                cases.append(q)
        i += 1
    cases = cases[:1000]
    worst = 0.0
    for q in cases:
        pts = [isoptic_point(q),
               isoptic_point_via_limit(q),
               isoptic_point_via_inversion(q),
               isoptic_point_via_inv_iso(q)]
        assert all(is_finite(p) for p in pts)
        for a in range(4):
            for b in range(a + 1, 4):
                worst = max(worst, pts[a].dist(pts[b]) / q.scale())
    report(4, "four W constructions agree pairwise (1000 cases)", worst, 1e-7)


def test_criterion_05_isoptic_isodynamic(convex_1000, concave_1000):
    worst = 0.0
    for q in convex_1000 + concave_1000:
        w = isoptic_point(q)
        qty = isoptic_quantity(q, w)
        mean = sum(qty) / 4.0
        worst = max(worst, (max(qty) - min(qty)) / mean)
        worst = max(worst, isodynamic_ratios(q, w))
    report(5, "equal subtended-angle quantity and isodynamic ratios at W",
           worst, 1e-8)


def test_criterion_06_pedal_dichotomy(convex_1000, concave_1000):
    quads = (convex_1000[:10] + concave_1000[:10])
    worst = 0.0
    rng = random.Random(1234)
    violations_ok = True
    for q in quads:
        scale = q.scale()
        w = isoptic_point(q)
        s = simson_point(q)
        feet_w = pedal_quadrilateral(q, w)
        worst = max(worst, parallelogram_residual(feet_w, scale) / 1e-8)
        # parallelogram angles match the Varignon parallelogram's
        ang_p = sorted(interior_angles(Quadrilateral(*feet_w)))
        ang_v = sorted(interior_angles(Quadrilateral(*varignon(q))))
        ang_res = max(abs(x - y) for x, y in zip(ang_p, ang_v))
        worst = max(worst, ang_res / 1e-9)
        if is_finite(s):
            feet_s = pedal_quadrilateral(q, s)
            worst = max(worst, collinearity_residual(feet_s) / scale / 1e-8)
        c = q.centroid()
        for _ in range(100):
            p = c + Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) * scale
            if p.dist(w) < 0.05 * scale or (is_finite(s) and p.dist(s) < 0.05 * scale):
                continue
            feet = pedal_quadrilateral(q, p)
            if (parallelogram_residual(feet, scale) < 1e-5
                    and collinearity_residual(feet) / scale < 1e-5):
                violations_ok = False
    assert violations_ok, "a random non-central point passed both pedal tests"
    report(6, "pedal of W is a parallelogram, pedal of S is collinear, "
              "and only there (normalized to bound 1)", worst, 1.0)


def test_criterion_07_roundtrips_and_reconstructions(convex_1000):
    worst = 0.0
    for q in convex_1000[:200]:
        scale = q.scale()
        worst = max(worst, quad_distance(q, prev_generation(next_generation(q))) / scale)
        worst = max(worst, quad_distance(q, next_generation(prev_generation(q))) / scale)
        w = isoptic_point(q)
        rec = reconstruct_from_pedal_w(w, pedal_quadrilateral(q, w))
        worst = max(worst, quad_distance(q, rec) / scale)
        s = simson_point(q)
        if is_finite(s):
            rec = reconstruct_from_simson(s, pedal_quadrilateral(q, s))
            worst = max(worst, quad_distance(q, rec) / scale)
        a, b, c, d = q.vertices()
        worst = max(worst, reconstruct_fourth_vertex(a, b, c, w).dist(d) / scale)
    report(7, "generation round-trips and all three reconstructions "
              "(200 cases)", worst, 1e-8)


def test_criterion_08_periodicity_ptolemy_cotangent():
    worst_period = 0.0
    for q in corpus("parallelogram-pi4", 50) + corpus("orthocentric", 50):
        q3 = next_generation(next_generation(q))
        worst_period = max(worst_period, quad_distance(q, q3) / q.scale())
    worst_ptolemy = 0.0
    for q in corpus("cyclic", 1000):
        a, b, c, d = q.vertices()
        ac, bd = a.dist(c), b.dist(d)
        ab, bc, cd, da = a.dist(b), b.dist(c), c.dist(d), d.dist(a)
        worst_ptolemy = max(
            worst_ptolemy,
            abs(ac * bd - (ab * cd + bc * da)) / q.scale() ** 2,
            abs(ac / bd - (ab * da + bc * cd) / (ab * bc + da * cd)))
    worst_cot = 0.0
    for q in corpus("convex-noncyclic", 500) + corpus("concave", 500):
        worst_cot = max(worst_cot, max(cotangent_identity_residuals(q)))
    worst = max(worst_period / 1e-8, worst_ptolemy / 1e-10, worst_cot / 1e-9)
    report(8, "period-2 classes, Ptolemy on 1000 cyclic, cotangent "
              "identities on 1000 generic (normalized to bound 1)", worst, 1.0)


def test_criterion_09_cross_generation_and_duality(convex_1000):
    worst = 0.0
    for q in convex_1000[:200]:
        w = isoptic_point(q)
        worst = max(worst, cross_generation_cs_residual(q, w))
        worst = max(worst, quadrangle_duality_residual(q, w, 1.0))
    report(9, "cross-generation similitude circles and quadrangle duality "
              "(200 cases)", worst, 1e-7)


def test_criterion_10_cli_determinism(tmp_path):
    from isoptic.cli import main
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    args = ["verify", "--cases", "1000", "--seed", "42",
            "--class", "convex-noncyclic", "--tol", "1e-8"]
    rc1 = main(args + ["--out", str(out1)])
    rc2 = main(args + ["--out", str(out2)])
    assert rc1 == 0 and rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    quad_path = tmp_path / "q.json"
    quad_path.write_text(json.dumps(
        {"vertices": [[0, 0], [4, 0], [5, 3], [1, 4]]}))
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_args = ["render", str(quad_path), "--layers",
                   "quad,triads,cs,w,s,pedal-w,pedal-s,varignon,simson,generations"]
    assert main(render_args + ["--out", str(svg1)]) == 0
    assert main(render_args + ["--out", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    print("criterion 10 [PASS] CLI verify exits 0 with byte-identical "
          "reports; render output is byte-stable")
