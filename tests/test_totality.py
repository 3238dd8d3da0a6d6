"""Totality gate: on any quadrilateral the library accepts, at any place and
size in the float range, every public construction, residual, invariant,
reconstruction and command returns or raises a GeometryError.

The pool draws every shape class at scales 10^U(-323, 308), a third of them
at the bottom of the range and a third at its top, with offsets up to 1e8
diameters; moves D 10^-k (k = 4..17) diameters off the cyclic,
orthocentric, parallelogram and trapezoid loci; and steps either map up to
60 generations, where a shrinking orbit passes below W's ulp.  A call
passes when it returns no nan (an inf residual is allowed) or raises a
GeometryError; the CLI exits 0 or 2 and writes strict JSON.  No residual
reads inf where the same draw at scale 1 reads finite, except as
_INF_AT_SCALE lists.
"""

from __future__ import annotations

import cmath
import json
import math
import random

import pytest
from test_cli import _strict_json
from test_quad import _FLOAT_EDGE_REPLAYS, _holds_nan

from isoptic.cli import EXIT_DEGENERATE, EXIT_OK, main
from isoptic.curves import circle_of_similitude, max_cs_distance
from isoptic.errors import ConcentricCircles, GeometryError
from isoptic.kernel import Circle, Point
from isoptic.quad import (
    SHAPE_CLASSES,
    QuadState,
    Quadrilateral,
    next_generation,
    prev_generation,
    simson_line,
)
from isoptic.reconstruct import (
    reconstruct_fourth_vertex,
    reconstruct_from_pedal_w,
    reconstruct_from_simson,
)
from isoptic.render import LAYERS, render_svg
from isoptic.report import analyze
from isoptic.routes import (
    interior_angles,
    isogonal_conjugate_quad,
    isoptic_point_via_inv_iso,
    isoptic_point_via_inversion,
    isoptic_point_via_limit,
)
from isoptic.verify import INVARIANTS, CaseSpec, random_quadrilateral

# residual -> why it may read inf on a draw whose scale-1 twin reads finite
_INF_AT_SCALE = {
    "cyclic_degeneration": "a cyclic draw whose offset or subnormal size leaves too few "
                           "digits to resolve tol reads noncyclic, where this residual is inf",
}

# the classes whose D is moved off its locus
_LOCI = ("cyclic", "orthocentric", "parallelogram", "parallelogram-pi4", "trapezoid")

# (spec, case, scale, offset) found by scans of the float range's edges
_EDGE_REPLAYS = [
    # render_svg with every layer and cross_generation_cs ended in a ZeroDivisionError
    (CaseSpec(555340524, "convex-noncyclic"), 0, 2e-323, 0j),
    # the render command exited 1 with a ZeroDivisionError traceback
    (CaseSpec(3, "cyclic"), 0, 1e-316, 0j),
    # analyze wrote "six_cs": Infinity
    (CaseSpec(3, "cyclic"), 0, 1e-320, 0j),
    (CaseSpec(3, "near-cyclic"), 0, 1e-320, 0j),
    # two triad centers 5e-324 apart whose k gap underflowed to 0 with W on
    # their circle of similitude's center: analyze ended in a ZeroDivisionError
    (CaseSpec(12, "trapezoid"), 0, 1.5e-323, 0j),
    # near the float maximum: prev_generation built a Q1 whose C read y = inf
    (CaseSpec(262840463, "convex-noncyclic"), 0, 5.253275993046508e307,
     complex(-2.2724145793592706e307, 1.4732307017984786e308)),
]


def _moved(q: Quadrilateral, scale: float, offset: complex) -> Quadrilateral:
    return Quadrilateral(*(Point(v * scale + offset) for v in q.vertices()))


def _pool(seed: int, n: int):
    """n seeded draws as (label, quadrilateral at scale 1, scale, offset)."""
    rng = random.Random(seed)
    for i in range(n):
        kind, shape = i % 3, SHAPE_CLASSES[i % len(SHAPE_CLASSES)]
        spec = CaseSpec(rng.randrange(1 << 30), _LOCI[i % len(_LOCI)] if kind == 1 else shape)
        label = [spec]
        try:
            q = random_quadrilateral(spec, 0)
            if kind == 1:  # D moved 10^-k diameters off its class's locus
                k = rng.randint(4, 17)
                a, b, c, d = q.vertices()
                d = Point(d + 10.0 ** -k * cmath.rect(q.scale(), 2.0 * math.pi * rng.random()))
                q, label = Quadrilateral(a, b, c, d), label + [f"D off by 1e-{k}"]
            elif kind == 2:  # up to 60 steps of one map, or to its last generation
                step, depth = rng.choice((next_generation, prev_generation)), 0
                for _ in range(rng.randint(1, 60)):
                    try:
                        q, depth = step(q), depth + 1
                    except GeometryError:
                        break
                label.append(f"{step.__name__} x {depth}")
        except GeometryError:
            continue
        # a third across the float range, a third each at its bottom and top
        scale = 10.0 ** rng.uniform(*rng.choice(((-323.0, 308.0), (-323.0, -300.0),
                                                  (290.0, 308.0))))
        offset = 0j
        if rng.random() < 0.5:
            offset = cmath.rect(scale * q.scale() * 10.0 ** rng.uniform(0.0, 8.0),
                                2.0 * math.pi * rng.random())
        yield label, q, scale, offset


def _replays():
    for spec, index, scale, offset in _EDGE_REPLAYS + _FLOAT_EDGE_REPLAYS:
        yield [spec, index], random_quadrilateral(spec, index), scale, offset


def _outcome(call):
    """call's value, or the class name of the GeometryError it raises."""
    try:
        return call()
    except GeometryError as exc:
        return type(exc).__name__


def _residuals(q: Quadrilateral, run=lambda name, call: _outcome(call)) -> tuple[dict, object]:
    """Each INVARIANTS entry and each residual of analyze, by name, read by
    run, with the report: a value, None, or a GeometryError's class name."""
    report = run("analyze", lambda: analyze(q))
    out = {name: run(name, lambda fn=fn: fn(QuadState(q))) for name, (fn, _) in INVARIANTS.items()}
    if report is not None and not isinstance(report, str):
        out.update((f"analyze.{name}", value) for name, value in report.residuals.items())
    return out, report


def _faults(draw, tmp_path=None) -> list:
    """What breaks totality on one draw: escapes, nan values, inf residuals
    whose scale-1 twin reads finite, and CLI exits other than 0 and 2."""
    label, q1, scale, offset = draw
    try:
        q = _moved(q1, scale, offset)
    except GeometryError:
        return []  # not a quadrilateral at this size: nothing to check
    faults = []

    def run(name, call):
        try:
            value = _outcome(call)
        except Exception as exc:  # noqa: BLE001  what the gate is for
            faults.append((name, type(exc).__name__, str(exc)[:60]))
            return None
        if _holds_nan(value):
            faults.append((name, "nan", repr(value)[:60]))
        return value

    residuals, report = _residuals(q, run)
    if report is not None and not isinstance(report, str):
        # r is nan by design where the angles are ill-conditioned
        run("report", lambda: (report.w, report.s, report.pedal_w, report.pedal_s,
                               report.varignon, report.triads.circles, report.residuals))
    ref = _residuals(q1)[0] if (scale, offset) != (1.0, 0j) else residuals
    for name, value in residuals.items():
        finite_ref = isinstance(ref.get(name), float) and math.isfinite(ref[name])
        if value == math.inf and finite_ref and name not in _INF_AT_SCALE:
            faults.append((name, "inf", f"{ref[name]!r} at scale 1"))
    for name, call in (("next_generation", lambda: next_generation(q)),
                       ("prev_generation", lambda: prev_generation(q)),
                       ("via_limit", lambda: isoptic_point_via_limit(q)),
                       ("via_inversion", lambda: isoptic_point_via_inversion(q)),
                       ("via_inv_iso", lambda: isoptic_point_via_inv_iso(q)),
                       ("simson_line", lambda: simson_line(q)),
                       ("interior_angles", lambda: interior_angles(q))):
        run(name, call)
    st = run("state", lambda: QuadState(q))
    if isinstance(st, QuadState):
        run("conjugate at W", lambda: isogonal_conjugate_quad(st, st.w))
        run("conjugate at S", lambda: isogonal_conjugate_quad(st, st.s))
        run("from_pedal_w", lambda: reconstruct_from_pedal_w(st.w, st.pedal_w or []))
        run("from_simson", lambda: reconstruct_from_simson(st.s, st.pedal_s or []))
        run("fourth_vertex", lambda: reconstruct_fourth_vertex(q.a, q.b, q.c, st.w))
    if tmp_path is not None:
        svg = run("render_svg", lambda: render_svg(q, LAYERS))
        if isinstance(svg, str) and ("nan" in svg or "inf" in svg):
            faults.append(("render_svg", "nan", "a non-finite number in the SVG"))
        faults += _cli_faults(q, tmp_path)
    return [(label, scale, offset, *fault) for fault in faults]


def _cli_faults(q: Quadrilateral, tmp_path) -> list:
    path, out = tmp_path / "quad.json", tmp_path / "out"
    path.write_text(json.dumps({"vertices": [[v.x, v.y] for v in q.vertices()]}))
    faults = []
    for args in (["analyze"], ["render", "--layers", ",".join(LAYERS)]):
        out.unlink(missing_ok=True)
        try:
            rc = main([args[0], str(path), *args[1:], "--out", str(out)])
        except Exception as exc:  # noqa: BLE001
            faults.append((f"cli {args[0]}", type(exc).__name__, str(exc)[:60]))
            continue
        if rc not in (EXIT_OK, EXIT_DEGENERATE):
            faults.append((f"cli {args[0]}", f"exit {rc}", ""))
        elif rc == EXIT_OK and args[0] == "analyze":
            try:
                _strict_json(out.read_text())
            except ValueError as exc:
                faults.append(("cli analyze", "not strict JSON", str(exc)[:60]))
    return faults


def _gate(draws, tmp_path, cli_every: int) -> list:
    faults = []
    for i, draw in enumerate(draws):
        faults += _faults(draw, tmp_path if i % cli_every == 0 else None)
    return faults


def test_replays_are_total(tmp_path):
    assert _gate(_replays(), tmp_path, 1) == []


def test_pool_is_total(tmp_path):
    assert _gate(_pool(20261022, 800), tmp_path, 8) == []


@pytest.mark.slow
def test_larger_pool_is_total(tmp_path):
    assert _gate(_pool(7, 3000), tmp_path, 8) == []


def test_a_pair_whose_k_gap_underflows_is_concentric():
    # w at the center of the circle of similitude of two subnormal circles
    # 5e-324 apart, where k gap underflows to 0 with the defect: the division
    # by their sum raised ZeroDivisionError, and the circle's radius k gap /
    # |1 - k^2| read 0 (DegenerateCircle).  The same pair in units of 5e-324
    # reads 2/7
    pair = [Circle(0j, 1e-323), Circle(5e-324 + 0j, 2.5e-323)]
    with pytest.raises(ConcentricCircles):
        max_cs_distance(0j, pair)
    with pytest.raises(ConcentricCircles):
        circle_of_similitude(*pair)
    assert max_cs_distance(0j, [Circle(0j, 2.0), Circle(1 + 0j, 5.0)]) == pytest.approx(2 / 7)
