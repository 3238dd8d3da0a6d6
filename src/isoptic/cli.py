"""Command-line front end.

Subcommands: analyze, iterate, verify, render, reconstruct.
Exit codes: 0 success, 1 usage or parse error, 2 geometric degeneracy,
3 a verify run with an invariant failure or a case error.
Numbers print as json.dumps does, in the shortest repr that round-trips.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import __version__
from .errors import CyclicDegeneration, GeometryError
from .kernel import DEFAULT_TOL, AtInfinity, Point, is_finite
from .quad import (
    QuadState,
    Quadrilateral,
    analyze,
    isoptic_point,
    reconstruct_fourth_vertex,
    reconstruct_from_pedal_w,
    reconstruct_from_simson,
    simson_point,
)
from .render import render_svg
from .verify import SHAPE_CLASSES, CaseSpec, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_FAILURES = 3


def _num(x: float) -> float:
    return 0.0 if x == 0.0 else x  # avoid "-0.0" in reports


def _xy(p: complex) -> list[float]:
    return [_num(p.real), _num(p.imag)]


def _point_json(p):
    if isinstance(p, AtInfinity):
        return {"kind": "at-infinity", "direction": [_num(p.dx), _num(p.dy)]}
    return {"kind": "point", "xy": _xy(p)}


def _points_json(pts):
    return [_xy(p) for p in pts]


def _circle_json(c):
    return {"kind": "circle", "center": _xy(c.o), "radius": _num(c.r)}


def _dump(obj, out_path: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def load_quad_file(path: str, tol: float = DEFAULT_TOL) -> Quadrilateral:
    """Parse {"vertices": [[x, y] x 4]}, valid at tol; malformed content raises ValueError."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError("expected an object with a 'vertices' key")
    verts = data["vertices"]
    if not isinstance(verts, list) or len(verts) != 4:
        raise ValueError("'vertices' must list exactly 4 [x, y] pairs")
    pts = []
    for pair in verts:
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in pair)):
            raise ValueError(f"bad vertex entry {pair!r}")
        try:
            x, y = float(pair[0]), float(pair[1])
        except OverflowError:  # an integer too large for a float
            x = y = math.inf
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("vertex coordinates must be finite")
        pts.append(Point(x, y))
    return Quadrilateral(*pts, tol=tol)


def _parse_xy(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    x, y = float(parts[0]), float(parts[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("coordinates must be finite")
    return Point(x, y)


def _tol(text: str) -> float:
    tol = float(text)
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return tol


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    q = load_quad_file(args.file, args.tol)
    rep = analyze(q)
    doc = {
        "tool_version": __version__,
        "tolerance": _num(args.tol),
        "input": {"vertices": _points_json(q.vertices())},
        "shape": {
            "convex": rep.shape.convex,
            "concave": rep.shape.concave,
            "cyclic": rep.shape.cyclic,
            "orthocentric": rep.shape.orthocentric,
            "trapezoid": rep.shape.trapezoid,
            "parallelogram": rep.shape.parallelogram,
        },
        "r": None if math.isnan(rep.r) else _num(rep.r),
        "w": _point_json(rep.w),
        "s": _point_json(rep.s),
        "triad_circles": [_circle_json(c) for c in rep.triads.circles],
        "pedal_w": _points_json(rep.pedal_w) if rep.pedal_w else None,
        "pedal_s": _points_json(rep.pedal_s) if rep.pedal_s else None,
        "varignon": _points_json(rep.varignon),
        "isoptic_quantity": _num(rep.isoptic_quantity) if rep.isoptic_quantity is not None else None,
        "residuals": {k: _num(v) for k, v in sorted(rep.residuals.items())},
    }
    _dump(doc, args.out)
    return EXIT_OK


def cmd_iterate(args) -> int:
    if args.generations < 0:
        print("error: --generations must not be negative", file=sys.stderr)
        return EXIT_USAGE
    q = load_quad_file(args.file, args.tol)
    st = QuadState(q)
    generations = [q]
    ratios = []
    degeneration = None
    for _ in range(args.generations):
        try:
            st = st.next if args.direction == "forward" else st.prev
        except CyclicDegeneration as exc:
            degeneration = {"reason": "cyclic", "point": _point_json(exc.point)}
            break
        except GeometryError as exc:
            degeneration = {"reason": type(exc).__name__, "message": str(exc)}
            break
        ratio = generations[-1].area_ratio(st.q)
        ratios.append(None if ratio is None else _num(ratio))
        generations.append(st.q)
    doc = {
        "tool_version": __version__,
        "tolerance": _num(args.tol),
        "direction": args.direction,
        "input": {"vertices": _points_json(q.vertices())},
        "generations": [_points_json(g.vertices()) for g in generations],
        "area_ratios": ratios,
        "degeneration": degeneration,
    }
    _dump(doc, args.out)
    return EXIT_OK if degeneration is None else EXIT_DEGENERATE


def cmd_verify(args) -> int:
    if args.cases <= 0:
        print("error: --cases must be positive", file=sys.stderr)
        return EXIT_USAGE
    spec = CaseSpec(seed=args.seed, shape_class=getattr(args, "shape_class"))
    report = run_suite(spec, args.cases, args.tol)
    doc = report.to_dict()
    doc["tool_version"] = __version__
    _dump(doc, args.out)
    return EXIT_OK if report.failures == 0 else EXIT_FAILURES


def cmd_render(args) -> int:
    q = load_quad_file(args.file, args.tol)
    layers = tuple(name.strip() for name in args.layers.split(",") if name.strip())
    svg = render_svg(q, layers)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    if args.mode == "fourth-vertex":
        for flag in ("a", "b", "c", "w"):
            if getattr(args, flag) is None:
                print(f"error: --{flag} is required for mode fourth-vertex",
                      file=sys.stderr)
                return EXIT_USAGE
        a, b, c = _parse_xy(args.a), _parse_xy(args.b), _parse_xy(args.c)
        w = _parse_xy(args.w)
        d = reconstruct_fourth_vertex(a, b, c, w, args.tol)
        q = Quadrilateral(a, b, c, d, args.tol)
        w2 = isoptic_point(q)
        residual = abs(w2 - w) / q.scale() if is_finite(w2) else math.inf
        doc = {"mode": args.mode, "point": _xy(d),
               "residual": _num(residual)}
        _dump(doc, args.out)
        return EXIT_OK
    # pedal-w and simson both need a center point and four feet
    anchor_flag = "w" if args.mode == "pedal-w" else "s"
    anchor_text = getattr(args, anchor_flag)
    if anchor_text is None or args.feet is None:
        print(f"error: --{anchor_flag} and --feet are required for mode {args.mode}",
              file=sys.stderr)
        return EXIT_USAGE
    anchor = _parse_xy(anchor_text)
    feet = [_parse_xy(t) for t in args.feet]
    if args.mode == "pedal-w":
        q = reconstruct_from_pedal_w(anchor, feet, args.tol)
        probe = isoptic_point(q)
    else:
        q = reconstruct_from_simson(anchor, feet, args.tol)
        probe = simson_point(q)
    residual = abs(probe - anchor) / q.scale() if is_finite(probe) else math.inf
    doc = {"mode": args.mode, "vertices": _points_json(q.vertices()),
           "residual": _num(residual)}
    _dump(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoptic",
        description="Analyze the perpendicular-bisector iteration, isoptic "
                    "point and Simson line of a quadrilateral.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one quadrilateral")
    p.add_argument("file")
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("iterate", help="run the generation map repeatedly")
    p.add_argument("file")
    p.add_argument("--generations", type=int, required=True)
    p.add_argument("--direction", choices=("forward", "backward"),
                   default="forward")
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_iterate)

    p = sub.add_parser("verify", help="run the randomized invariant suite")
    p.add_argument("--cases", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--class", dest="shape_class", required=True,
                   choices=SHAPE_CLASSES)
    p.add_argument("--tol", type=_tol, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("render", help="draw the figure as SVG")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.add_argument("--layers", default="quad,triads,w")
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("reconstruct", help="invert one of the constructions")
    # read "-1,0" as a value, as Python 3.13's argparse does: its default
    # matcher takes only a bare negative number, and "-1,0" for an option
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.add_argument("--mode", required=True,
                   choices=("fourth-vertex", "pedal-w", "simson"))
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--c")
    p.add_argument("--w")
    p.add_argument("--s")
    p.add_argument("--feet", nargs=4)
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code 1
        if exc.code not in (0, None):
            return EXIT_USAGE
        return 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GeometryError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
