"""Command-line front end.

Subcommands: analyze, iterate, verify, render, reconstruct.
Exit codes: 0 success, 1 usage or parse error, 2 geometric degeneracy,
3 a verify run with an invariant failure or a case error.
Numbers print as json.dumps does, in the shortest repr that round-trips.
"""

from __future__ import annotations

import json
import math
import re
import sys
from itertools import islice
from types import SimpleNamespace

# the package registers these as lazy modules, whose bodies run on their first
# attribute read: a command runs only the ones it calls, and reads each function
# at call time, so that one swapped in after the load is the one called
from . import __version__, reconstruct, render, report, verify
from .errors import CyclicDegeneration, GeometryError
from .kernel import DEFAULT_TOL, AtInfinity, Point, is_finite
from .quad import SHAPE_CLASSES, QuadState, Quadrilateral, isoptic_point, simson_point

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


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    q = load_quad_file(args.file, args.tol)
    rep = report.analyze(q)
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
    spec = verify.CaseSpec(seed=args.seed, shape_class=getattr(args, "shape_class"))
    suite = verify.run_suite(spec, args.cases, args.tol)
    doc = suite.to_dict()
    doc["tool_version"] = __version__
    _dump(doc, args.out)
    return EXIT_OK if suite.failures == 0 else EXIT_FAILURES


def cmd_render(args) -> int:
    q = load_quad_file(args.file, args.tol)
    layers = tuple(name.strip() for name in args.layers.split(",") if name.strip())
    svg = render.render_svg(q, layers)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    if args.mode == "fourth-vertex":
        for flag in ("a", "b", "c", "w"):
            if getattr(args, flag) is None:
                raise ValueError(f"--{flag} is required for mode fourth-vertex")
        a, b, c = _parse_xy(args.a), _parse_xy(args.b), _parse_xy(args.c)
        w = _parse_xy(args.w)
        d = reconstruct.reconstruct_fourth_vertex(a, b, c, w, args.tol)
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
        raise ValueError(f"--{anchor_flag} and --feet are required for mode {args.mode}")
    anchor = _parse_xy(anchor_text)
    feet = [_parse_xy(t) for t in args.feet]
    if args.mode == "pedal-w":
        q = reconstruct.reconstruct_from_pedal_w(anchor, feet, args.tol)
        probe = isoptic_point(q)
    else:
        q = reconstruct.reconstruct_from_simson(anchor, feet, args.tol)
        probe = simson_point(q)
    residual = abs(probe - anchor) / q.scale() if is_finite(probe) else math.inf
    doc = {"mode": args.mode, "vertices": _points_json(q.vertices()),
           "residual": _num(residual)}
    _dump(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


class UsageError(ValueError):
    """A bad command line: main prints its one line and exits 1."""


_TOL = {"type": float, "default": DEFAULT_TOL,
        "check": (lambda tol: 0.0 < tol < math.inf, "finite and > 0")}
_HELP = {"nargs": 0, "about": "show this help and exit"}
# command: (help, function, positionals, options).  An option takes nargs values (else one),
# read by type, tested by check and choices, into dest (else its name); unset, it is default.
COMMANDS = {
    "analyze": ("full report for one quadrilateral", cmd_analyze, ["file"],
                {"--tol": _TOL, "--out": {}}),
    "iterate": ("run the generation map repeatedly", cmd_iterate, ["file"],
                {"--generations": {"type": int, "required": True,
                                   "check": (lambda n: n >= 0, ">= 0")},
                 "--direction": {"choices": ("forward", "backward"), "default": "forward"},
                 "--tol": _TOL, "--out": {}}),
    "verify": ("run the randomized invariant suite", cmd_verify, [],
               {"--cases": {"type": int, "required": True, "check": (lambda n: n > 0, "> 0")},
                "--seed": {"type": int, "required": True},
                "--class": {"dest": "shape_class", "required": True, "choices": SHAPE_CLASSES},
                "--tol": {**_TOL, "default": 1e-8}, "--out": {}}),
    "render": ("draw the figure as SVG", cmd_render, ["file"],
               {"--out": {"required": True}, "--layers": {"default": "quad,triads,w"},
                "--tol": _TOL}),
    "reconstruct": ("invert one of the constructions", cmd_reconstruct, [],
                    {"--mode": {"required": True,
                                "choices": ("fourth-vertex", "pedal-w", "simson")},
                     "--a": {}, "--b": {}, "--c": {}, "--w": {}, "--s": {},
                     "--feet": {"nargs": 4}, "--tol": _TOL, "--out": {}}),
}
_TOP = ("Analyze the perpendicular-bisector iteration, isoptic point and Simson line of a "
        "quadrilateral.", None, ["command"],
        {"--version": {"nargs": 0, "about": "show the version and exit"}})


def _help(command: str | None) -> str:
    """The help of command, or of the program where command is None."""
    about, _, positionals, options = COMMANDS[command] if command else _TOP
    usage = f"{command} [options] {' '.join(positionals)}" if command else "[options] COMMAND ..."
    rows = [(name, "") for name in positionals] if command else [
        (name, spec[0]) for name, spec in COMMANDS.items()]
    for flag, opt in {"-h, --help": _HELP, **options}.items():
        meta = "{%s}" % ",".join(opt["choices"]) if "choices" in opt else flag[2:].upper()
        note = "required" if opt.get("required") else f"default: {opt.get('default')}"
        rows.append((" ".join([flag] + [meta] * opt.get("nargs", 1)), opt.get("about", note)))
    return "\n".join([f"usage: isoptic {usage}".rstrip(), "", about, ""]
                     + [f"  {left:24}  {right}".rstrip() for left, right in rows])


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv against COMMANDS into a namespace whose fn runs the command, or prints
    the help or the version; a bad command line raises UsageError."""
    args, tokens, extras, plain = SimpleNamespace(command=None), iter(argv), [], False
    prog, level, pending = "isoptic", _TOP, list(_TOP[2])
    options = {"-h": _HELP, "--help": _HELP, **_TOP[3]}

    def fail(message):
        raise UsageError(f"{prog}: error: {message}")

    for token in tokens:
        name, eq, value = token.partition("=")
        found = [] if plain or token[:1] != "-" else [name] if name in options else [
            flag for flag in options if name[:2] == "--" and flag.startswith(name)]
        flag, opt = (found[0], options[found[0]]) if len(found) == 1 else (None, {})
        if token == "--" and not plain:
            plain = True  # every token after it is a positional
            continue
        if len(found) > 1:
            fail(f"ambiguous option: {token} could match {', '.join(found)}")
        if "about" in opt:  # -h, --help and --version
            text = _help(args.command) if opt is _HELP else __version__
            return SimpleNamespace(fn=lambda _: print(text) or EXIT_OK)
        if flag:
            count = opt.get("nargs", 1)
            texts = [value] if eq else list(islice(tokens, count))
            if len(texts) != count:
                fail(f"argument {flag}: expected "
                     + (f"{count} arguments" if count > 1 else "one argument"))
        elif pending and (plain or token[:1] != "-" or token == "-" or " " in token
                          or re.fullmatch(r"-\d+|-\d*\.\d+", token)):
            flag, texts = pending.pop(0), [token]
            opt = {"choices": COMMANDS} if level is _TOP else {"dest": flag}
        else:
            extras.append(token)  # a positional too many, or an option not taken here
            continue
        try:
            values = [opt.get("type", str)(text) for text in texts]
        except ValueError:  # only options of one value have a type
            fail(f"argument {flag}: invalid {opt['type'].__name__} value: {texts[0]!r}")
        if "check" in opt and not opt["check"][0](values[0]):
            fail(f"argument {flag}: must be {opt['check'][1]}, got {texts[0]!r}")
        if values[0] not in opt.get("choices", values):
            fail(f"argument {flag}: invalid choice: {texts[0]!r} (choose from "
                 f"{', '.join(map(repr, opt['choices']))})")
        if level is _TOP:  # the command's name: its own options and positionals follow
            prog, level = f"isoptic {token}", COMMANDS[token]
            options, pending = {"-h": _HELP, "--help": _HELP, **level[3]}, list(level[2])
            args = SimpleNamespace(command=token, fn=level[1], **{
                opt.get("dest", flag[2:]): opt.get("default") for flag, opt in level[3].items()})
        else:
            setattr(args, opt.get("dest", flag[2:]), values if "nargs" in opt else values[0])
    missing = pending + [flag for flag, opt in level[3].items() if opt.get("required")
                         and vars(args)[opt.get("dest", flag[2:])] is None]
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"isoptic: error: unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.fn(args)
    except (ValueError, OSError) as exc:  # a UsageError and a JSONDecodeError are ValueErrors
        print(exc if isinstance(exc, UsageError) else f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GeometryError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
