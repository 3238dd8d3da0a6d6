"""Deterministic SVG rendering of a quadrilateral and its derived objects.

Output is byte-stable: fixed palette, fixed element order, coordinates
formatted with repr-style shortest round-trip floats.
"""

from __future__ import annotations

from . import curves  # lazy: its body runs only when the cs layer is drawn
from .errors import GeometryError
from .kernel import Circle, Line, Point, is_finite
from .quad import QuadState, Quadrilateral, simson_line, varignon

_SIZE = 640  # width and height of the SVG viewport in pixels

_PALETTE = {
    "quad": "#1f3a5f",
    "triads": "#888888",
    "cs": "#2a9d8f",
    "w": "#d62828",
    "s": "#7b2cbf",
    "pedal-w": "#e07a1f",
    "pedal-s": "#b56576",
    "varignon": "#4c956c",
    "simson": "#577590",
    "generations": "#b0a29a",
}

LAYERS = tuple(_PALETTE)  # the layer names, in draw order


def _fmt(x: float) -> str:
    text = format(x, ".6f")
    return "0.000000" if text == "-0.000000" else text


def _stroke(color, width, dash) -> str:
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return f'stroke="{color}" stroke-width="{_fmt(width)}"{dash_attr}'


class _Canvas:
    def __init__(self):
        self.elements: list[str] = []
        self.points: list[Point] = []

    def polygon(self, pts, color, width=1.0, dash=None):
        self.points.extend(pts)
        d = " ".join(f"{_fmt(p.real)},{_fmt(p.imag)}" for p in pts)
        self.elements.append(f'<polygon points="{d}" fill="none" {_stroke(color, width, dash)}/>')

    def circle(self, center: Point, radius: float, color, width=1.0, dash=None):
        self.points.append(center)
        self.elements.append(
            f'<circle cx="{_fmt(center.real)}" cy="{_fmt(center.imag)}" '
            f'r="{_fmt(radius)}" fill="none" {_stroke(color, width, dash)}/>')

    def dot(self, p: Point, color, radius=3.0):
        self.points.append(p)
        self.elements.append(
            f'<circle cx="{_fmt(p.real)}" cy="{_fmt(p.imag)}" r="{_fmt(radius)}" '
            f'fill="{color}" stroke="none" vector-effect="non-scaling-stroke" '
            f'class="marker"/>')

    def segment(self, a: Point, b: Point, color, width=1.0, dash=None):
        self.points.extend((a, b))
        self.elements.append(
            f'<line x1="{_fmt(a.real)}" y1="{_fmt(a.imag)}" x2="{_fmt(b.real)}" '
            f'y2="{_fmt(b.imag)}" {_stroke(color, width, dash)}/>')


def _clip_curve(canvas: _Canvas, curve: Circle | Line, color, span: float,
                anchor: Point, width=1.0, dash=None):
    """Draw a circle, or a line as the segment of length 2*span about the
    foot of the perpendicular from anchor."""
    if curve.is_line:
        p, u = curve.p, curve.u
        f = p + u * ((anchor - p) * u.conjugate()).real
        canvas.segment(Point(f - u * span), Point(f + u * span), color, width, dash)
    else:
        canvas.circle(Point(curve.o), curve.r, color, width, dash)


def render_svg(q: Quadrilateral, layers=("quad", "triads", "w"),
               tol: float | None = None) -> str:
    """Return a complete SVG document showing the requested layers.

    Unknown layer names raise ValueError.  Layers whose construction hits a
    degeneracy are silently skipped (e.g. "w" for a quadrilateral whose
    isoptic point is at infinity).  A tol other than q's own redraws q built at it.
    """
    for name in layers:
        if name not in LAYERS:
            raise ValueError(f"unknown layer {name!r} (choose from {', '.join(LAYERS)})")
    if tol is not None and tol != q.tol:
        q = Quadrilateral(*q.vertices(), tol=tol)
    cv = _Canvas()
    st = QuadState(q)
    scale = st.scale
    base_w = scale / 320.0  # stroke width in model units
    centroid = q.centroid()

    # draw order is fixed by LAYERS, not by the caller's list order
    active = [n for n in LAYERS if n in layers]

    for name in active:
        color = _PALETTE[name]
        try:
            if name == "quad":
                cv.polygon(q.vertices(), color, 2.0 * base_w)
                for v in q.vertices():
                    cv.dot(v, color, 4.0 * base_w)
            elif name == "triads":
                for c in st.triads.circles:
                    _clip_curve(cv, c, color, 2 * scale, centroid, base_w, None)
            elif name == "cs":
                circles = st.triads.circles
                for i in range(4):
                    j = (i + 1) % 4
                    cs = curves.circle_of_similitude(circles[i], circles[j], st.tol)
                    _clip_curve(cv, cs, color, 2 * scale, centroid,
                                base_w, "4 3")
            elif name == "w":
                if is_finite(st.w):
                    cv.dot(st.w, color, 5.0 * base_w)
            elif name == "s":
                if is_finite(st.s):
                    cv.dot(st.s, color, 5.0 * base_w)
            elif name == "pedal-w":
                if st.pedal_w is not None:
                    cv.polygon(st.pedal_w, color, base_w, "6 3")
            elif name == "pedal-s":
                if st.pedal_s is not None:
                    cv.polygon(st.pedal_s, color, base_w, "6 3")
            elif name == "varignon":
                cv.polygon(varignon(q), color, base_w, "2 2")
            elif name == "simson":
                if is_finite(st.s):
                    _clip_curve(cv, simson_line(st), color, 2 * scale, st.s, base_w, None)
            elif name == "generations":
                cur = st
                for _ in range(3):
                    cur = cur.next
                    cv.polygon(cur.q.vertices(), color, base_w)
        except GeometryError:
            continue

    pts = cv.points or q.vertices()  # nothing drawn: frame the quadrilateral
    xs = [p.real for p in pts]
    ys = [p.imag for p in pts]
    # circles can stick out beyond their tracked centers; include radii
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny, scale)
    pad = 0.05 * span
    if "triads" in layers or "cs" in layers:
        pad += 2.0 * scale  # room for big triad circles around their centers
    vb = (minx - pad, miny - pad, (maxx - minx) + 2 * pad, (maxy - miny) + 2 * pad)

    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="{_fmt(vb[0])} {_fmt(vb[1])} '
        f'{_fmt(vb[2])} {_fmt(vb[3])}">\n'
        # flip y so the figure appears in the usual orientation
        f'<g transform="translate(0 {_fmt(2 * vb[1] + vb[3])}) scale(1 -1)">\n'
    )
    body = "\n".join(cv.elements)
    return header + body + "\n</g>\n</svg>\n"
