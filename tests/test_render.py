import xml.dom.minidom

import pytest

from isoptic.errors import CollinearInput
from isoptic.curves import orthocenter
from isoptic.kernel import Point
from isoptic.quad import Quadrilateral
from isoptic.render import LAYERS, _fmt, render_svg

GENERIC = Quadrilateral(Point(0, 0), Point(4, 0), Point(5, 3), Point(1, 4))


def test_valid_xml_all_layers():
    svg = render_svg(GENERIC, LAYERS)
    xml.dom.minidom.parseString(svg)


def test_a_tol_other_than_the_quadrilaterals_validates_it_there():
    # (2, 1e-4) is nearly on line AB: valid at DEFAULT_TOL and flat at 1e-3,
    # where render_svg built a state and drew it with no check
    flat = Quadrilateral(Point(0, 0), Point(1, 0), Point(2, 1e-4), Point(0, 1))
    with pytest.raises(CollinearInput):
        render_svg(flat, ("quad",), tol=1e-3)
    assert render_svg(flat, LAYERS, tol=flat.tol) == render_svg(flat, LAYERS)
    assert render_svg(flat, LAYERS, tol=1e-12) == render_svg(
        Quadrilateral(*flat.vertices(), tol=1e-12), LAYERS)


def test_byte_determinism():
    a = render_svg(GENERIC, ("quad", "triads", "w"))
    b = render_svg(GENERIC, ("quad", "triads", "w"))
    assert a == b


def test_layer_order_does_not_matter():
    a = render_svg(GENERIC, ("quad", "w", "triads"))
    b = render_svg(GENERIC, ("triads", "quad", "w"))
    assert a == b


def test_triads_layer_has_four_circles_and_w_marker():
    svg = render_svg(GENERIC, ("quad", "triads", "w"))
    doc = xml.dom.minidom.parseString(svg)
    circles = doc.getElementsByTagName("circle")
    strokes = [c for c in circles if c.getAttribute("fill") == "none"]
    markers = [c for c in circles if c.getAttribute("class") == "marker"
               and c.getAttribute("fill") == "#d62828"]
    assert len(strokes) == 4
    assert len(markers) == 1


def test_unknown_layer_rejected():
    with pytest.raises(ValueError):
        render_svg(GENERIC, ("quad", "bogus"))


def test_simson_layer_on_noncyclic_quad():
    svg = render_svg(GENERIC, ("simson",))
    doc = xml.dom.minidom.parseString(svg)
    assert len(doc.getElementsByTagName("line")) == 1


def test_degenerate_layers_are_skipped():
    a, b, c = Point(0, 0), Point(4, 0), Point(1, 3)
    q = Quadrilateral(a, b, c, orthocenter(a, b, c))
    # W at infinity: the w layer draws nothing but output stays valid
    svg = render_svg(q, ("quad", "w"))
    xml.dom.minidom.parseString(svg)
    assert "#d62828" not in svg


def test_viewbox_covers_quad():
    svg = render_svg(GENERIC, ("quad",))
    vb = svg.split('viewBox="')[1].split('"')[0]
    x0, y0, w, h = (float(t) for t in vb.split())
    for v in GENERIC.vertices():
        assert x0 <= v.x <= x0 + w
        assert y0 <= v.y <= y0 + h


def test_rounded_zero_has_no_sign():
    assert [_fmt(x) for x in (-0.0, -1e-9, -4.9e-7, 0.0)] == ["0.000000"] * 4
    assert _fmt(-5.1e-7) == "-0.000001"
