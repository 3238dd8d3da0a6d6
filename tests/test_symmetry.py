"""Exact symmetries.  Multiplying every coordinate by a power of two is exact
on floats, so a scaled quadrilateral must give the same r and the same
invariant residuals bit for bit, and W and S scaled back must be those of
the unscaled case, on every shape class.  A construction that squares a
length outside its frame, or takes a fixed length in absolute units, fails
here at some exponent."""

import pytest

from isoptic.errors import GeometryError
from isoptic.kernel import AtInfinity, Point
from isoptic.quad import QuadState, Quadrilateral
from isoptic.verify import INVARIANTS, SHAPE_CLASSES, CaseSpec, random_quadrilateral

EXPONENTS = (-600, -60, 7, 60, 600)


def _back(p, k):
    """p scaled by 2^-k; a point at infinity keeps its direction."""
    return p if isinstance(p, AtInfinity) else Point(p * 2.0 ** -k)


def _outcomes(st, k):
    """The repr (or the GeometryError's name) of r, of W and S scaled back
    by 2^-k, and of every INVARIANTS entry, whether or not the class runs it."""
    parts = {"r": lambda: st.r, "w": lambda: _back(st.w, k), "s": lambda: _back(st.s, k)}
    parts.update({name: lambda fn=fn: fn(st) for name, (fn, _) in INVARIANTS.items()})
    out = {}
    for name, part in parts.items():
        try:
            out[name] = repr(part())
        except GeometryError as exc:
            out[name] = type(exc).__name__
    return out


@pytest.mark.parametrize("shape", SHAPE_CLASSES)
def test_power_of_two_scaling_changes_no_bit(shape):
    for i in range(20):
        q = random_quadrilateral(CaseSpec(5, shape), i)
        ref = _outcomes(QuadState(q), 0)
        for k in EXPONENTS:
            got = _outcomes(QuadState(Quadrilateral(*(Point(v * 2.0 ** k)
                                                      for v in q.vertices()))), k)
            assert got == ref, (i, k, {name: (ref[name], got[name]) for name in ref
                                       if got[name] != ref[name]})
