"""Exact symmetries.  Multiplying every coordinate by a power of two, turning
by a quarter turn and taking the conjugate are exact on floats, so a mapped
quadrilateral must give the same r and the same residuals bit for bit, and
W and S mapped back must be those of the original, on every shape class.
A construction that squares a length outside its frame, or takes a fixed
length in absolute units, fails here at some exponent."""

import pytest

from isoptic.errors import GeometryError
from isoptic.kernel import AtInfinity, Point
from isoptic.quad import Quadrilateral, QuadState
from isoptic.report import analyze
from isoptic.routes import isogonal_conjugate_quad
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


# z -> 2^k i^m z, and its conjugate: a quarter turn swaps the parts and
# negates one, and the conjugate negates the imaginary part, so each map and
# its inverse are exact on floats
MAPS = [(k, m, conj) for k in EXPONENTS for m in range(4) for conj in (False, True)]
# residuals that may differ under a quarter turn, each with its reason and
# its bound: the Simson axis is half the phase of the feet's scatter sum,
# which a quarter turn negates, so cos and sin round at an angle pi / 2 away
QUARTER_TURN_ROUNDING = {"pedal_s_collinear": 1e-15}


def _turn(z, m):
    """z times i^m, exactly: each quarter turn swaps the parts and negates one."""
    for _ in range(m % 4):
        z = complex(-z.imag, z.real)
    return z


def _map(z, k, m, conj):
    z = _turn(z * 2.0 ** k, m)
    return z.conjugate() if conj else z


def _unsigned(z):
    """z with each zero part read as 0.0: the sign of a zero follows the
    orientation, which a turn or the conjugate may reverse (r of a cyclic
    input reads -0.0 for 0.0, and a turn maps a 0.0 part to -0.0); adding
    0.0 changes no other float."""
    return complex(z.real + 0.0, z.imag + 0.0)


def _unmap(p, k, m, conj):
    """The repr of a point mapped back, or of a point at infinity's
    direction mapped back in AtInfinity's canonical sign."""
    if isinstance(p, AtInfinity):
        d = complex(p.dx, p.dy)
        d = _unsigned(_turn(d.conjugate() if conj else d, -m))
        return repr(_unsigned(-d if d.real < 0 or (d.real == 0 and d.imag < 0) else d))
    return repr(Point(_unsigned(_turn(p.conjugate() if conj else p, -m) * 2.0 ** -k)))


@pytest.mark.parametrize("shape", SHAPE_CLASSES)
def test_turns_reflections_and_scalings_change_no_bit_of_analyze(shape):
    """r, W and S mapped back and every residual analyze reports, under each
    map of MAPS; the residuals read W's shared frame of offsets."""
    for i in range(12):
        q = random_quadrilateral(CaseSpec(5, shape), i)
        ref = analyze(q)
        for k, m, conj in MAPS:
            rep = analyze(Quadrilateral(*(Point(_map(v, k, m, conj)) for v in q.vertices())))
            assert (repr(rep.r + 0.0), _unmap(rep.w, k, m, conj), _unmap(rep.s, k, m, conj)) == (
                repr(ref.r + 0.0), _unmap(ref.w, 0, 0, False), _unmap(ref.s, 0, 0, False)), (
                i, k, m, conj)
            assert rep.residuals.keys() == ref.residuals.keys(), (i, k, m, conj)
            for name, value in rep.residuals.items():
                bound = QUARTER_TURN_ROUNDING.get(name) if m % 2 else None
                if bound is None:
                    assert repr(value) == repr(ref.residuals[name]), (i, k, m, conj, name)
                else:
                    assert abs(value - ref.residuals[name]) <= bound, (i, k, m, conj, name)


def _w_outcomes(st, k, m, conj):
    """The repr (or the GeometryError's name) of each check that reads W's
    frame and of the isogonal conjugate at W and at S, mapped back."""
    parts = {name: lambda fn=INVARIANTS[name][0]: repr(fn(st))
             for name in ("spiral_transport", "cross_generation_cs", "quadrangle_duality")}
    parts.update({f"conjugate_{name}": lambda p=p: [_unmap(v, k, m, conj)
                                                    for v in isogonal_conjugate_quad(st, p)]
                  for name, p in (("w", st.w), ("s", st.s))})
    out = {}
    for name, part in parts.items():
        try:
            out[name] = part()
        except GeometryError as exc:
            out[name] = type(exc).__name__
    return out


@pytest.mark.parametrize("shape", SHAPE_CLASSES)
def test_maps_change_no_bit_of_the_w_checks_or_the_conjugate(shape):
    """The spiral, cross-generation and duality checks and the conjugate at
    W and at S, under each map of MAPS: all read a frame of offsets."""
    for i in range(6):
        q = random_quadrilateral(CaseSpec(5, shape), i)
        ref = _w_outcomes(QuadState(q), 0, 0, False)
        for k, m, conj in MAPS:
            st = QuadState(Quadrilateral(*(Point(_map(v, k, m, conj)) for v in q.vertices())))
            got = _w_outcomes(st, k, m, conj)
            assert got == ref, (i, k, m, conj, {name: (ref[name], got[name]) for name in ref
                                                if got[name] != ref[name]})
