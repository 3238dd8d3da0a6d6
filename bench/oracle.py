"""60-digit reference values of r, W and S for one quadrilateral.

The oracle works on the exact binary values of the input coordinates in
mpmath complex arithmetic at ``mp.dps = 60`` and shares no code with
``isoptic``:

- r is the cotangent formula (cot a + cot g)(cot b + cot d) / 4 over the
  interior angles;
- W comes from the homothety between the first and third generations,
  Q3 = W + r (Q1 - W), so W = (A3 - r A1) / (1 - r);
- S is the Miquel point of the complete quadrilateral, the center of the
  spiral similarity taking A to D and B to C: S = (AC - BD) / (A + C - B - D).

W is at infinity when r = 1 (orthocentric systems) and S when
A + C = B + D (parallelograms).  The limit direction of either point depends
on the path of approach, so the oracle reports the direction that ``isoptic``
uses by convention: the line of similitude of the triad circles (D A B) and
(A B C) for W, and the side direction D - A for S.  The tests in
``bench/tests/test_oracle.py`` check the defining properties at 60 digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

DPS = 60
# |1 - r| and |A + C - B - D| / diameter below these put W or S at infinity;
# both are quadratic or linear in the distance from the locus, and every
# float input that is meant to lie on it is within rounding of it.
_W_INF = mpmath.mpf("1e-20")
_S_INF = mpmath.mpf("1e-12")
_COLLAPSED = mpmath.mpf("1e-50")


@dataclass(frozen=True)
class Ref:
    """Reference point: ``xy`` when finite, else a unit ``direction``."""

    finite: bool
    xy: tuple  # (mpf, mpf) point or unit direction


@dataclass(frozen=True)
class Oracle:
    r: object  # mpf
    w: Ref
    s: Ref
    diameter: object  # mpf


def _mpc(p) -> mpmath.mpc:
    return mpmath.mpc(mpmath.mpf(p[0]), mpmath.mpf(p[1]))


def _cross(u, v):
    return u.real * v.imag - u.imag * v.real


def _dot(u, v):
    return u.real * v.real + u.imag * v.imag


def circumcenter(a, b, c):
    ba, ca = b - a, c - a
    den = 2 * _cross(ba, ca)
    nb, nc = _dot(ba, ba), _dot(ca, ca)
    return a + mpmath.mpc((ca.imag * nb - ba.imag * nc) / den,
                          (ba.real * nc - ca.real * nb) / den)


def next_generation(q):
    a, b, c, d = q
    return [circumcenter(d, a, b), circumcenter(a, b, c),
            circumcenter(b, c, d), circumcenter(c, d, a)]


def ratio(q):
    orient = 1 if sum(_cross(q[i], q[(i + 1) % 4]) for i in range(4)) > 0 else -1
    cots = []
    for i in range(4):
        nxt, prv = q[(i + 1) % 4] - q[i], q[i - 1] - q[i]
        cots.append(_dot(nxt, prv) / (orient * _cross(nxt, prv)))
    return (cots[0] + cots[2]) * (cots[1] + cots[3]) / 4


def diameter(q):
    return max(abs(q[i] - q[j]) for i in range(4) for j in range(i + 1, 4))


def unit(z) -> tuple:
    z = z / abs(z)
    # same canonical sign as isoptic's AtInfinity.along
    if z.real < 0 or (z.real == 0 and z.imag < 0):
        z = -z
    return (z.real, z.imag)


def similitude_direction(q) -> tuple:
    """Direction of the circle of similitude of (D A B) and (A B C) when it
    is a line, i.e. when the two circles are congruent."""
    a, b, c, d = q
    o1, o2 = circumcenter(d, a, b), circumcenter(a, b, c)
    return unit((o2 - o1) * 1j)


def evaluate(vertices) -> Oracle:
    """Reference r, W and S for four (x, y) float pairs A, B, C, D."""
    with mpmath.workdps(DPS):
        q = [_mpc(v) for v in vertices]
        a, b, c, d = q
        diam = diameter(q)
        r = ratio(q)
        if abs(1 - r) < _W_INF:
            w = Ref(False, similitude_direction(q))
        else:
            q2 = next_generation(q)
            if diameter(q2) < _COLLAPSED * diam:
                wz = q2[0]  # exactly cyclic: the generation collapses onto W
            else:
                wz = (next_generation(q2)[0] - r * a) / (1 - r)
            w = Ref(True, (wz.real, wz.imag))
        den = a + c - b - d
        if abs(den) < _S_INF * diam:
            s = Ref(False, unit(d - a))
        else:
            sz = (a * c - b * d) / den
            s = Ref(True, (sz.real, sz.imag))
        return Oracle(r=r, w=w, s=s, diameter=diam)
