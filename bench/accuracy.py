"""Accuracy of r, W and S against the 60-digit oracle, and the frame pass.

Program outputs arrive as plain tuples so that this module shares nothing
with ``isoptic``: a point is ``("point", x, y)``, a point at infinity
``("at-infinity", dx, dy)`` and anything else ``("undefined",)``; r is a
float or None.
"""

from __future__ import annotations

import math
import random
import sys

import mpmath

import oracle

EPS = sys.float_info.epsilon
# the default tol of ``isoptic analyze``, applied to errors relative to the
# input diameter (W, S) or to max(1, |r|)
TOL = 1e-9
# accuracy metrics average over this share of the worst outputs: a tail
# figure that one rare outlier in the input pool does not decide
TAIL_SHARE = 0.05


def point_error(out: tuple, ref: oracle.Ref, diameter) -> float:
    """Distance to the reference over the diameter; for two points at
    infinity, the distance between their unit directions (up to sign)."""
    if out[0] == "point" and ref.finite:
        return float(mpmath.hypot(out[1] - ref.xy[0], out[2] - ref.xy[1]) / diameter)
    if out[0] == "at-infinity" and not ref.finite:
        dx, dy = ref.xy
        return float(min(mpmath.hypot(out[1] - dx, out[2] - dy),
                         mpmath.hypot(out[1] + dx, out[2] + dy)))
    return math.inf


def ratio_error(r, ref_r) -> float:
    if r is None:
        return math.inf
    return float(abs(r - ref_r) / max(1, abs(ref_r)))


def errors(out: tuple, ref: oracle.Oracle) -> tuple[float, float, float]:
    """(W, S, r) errors of one ``(r, w, s)`` output."""
    r, w, s = out
    return (point_error(w, ref.w, ref.diameter), point_error(s, ref.s, ref.diameter),
            ratio_error(r, ref.r))


def misses(errs) -> bool:
    return max(errs) > TOL


def in_eps(err: float) -> float:
    """log10 of an error in units of machine epsilon, offset so that an
    exact result reads 0 and every reading is positive."""
    return math.log10(1.0 + err / EPS)


def tail_in_eps(errors) -> float:
    """Mean of ``in_eps`` over the worst TAIL_SHARE of the finite errors."""
    logs = sorted(in_eps(e) for e in errors if math.isfinite(e))
    worst = logs[-max(1, int(len(logs) * TAIL_SHARE)):]
    return sum(worst) / len(worst)


def largest(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return max(finite) if finite else math.inf


# ---------------------------------------------------------------------------
# frame robustness


def _rotate(ref: oracle.Ref, rot, shift) -> oracle.Ref:
    z = mpmath.mpc(*ref.xy)
    if ref.finite:
        z = rot * z + shift
        return oracle.Ref(True, (z.real, z.imag))
    return oracle.Ref(False, oracle.unit(z * rot / abs(rot)))


def frame_copy(vertices, ref: oracle.Oracle, rng: random.Random):
    """A similar copy of the input and its reference values.

    The similarity has a uniform rotation, a scale log-uniform in
    [1e-9, 1e9] and an offset log-uniform in [1e-3, 1e6] copy diameters, in
    a uniform direction.  Coordinates are the exact image rounded once to
    float.  Returns (vertices, reference, offset in diameters).
    """
    theta = rng.uniform(0.0, 2.0 * math.pi)
    scale = 10.0 ** rng.uniform(-9.0, 9.0)
    offset = 10.0 ** rng.uniform(-3.0, 6.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    with mpmath.workdps(oracle.DPS):
        rot = mpmath.mpf(scale) * mpmath.expj(theta)
        shift = mpmath.mpf(offset) * scale * ref.diameter * mpmath.expj(phi)
        copy = []
        for x, y in vertices:
            z = rot * mpmath.mpc(x, y) + shift
            copy.append((float(z.real), float(z.imag)))
        moved = oracle.Oracle(r=ref.r, w=_rotate(ref.w, rot, shift),
                              s=_rotate(ref.s, rot, shift),
                              diameter=ref.diameter * scale)
    return copy, moved, offset


def frame_pass(inputs, refs, run, seed: int) -> tuple[float, float]:
    """Run ``run(vertices) -> (r, w, s)`` on one similar copy of each input.

    Returns the share of copies that raise or miss the oracle, and the
    worst W error among copies that return, in units of
    eps * (1 + offset / diameter), as ``in_eps`` of that ratio.
    """
    rng = random.Random(seed)
    failed = 0
    worst = 0.0
    for vertices, ref in zip(inputs, refs):
        copy, moved, offset = frame_copy(vertices, ref, rng)
        try:
            out = run(copy)
        except Exception:  # any exception is a failed copy, GeometryError or not
            failed += 1
            continue
        errs = errors(out, moved)
        if misses(errs):
            failed += 1
        if math.isfinite(errs[0]):
            worst = max(worst, errs[0] / (1.0 + offset))
    return failed / len(inputs), math.log10(1.0 + worst / EPS)
