"""An angle-based reference for cyclicity, independent of the triad
circles that the package's own cyclic test reads."""

import math

from isoptic.quad import Quadrilateral
from isoptic.routes import interior_angles


def noncyclicity_measure(q: Quadrilateral) -> float:
    """|alpha + gamma - pi|; zero exactly for cyclic quadrilaterals."""
    a, _, g, _ = interior_angles(q)
    return abs(a + g - math.pi)
