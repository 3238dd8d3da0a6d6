"""Plane-geometry toolkit for the perpendicular-bisector iteration on
quadrilaterals, the isoptic point W and the Simson line."""

from .errors import GeometryError
from .kernel import (
    DEFAULT_TOL,
    AtInfinity,
    Circle,
    GenCircle,
    Line,
    Point,
    Triangle,
    circle_of_similitude,
    circumcircle,
    intersect,
    invert_circle,
    invert_point,
    is_finite,
    isogonal_conjugate_triangle,
)
from .quad import (
    AnalysisReport,
    Quadrilateral,
    ShapeClass,
    TriadSystem,
    analyze,
    classify,
    interior_angles,
    isogonal_conjugate_quad,
    isoptic_point,
    isoptic_point_via_inv_iso,
    isoptic_point_via_inversion,
    isoptic_point_via_limit,
    isoptic_quantity,
    next_generation,
    noncyclicity_measure,
    pedal_quadrilateral,
    prev_generation,
    reconstruct_fourth_vertex,
    reconstruct_from_pedal_w,
    reconstruct_from_simson,
    similarity_ratio,
    simson_line,
    simson_point,
    triad_circles,
    varignon,
)

__version__ = "0.1.0"
