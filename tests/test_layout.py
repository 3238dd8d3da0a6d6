"""Every public function and class of every module is used by the package
itself, so code that only its own unit tests call does not accumulate; no
module imports a name it never reads, nor another module's private name."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import isoptic

PACKAGE = Path(isoptic.__file__).parent

# public names kept although no other module of the package calls them
UNCALLED_BY_DESIGN = {
    # the paper's final theorem: conjugating W gives a parallelogram and
    # conjugating S sends every vertex to infinity
    "isogonal_conjugate_quad",
    # the benchmark's tracer wraps these three by name; they stay, on the
    # shared Circle, Line and Point types, until it moves to the functions
    # the package calls (ROADMAP item 1).  isogonal_conjugate_triangle checks
    # the triangle and the point and meets the mirrored cevians
    # (meet_of_cevians), the core that the inverse-isogonal W route reaches
    # through routes._conjugates_in_triads
    "isogonal_conjugate_triangle",
    "intersect",
    "invert_circle",
}


def _public_definitions(tree):
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_public_definitions_are_used():
    # __init__ imports every export, so it counts as no use
    trees = [ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    used = set().union(*map(_referenced_names, trees))
    defined = set().union(*map(_public_definitions, trees))
    assert UNCALLED_BY_DESIGN <= defined
    unused = sorted(defined - used - UNCALLED_BY_DESIGN)
    assert unused == [], f"defined but never used in {PACKAGE.name}: {unused}"


# public functions that only verify calls, by module, each with its reason
VERIFY_ONLY = {
    "quad": {
        # W of the reorderings ACBD and ACDB shares isoptic_point's private
        # closed form, _isoptic_point, which no other module may import
        "reordered_isoptic_points",
    },
    "report": set(),
    "reconstruct": set(),
}
# the lazy module of the second constructions that only the verify suite runs
VERIFY_SIDE = "routes"


def _exported(init_tree):
    """The names the package exports: those its __init__ imports, and those its
    lazy_attributes table resolves on the lazy modules."""
    names = {alias.name for node in init_tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    return names | {node.value for call in ast.walk(init_tree)
                    if isinstance(call, ast.Call) and getattr(call.func, "id", None)
                    == "lazy_attributes" for node in ast.walk(call.args[1])
                    if isinstance(node, ast.Constant)}


def _functions(tree):
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def test_quad_holds_no_verify_only_code():
    # quad holds the paper's constructions, report the residuals analyze
    # reports and reconstruct the inversions of the constructions: each holds
    # only what a module that is not verify or routes calls, or the package
    # exports.  A check that only the verify suite and the tests call lives in
    # verify, and a second construction that only it runs in routes
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    exported = _exported(trees["__init__"])
    used = set().union(*(_referenced_names(tree) for name, tree in trees.items()
                         if name not in ("__init__", "verify", VERIFY_SIDE)))
    for module, listed in VERIFY_ONLY.items():
        functions = _functions(trees[module])
        assert listed <= functions
        assert sorted(functions - used - exported - listed) == [], module
    # and what routes holds, verify runs or the package exports
    assert sorted(_functions(trees[VERIFY_SIDE]) - _referenced_names(trees["verify"])
                  - exported) == []


def test_one_lazy_module_helper():
    # one helper makes a lazy module (LazyLoader) and one reads a name on it
    # (lazy_attributes), both in the package's __init__, which registers every
    # lazy module; cli binds them from the package, and kernel and quad resolve
    # the names the benchmark reads on them through lazy_attributes
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    loaders = sorted(name for name, tree in trees.items()
                     if "LazyLoader" in _referenced_names(tree))
    assert loaders == ["__init__"]
    for name in ("kernel", "quad", "__init__"):
        getattr_assigns = [node for node in trees[name].body if isinstance(node, ast.Assign)
                           and any(getattr(t, "id", None) == "__getattr__" for t in node.targets)]
        assert [node.value.func.id for node in getattr_assigns] == ["lazy_attributes"], name
    lazy = {alias.name for node in trees["cli"].body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names}
    assert {"reconstruct", "render", "report", "verify"} <= lazy


def test_frexp_only_in_unit_near():
    # one helper picks the power-of-two frame; a second copy would drift (an
    # uncapped one overflowed on subnormal input)
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef) and path.name == "kernel.py"
                   and fn.name == "unit_near" for node in ast.walk(fn)}
        sites += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if "frexp" in (getattr(node, "attr", None), getattr(node, "id", None))
                  and id(node) not in allowed]
    assert sites == [], f"math.frexp outside kernel.unit_near: {sites}"


def test_offset_frame_only_in_offsets():
    # one helper frames the offsets from a point; every other site reads
    # QuadState.frame(p), st.w_frame or st.w_centers, so W's is built once
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef) and path.name == "quad.py"
                   and fn.name == "_offsets" for node in ast.walk(fn)}
        sites += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if "_offset_unit" in (getattr(node, "attr", None), getattr(node, "id", None))
                  and id(node) not in allowed]
    assert sites == [], f"Quadrilateral._offset_unit outside quad._offsets: {sites}"


def test_no_point_conversion_layer():
    # a Point is a complex number: a to_complex / from_complex pair would
    # bring back a second point format and a conversion at every call site
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "attr", None) or getattr(node, "id", None)
                    or getattr(node, "name", None))
            if name in ("to_complex", "from_complex"):
                sites.append(f"{path.name}:{node.lineno} {name}")
    assert sites == [], f"point conversions back in {PACKAGE.name}: {sites}"


def _raised_names(tree):
    """Names called, or raised bare, anywhere in the module."""
    names = set()
    for node in ast.walk(tree):
        target = node.func if isinstance(node, ast.Call) else (
            node.exc if isinstance(node, ast.Raise) else None)
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def test_every_geometry_error_is_raised():
    # an error class that no construction raises documents a failure the
    # package no longer has
    family, subclasses = {"GeometryError"}, set()
    for node in ast.parse((PACKAGE / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and family & {getattr(b, "id", None) for b in node.bases}:
            family.add(node.name)
            subclasses.add(node.name)
    raised = set().union(*(_raised_names(ast.parse(path.read_text()))
                           for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"))
    assert sorted(subclasses - raised) == []


def _unused_imports(path):
    """Names an import binds in the module at path and the module never
    reads; a name whose line carries ``# noqa: F401`` is kept on purpose."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items()
                  if name not in read)


def test_no_unused_imports():
    # the package's __init__ imports are its exports
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    modules += sorted(Path(__file__).parent.glob("*.py"))
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == [], f"imported but never read: {unused}"


def _private_imports(path):
    """Single-underscore names the module at path imports from another
    module of the package."""
    tree = ast.parse(path.read_text())
    return sorted(f"{path.name}:{node.lineno} {alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == PACKAGE.name)
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__"))


def test_no_private_names_cross_modules():
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in _private_imports(path)]
    assert found == [], f"private names imported from another module: {found}"


def test_traced_layer_functions_exist():
    # the benchmark's tracer wraps each name with getattr on its module
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets))
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not inspect.isfunction(getattr(importlib.import_module(f"isoptic.{layer}"),
                                                 name, None))]
    assert missing == [], f"traced but not a function of its module: {missing}"
    # and the workloads import their inputs' types and functions by name from the
    # module each was defined in, which may since have moved to a lazy module
    workloads = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    imported = [(node.module, alias.name) for node in ast.walk(ast.parse(workloads.read_text()))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("isoptic")
                for alias in node.names]
    assert ("isoptic.quad", "analyze") in imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == [], f"imported by the workloads but not found: {missing}"


def test_traced_verify_names_exist():
    # the tracer also swaps verify._draw for its draw counter and wraps the
    # entries of verify.INVARIANTS, each read by name: a pass that inlined or
    # renamed one would break --trace 1 with no other test failing
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    names = {node.attr for node in ast.walk(ast.parse(tracing.read_text()))
             if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "verify"}
    verify = importlib.import_module("isoptic.verify")
    assert {"_draw", "INVARIANTS"} <= names
    assert sorted(name for name in names if not hasattr(verify, name)) == []
    assert inspect.isfunction(verify._draw)


def test_no_slow_record_or_cache_paths():
    # vars(self).update gives a record a dict table of its own (about 2.5x
    # the inline fields), and functools.cached_property takes a lock on every
    # first read (before Python 3.12)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name == "cached_property":
                found.append(f"{path.name}:{node.lineno} cached_property")
            elif (name == "update" and isinstance(node.value, ast.Call)
                  and getattr(node.value.func, "id", None) == "vars"):
                found.append(f"{path.name}:{node.lineno} vars(...).update")
    assert found == [], f"slow paths back in {PACKAGE.name}: {found}"


def test_tol_has_one_home_per_quadrilateral():
    # a quadrilateral keeps the tol it was validated at, and every
    # construction on it reads that one: a tol taken besides it was silently
    # overridden or never checked, so the same call read one shape at q and
    # another at QuadState(q, tol).  Outside the kernel's primitives a tol is
    # taken only where a quadrilateral is built (Quadrilateral, the three
    # reconstructions, load_quad_file, and render_svg, whose tol other than
    # q's redraws q built at it) and by run_suite, whose residual gate it is
    # (and so SuiteReport, which reports it)
    fns = {}
    for module in ("quad", "report", "routes", "reconstruct", "render", "verify", "cli"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        nodes = [(None, node) for node in tree.body]
        nodes += [(node.name, item) for node in tree.body if isinstance(node, ast.ClassDef)
                  for item in node.body]
        fns.update({f"{cls}.{node.name}" if cls else node.name:
                    [a.arg for a in node.args.args + node.args.kwonlyargs]
                    for cls, node in nodes if isinstance(node, ast.FunctionDef)})
    public = [name for name in fns
              if not name.split(".")[-1].startswith("_") or name.endswith(".__init__")]
    takes_tol = sorted(name for name in public if "tol" in fns[name])
    assert takes_tol == ["Quadrilateral.__init__", "SuiteReport.__init__", "load_quad_file",
                         "reconstruct_fourth_vertex", "reconstruct_from_pedal_w",
                         "reconstruct_from_simson", "render_svg", "run_suite"]
    assert fns["QuadState.__init__"] == ["self", "q"]
    assert fns["analyze"] == ["q"]
    assert fns["state_of"] == ["q"]


# a -S interpreter imports isoptic.cli and then runs main on each argument in
# turn; after the import and after each command it prints, on stderr, the
# command's name and the modules of the package whose bodies have run (exec put
# __builtins__ in the namespace, read from each module's __dict__ past the lazy
# hook that any attribute read trips), then any module a cold start must not import
COLD_PROBE = """\
import sys
import isoptic.cli

def probe(step):
    names = sorted(name[len("isoptic."):] for name, mod in sys.modules.items()
                   if name.startswith("isoptic.")
                   and "__builtins__" in object.__getattribute__(mod, "__dict__"))
    names += [m for m in ("dataclasses", "inspect", "typing", "fractions", "argparse",
                          "gettext", "locale") if m in sys.modules]
    print(step, *names, file=sys.stderr)

probe("import")
for command in sys.argv[1:]:
    isoptic.cli.main(command.split())
    probe(command.split()[0])
"""


def _cold_probe(tmp_path, *commands):
    """stdout of COLD_PROBE run on commands, with {quad} and {svg} filled in, and its
    steps as lists of words."""
    quad = tmp_path / "quad.json"
    quad.write_text('{"vertices": [[0, 0], [4, 0], [5, 3], [1, 4]]}')
    argv = [c.format(quad=quad, svg=tmp_path / "figure.svg") for c in commands]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", COLD_PROBE, *argv], env=env,
                          check=True, capture_output=True, text=True)
    return proc.stdout, [line.split() for line in proc.stderr.splitlines()]


# what every cold start runs: the argv table, the types and the core constructions
COLD_CORE = ["cli", "errors", "kernel", "quad"]
# command -> the modules besides COLD_CORE whose bodies a cold start of it runs
COLD_MODULES = {
    "--version": [],
    "analyze {quad}": ["report"],
    "iterate {quad} --generations 2": [],
    "reconstruct --mode fourth-vertex --a 0,0 --b 4,0 --c 5,3 --w 2,2": ["curves", "reconstruct"],
    "render {quad} --out {svg}": ["render"],
    "render {quad} --out {svg} --layers quad,cs": ["curves", "render"],
    "verify --cases 1 --seed 1 --class cyclic": ["curves", "report", "routes", "verify"],
}


def _assert_cold_modules(tmp_path, commands):
    for command in commands:
        _, steps = _cold_probe(tmp_path, command)
        assert steps == [["import", *COLD_CORE],
                         [command.split()[0], *sorted(COLD_CORE + COLD_MODULES[command])]], command


def test_cold_start_imports(tmp_path):
    # dataclasses and the inspect it imports slowed every cold CLI start, and
    # the package needs fractions nowhere; argparse, with the gettext and
    # locale it loads, cost about 6 ms of every cold op.  The probe also runs
    # main, so that an import inside it is caught too.
    # import isoptic puts every lazy module in sys.modules, where the
    # benchmark's traced CLI child finds it, and a cold command runs the body
    # of only those it calls, which saves compiling the others
    out, steps = _cold_probe(tmp_path, "--version")
    assert out == "0.1.0\n"
    assert steps == [["import", *COLD_CORE], ["--version", *COLD_CORE]]
    _assert_cold_modules(tmp_path, [c for c in COLD_MODULES if c.split()[0] in (
        "analyze", "iterate", "reconstruct")])


def test_a_cold_command_runs_only_its_lazy_module(tmp_path):
    _assert_cold_modules(tmp_path, [c for c in COLD_MODULES if c.split()[0] in (
        "render", "verify")])
