"""Every public function and class of the kernel and quad modules is used by
the package itself, so code that only its own unit tests call does not
accumulate; no module imports a name it never reads, nor another module's
private name."""

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
    # the tests use it as an angle-based reference for cyclicity
    "noncyclicity_measure",
    # the paper's final theorem: conjugating W gives a parallelogram and
    # conjugating S sends every vertex to infinity
    "isogonal_conjugate_quad",
    # the benchmark's tracer wraps these three by name; they stay, on the
    # shared Circle, Line and Point types, until it moves to the functions
    # the package calls (ROADMAP item 5).  isogonal_conjugate_triangle is the
    # Point form of kernel.isogonal_conjugate, whose complex core
    # prev_generation and the inverse-isogonal W route call
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


def test_kernel_and_quad_exports_are_used():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    used = set().union(*(_referenced_names(tree) for tree in trees.values()))
    defined = _public_definitions(trees["kernel.py"]) | _public_definitions(trees["quad.py"])
    assert UNCALLED_BY_DESIGN <= defined
    unused = sorted(defined - used - UNCALLED_BY_DESIGN)
    assert unused == [], f"defined but never used in {PACKAGE.name}: {unused}"


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


def test_cold_start_imports():
    # dataclasses and the inspect it imports slowed every cold CLI start, and
    # the package needs fractions nowhere.
    # verify and render stay eager: the benchmark's traced CLI child imports
    # isoptic.cli alone and then reads both from sys.modules
    probe = ("import isoptic.cli, sys; print(' '.join(sorted(m for m in ("
             "'dataclasses', 'inspect', 'typing', 'fractions', 'isoptic.verify',"
             " 'isoptic.render') if m in sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["isoptic.render", "isoptic.verify"]
