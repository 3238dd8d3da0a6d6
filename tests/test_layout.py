"""Every public function and class of the kernel and quad modules is used by
the package itself, so code that only its own unit tests call does not
accumulate."""

import ast
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
