"""Every exported name is reached from inside the package, or is library API."""

import ast
from pathlib import Path

import circle_ifs

PACKAGE = Path(circle_ifs.__file__).resolve().parent

# Exported for library callers although no module or command calls them.
LIBRARY_API = {
    "nested_limit": "the paper's approximation of points of B by nested images",
    "random_orbit_density": "the title theorem's orbit density, which no command reports yet",
    "branch_apply": "replays a record's word on a point (the benchmark's sweep check)",
}


def package_references() -> set[str]:
    """Names read in the package's modules (not __init__.py), leaving out
    those read inside the module-level definition of the same name."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        own = {
            node.name: range(node.lineno, node.end_lineno + 1)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.lineno not in own.get(node.id, ()):
                    found.add(node.id)
    return found


def test_every_export_is_referenced_or_library_api():
    refs = package_references()
    unreached = [n for n in circle_ifs.__all__ if n not in refs and n not in LIBRARY_API]
    assert unreached == []


def test_library_api_is_exported_and_unreferenced():
    # An allow-listed name that the package starts calling leaves the list.
    assert set(LIBRARY_API) <= set(circle_ifs.__all__)
    assert set(LIBRARY_API).isdisjoint(package_references())


def test_periodic_points_imports_nothing_from_synchronization():
    # The attractor search scans prefix fixed points; it runs no repeller
    # detection.  Module paths and imported names are both read, so
    # `from . import synchronization` counts too.
    tree = ast.parse((PACKAGE / "periodic_points.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert "synchronization" not in names
