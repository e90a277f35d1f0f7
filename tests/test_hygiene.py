"""Source hygiene: no unused imports, private names or dangling public names.

Parsed with the standard-library ast module, so the check needs no lint
tool and runs with the rest of the suite.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import bryantlab
from bryantlab.defaults import NumericControls

PACKAGE_DIR = Path(bryantlab.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line; __future__ imports excluded."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private (_name) module-level function, class or constant -> its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def test_modules_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_loaded(path):
    # a private name is the module's own business: if nothing in the
    # module reads it, it is dead
    tree = ast.parse(path.read_text(), filename=str(path))
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = {name: line for name, line in private_definitions(tree).items()
              if name not in loaded}
    assert not unused, f"{path.name}: private names never loaded {unused}"


def _bound_names(body: list) -> dict[str, int]:
    """Name -> line of each function, class or assignment target in a body."""
    bound = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update((n.id, node.lineno) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return bound


def test_every_private_name_has_a_reader_in_the_package():
    # a helper that a simplification leaves without a caller is dead, also
    # one in a class body or read only from another module
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(PACKAGE_DIR.glob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = []
    for name, tree in trees.items():
        bodies = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        unused += [f"{name}:{line} {b}" for body in bodies
                   for b, line in _bound_names(body).items()
                   if b.startswith("_") and not b.startswith("__") and b not in loaded]
    assert not unused, f"private names that nothing in src/ reads: {unused}"


def test_all_names_resolve():
    missing = [name for name in bryantlab.__all__
               if not hasattr(bryantlab, name)]
    assert not missing


def test_all_lists_exactly_the_imports():
    init = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    assert set(imported_names(init)) == set(bryantlab.__all__)


def test_every_control_is_read():
    # a NumericControls field that no module reads is a knob that does nothing
    read = {node.attr for path in MODULES if path.name != "defaults.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f.name for f in fields(NumericControls) if f.name not in read]
    assert not unread, f"NumericControls fields that no module reads: {unread}"
