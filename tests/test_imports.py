"""Static checks on the package's imports and exports, with the stdlib ``ast``.

Every name a module imports must be used in it (a name listed in the
module's ``__all__`` counts as used, since it is re-exported), and every name
an ``__all__`` lists must resolve.
"""

import ast
import importlib
import pathlib

import pytest

import statebandits

PACKAGE_DIR = pathlib.Path(statebandits.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py"))


def _declared_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                used.add(base.id)
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
    used = _used_names(tree) | _declared_all(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{module} imports names it never uses: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    name = "statebandits" if module == "__init__" else f"statebandits.{module}"
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists names that do not exist: {missing}"
