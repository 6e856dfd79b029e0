"""Public names: each module's ``__all__`` resolves, and the package
re-exports only names its modules declare public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tropcomm

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(tropcomm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"tropcomm.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_imports_only_public_names():
    tree = ast.parse(Path(tropcomm.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"tropcomm.{node.module}")
        private = [a.name for a in node.names if a.name not in getattr(module, "__all__", ())]
        assert private == [], node.module


# names a module imports without using them, each with its reason
UNUSED_IMPORTS_ALLOWED = {
    "polytrope": {"trop_mul": "perfbench/layers.py wraps polytrope.trop_mul by name"},
}


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    """The unused-import lint on the standard library's ``ast``: every name
    a module imports is read in it (``__future__`` imports excepted)."""
    tree = ast.parse(Path(tropcomm.__file__).with_name(f"{name}.py").read_text(encoding="utf-8"))
    imported = {
        (a.asname or a.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for a in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    allowed = set(UNUSED_IMPORTS_ALLOWED.get(name, ()))
    assert allowed <= imported - used
    assert sorted(imported - used - allowed) == []
