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
