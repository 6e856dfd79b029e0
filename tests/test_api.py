"""Public names: each module's ``__all__`` resolves, and the package
re-exports only names its modules declare public."""

import ast
import importlib
import pkgutil
from functools import lru_cache
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


def _top_level_private(stmt: ast.stmt) -> list[str]:
    """The private names a module-level ``def``, ``class`` or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(stmt: ast.stmt) -> set[str]:
    """The names a statement reads: loaded names, attributes, imported names."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


@lru_cache(maxsize=None)
def _body(module: str) -> list[ast.stmt]:
    return ast.parse(Path(tropcomm.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")).body


@lru_cache(maxsize=None)
def _package_reads() -> list[tuple[ast.stmt, set[str]]]:
    return [(stmt, _reads(stmt)) for module in MODULES for stmt in _body(module)]


@pytest.mark.parametrize("name", MODULES)
def test_every_private_name_is_read(name):
    """The dead-code lint: every module-level private ``def``, ``class`` or
    assignment is read somewhere in the package outside its own definition,
    so no helper outlives its last caller."""
    reads = _package_reads()
    dead = [
        n for stmt in _body(name) for n in _top_level_private(stmt)
        if not any(n in read for other, read in reads if other is not stmt)
    ]
    assert dead == []
