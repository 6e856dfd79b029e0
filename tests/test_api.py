"""Public names: each module's ``__all__`` resolves, and the package
re-exports only names its modules declare public."""

import ast
import importlib
import pkgutil
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import tropcomm
from tropcomm import INF, SparsePoly, TropMatrix, TropVector, matrix_variables, monomial, trop_mul
from tropcomm.core import TropScalar, scalar_to_text
from tropcomm.series import format_series, parse_series

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


def test_public_operators_stand_for_their_named_functions():
    """Each operator and ``__str__`` of the public types gives what the
    named function it stands for gives."""
    a = TropMatrix.of([[0, Fraction(1, 2)], ["inf", -3]])
    b = TropMatrix.of([[Fraction(-7, 3), 2], [1, "inf"]])
    assert a @ b == trop_mul(a, b) and b @ a == trop_mul(b, a)
    assert str(a) == "0  1/2\ninf  -3"
    assert str(a) == "\n".join("  ".join(map(scalar_to_text, row)) for row in a.rows)

    s = TropScalar(Fraction(-7, 3))
    assert str(s) == scalar_to_text(s) == "-7/3" and str(INF) == scalar_to_text(INF) == "inf"
    v = TropVector((s, INF, TropScalar(Fraction(4))))
    assert str(v) == "(-7/3, inf, 4)" == "(" + ", ".join(map(scalar_to_text, v.entries)) + ")"

    names = matrix_variables(2)
    f = SparsePoly.from_terms([(monomial(names, "x11", "y12"), 3), (monomial(names, "x21"), -1)])
    m = monomial(names, "y21", "y21")
    assert f * SparsePoly.from_terms([(m, 1)]) == f.mul_monomial(m)
    assert list(f) == list(f.terms)

    p = parse_series("2 - t^(1/2) + 3/4*t^3")
    assert str(p) == format_series(p) == "2 - t^(1/2) + 3/4*t^3"
