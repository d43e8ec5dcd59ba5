"""The runtime imports only the standard library and lieinv itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "lieinv").glob("*.py"))


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield "lieinv" if node.level else node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_or_lieinv(path):
    foreign = [
        name for name in imported_modules(path)
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "lieinv"
    ]
    assert foreign == []


def test_sources_found():
    assert len(SOURCES) >= 9


def private_expr_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module == "expr") or node.module == "lieinv.expr"
        ):
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "expr.py"], ids=lambda p: p.name)
def test_no_private_expr_names_outside_expr(path):
    # monomial internals stay behind expr's public API (coefficients, ...)
    assert list(private_expr_imports(path)) == []
