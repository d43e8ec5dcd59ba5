"""The runtime imports only the standard library and lieinv itself."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "lieinv").glob("*.py"))


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


def bench_constant(filename, name):
    """The literal value assigned to a module-level name of a bench/ file."""
    tree = ast.parse((ROOT / "bench" / filename).read_text(), filename=filename)
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError("%s has no %s" % (filename, name))


def bench_function_names():
    """layer.function of every <layer>.<function>.<key> bench metric, and the
    gcd span that bench/layers.py reads directly from the tracer summary."""
    metrics = bench_constant("layers.py", "PER_LAYER")
    names = {m.rsplit(".", 1)[0] for m in metrics if m.count(".") == 2}
    return sorted(names | {"expr.poly_gcd"})


@pytest.mark.parametrize("name", bench_function_names())
def test_bench_layer_names_resolve(name):
    # the bench indexes the tracer's spans by these names, and the tracer
    # wraps only public functions defined in the layer's own module
    layer, func = name.split(".")
    assert layer in bench_constant("tracer.py", "LAYERS")
    mod = importlib.import_module("lieinv." + layer)
    obj = getattr(mod, func, None)
    assert not func.startswith("_")
    assert inspect.isfunction(obj) and obj.__module__ == mod.__name__
