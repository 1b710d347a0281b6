"""The benchmark reaches troplines by name; every such name must exist.

perfbench/run.py wraps each (module, function) in its LAYERS table with
getattr, and perfbench/*.py import troplines names and read attributes
off imported troplines modules, so renaming or deleting one of them
breaks the benchmark. The files are read with ast; the benchmark is not
imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN_PY = PERFBENCH / "run.py"


def _layers():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {RUN_PY}")


@pytest.mark.parametrize("module,function,layer", _layers())
def test_benchmark_layer_resolves(module, function, layer):
    if module == "_fastsweep":
        pytest.importorskip("troplines._fastsweep")
    mod = importlib.import_module(f"troplines.{module}")
    assert callable(getattr(mod, function, None)), f"{layer}: troplines.{module}.{function}"


class _TroplinesNames(ast.NodeVisitor):
    """Collects into found the dotted troplines names a file imports, and
    those it reads as attributes of a name an import bound to a troplines
    module or object. A function sees the bindings of the scope around it,
    less its parameters, and its own."""

    def __init__(self, found):
        self.found, self.scopes = found, [{}]

    def visit_FunctionDef(self, node):
        params = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        self.scopes.append({k: v for k, v in self.scopes[-1].items() if k not in params})
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name.partition(".")[0] == "troplines":
                self.found.add(alias.name)
                self.scopes[-1][alias.asname or "troplines"] = (
                    alias.name if alias.asname else "troplines")

    def visit_ImportFrom(self, node):
        if (node.module or "").partition(".")[0] == "troplines":
            for alias in node.names:
                self.found.add(f"{node.module}.{alias.name}")
                self.scopes[-1][alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in self.scopes[-1]:
            self.found.add(f"{self.scopes[-1][node.value.id]}.{node.attr}")
        self.generic_visit(node)


def _troplines_names():
    """(file, dotted name) for every troplines name perfbench/*.py use."""
    names = []
    for path in sorted(PERFBENCH.glob("*.py")):
        found = set()
        _TroplinesNames(found).visit(ast.parse(path.read_text(encoding="utf-8")))
        names += [(path.name, name) for name in sorted(found)]
    return names


@pytest.mark.parametrize("file,name", _troplines_names())
def test_benchmark_troplines_name_resolves(file, name):
    parts = name.split(".")
    if "_fastsweep" in parts:
        pytest.importorskip("troplines._fastsweep")
    cut = len(parts)
    while True:
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
            break
        except ModuleNotFoundError:
            cut -= 1
    for attr in parts[cut:]:
        assert hasattr(obj, attr), f"{file}: {name}"
        obj = getattr(obj, attr)
