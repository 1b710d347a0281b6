"""The traced benchmark run hooks functions by name; they must all exist.

perfbench/run.py wraps each (module, function) in its LAYERS table with
getattr, so renaming or deleting one of them breaks the benchmark. The
table is read from the source with ast; the benchmark is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


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
