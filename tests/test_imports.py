"""What importing troplines loads: the package's exports resolve on first
access, a compiled verify loads none of the pure geometry, and a verify at
one job does not load multiprocessing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import troplines
from troplines.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# modules a compiled verify never runs
PURE_GEOMETRY = {f"troplines.{name}" for name in (
    "arrangement", "analysis", "incidence", "lines", "rationals", "serialize",
    "subdivision", "svg")}
HEAVY_STDLIB = {"multiprocessing", "dataclasses", "fractions"}

# run in a fresh interpreter: serves the extension at argv[1], when given, as
# troplines._fastsweep, runs the statement argv[2], and prints on stderr the
# modules it loaded that the bare interpreter had not
_LOADED = """
import importlib.machinery, importlib.util, json, sys

class _Kernel:
    def find_spec(self, name, path=None, target=None):
        if name == "troplines._fastsweep" and sys.argv[1]:
            loader = importlib.machinery.ExtensionFileLoader(name, sys.argv[1])
            return importlib.util.spec_from_file_location(name, sys.argv[1], loader=loader)

sys.meta_path.insert(0, _Kernel())
bare = set(sys.modules)
exec(sys.argv[2])
print(json.dumps(sorted(set(sys.modules) - bare)), file=sys.stderr)
"""


def _fresh(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          cwd=cwd, timeout=60)


def _loaded(statement, kernel=""):
    done = _fresh("-c", _LOADED, kernel, statement)
    assert done.returncode == 0, done.stderr.decode()
    return set(json.loads(done.stderr.decode().splitlines()[-1])), done.stdout


def test_every_export_is_its_submodules_object():
    for name in troplines.__all__:
        value = getattr(troplines, name)
        if name != "__version__":
            assert value.__module__.startswith("troplines."), name
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_dir_lists_every_export():
    assert set(troplines.__all__) <= set(dir(troplines))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from troplines import *", namespace)
    assert set(troplines.__all__) <= set(namespace)
    assert namespace["run_sweep"] is troplines.sweep.run_sweep


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        troplines.no_such_name
    assert not hasattr(troplines, "analyze_config")


def test_cli_import_loads_no_pure_geometry():
    loaded, _ = _loaded("import troplines.cli")
    assert "troplines.cli" in loaded
    assert not loaded & (PURE_GEOMETRY | HEAVY_STDLIB)


def test_compiled_verify_loads_no_pure_geometry(built_kernel):
    statement = ("from troplines.cli import main; main(['verify', '--n', '4', '--mode', "
                 "'exhaustive', '--grid', '4', '--jobs', '1'])")
    loaded, out = _loaded(statement, built_kernel.__file__)
    summary = json.loads(out)
    assert (summary["route"], summary["configs_tested"]) == ("compiled", 1820)
    assert "troplines._fastsweep" in loaded
    assert not loaded & (PURE_GEOMETRY | {"multiprocessing"})


def test_pure_verify_at_one_job_loads_no_multiprocessing():
    statement = ("from troplines import kernel; kernel._COMPILED = None; "
                 "from troplines.cli import main; main(['verify', '--n', '4', '--mode', "
                 "'exhaustive', '--grid', '3', '--jobs', '1'])")
    loaded, out = _loaded(statement)
    summary = json.loads(out)
    assert (summary["route"], summary["configs_tested"]) == ("pure", 126)
    assert {"troplines.analysis", "troplines.incidence", "troplines.serialize"} <= loaded
    assert "multiprocessing" not in loaded


@pytest.mark.parametrize("args", [
    ["analyze", "pencil.json"],
    ["analyze", "missing.json"],
    ["render", "pencil.json", "--svg", "picture.svg"],
    ["render", "pencil.json", "--svg", "missing/picture.svg"],
    ["stable-line", "--p1", "-3,2", "--p2", "-1,2"],
    ["stable-line", "--p1", "12,-58/9", "--p2", "12,-58/9"],
], ids=["analyze", "analyze-missing", "render", "render-unwritable", "stable-line",
        "stable-line-equal"])
def test_handlers_load_their_modules_in_a_fresh_interpreter(tmp_path, capsys, monkeypatch,
                                                             args):
    # each handler imports what it uses: run as the first command of a
    # fresh interpreter, it prints the bytes and exits with the code it
    # gives where everything is loaded
    (tmp_path / "pencil.json").write_text('{"points": [[0, 0], [0, -2], [-2, 0], [2, 2]]}')
    monkeypatch.chdir(tmp_path)
    code = main(args)
    captured = capsys.readouterr()
    svg = (tmp_path / "picture.svg").read_bytes() if args[0] == "render" and code == 0 else None
    done = _fresh("-m", "troplines", *args, cwd=tmp_path)
    assert done.returncode == code
    assert (done.stdout.decode(), done.stderr.decode()) == (captured.out, captured.err)
    if svg is not None:
        assert (tmp_path / "picture.svg").read_bytes() == svg
