"""Fixtures shared by several test modules."""

import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "troplines"


def compile_kernel(directory, *flags, source=SOURCE / "_fastsweep.c"):
    """The kernel's C source compiled with cc and the given flags, every
    warning an error, into directory; the extension's path. Skips the
    test without a C compiler."""
    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler")
    target = Path(directory) / f"_fastsweep{sysconfig.get_config_var('EXT_SUFFIX')}"
    subprocess.run(
        [compiler, *flags, "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
         f"-I{sysconfig.get_paths()['include']}", str(source), "-o", str(target)],
        check=True, timeout=300,
    )
    return target


def load_kernel(path):
    """The extension at path, loaded under its own name. The module uses
    multi-phase initialization, so loading it leaves sys.modules and the
    process's backend alone."""
    loader = importlib.machinery.ExtensionFileLoader("troplines._fastsweep", str(path))
    kernel = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(kernel)
    return kernel


@pytest.fixture(scope="session")
def built_kernel(tmp_path_factory):
    """The kernel's C source compiled with cc -O0 outside the source tree
    and loaded, whether or not an extension is installed."""
    return load_kernel(compile_kernel(tmp_path_factory.mktemp("kernel"), "-O0"))


@pytest.fixture
def kernel_variant(tmp_path):
    """A function that takes an edit, a function from C source text to C
    source text, and returns the kernel compiled from the edited source as
    built_kernel is compiled, and loaded."""
    def build(edit):
        source = tmp_path / "_fastsweep.c"
        source.write_text(edit((SOURCE / "_fastsweep.c").read_text()))
        return load_kernel(compile_kernel(tmp_path, "-O0", source=source))
    return build


def _sanitized_kernel(directory, flags, env=None):
    """The path of the kernel compiled at -O1 with the sanitizer flags into
    directory, once a child interpreter with env added to its environment
    has loaded it. Skips the test when the toolchain cannot build it or
    the interpreter cannot load it."""
    try:
        target = compile_kernel(directory, "-O1", *flags)
    except subprocess.CalledProcessError:
        pytest.skip(f"the C compiler cannot build with {' '.join(flags)}")
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import conftest; "
         "conftest.load_kernel(sys.argv[2])",
         str(Path(__file__).parent), str(target)],
        capture_output=True, timeout=120, env={**os.environ, **(env or {})},
    )
    if probe.returncode != 0:
        pytest.skip(f"the sanitized kernel does not load: {probe.stderr[-300:]!r}")
    return target


@pytest.fixture(scope="session")
def ubsan_kernel(tmp_path_factory):
    """The path of the kernel compiled with the undefined-behaviour
    sanitizer, which aborts at the first report."""
    return _sanitized_kernel(tmp_path_factory.mktemp("ubsan"),
                             ["-fsanitize=undefined", "-fno-sanitize-recover=all"])


@pytest.fixture(scope="session")
def asan_kernel(tmp_path_factory):
    """(path, environment) of the kernel compiled with the address
    sanitizer, which aborts at the first heap overrun, and the additions
    to the environment under which an interpreter not built with the
    sanitizer loads it: the sanitizer's runtime preloaded, leak checks off
    (the interpreter keeps memory until exit) and Python's allocator
    replaced by malloc, so that every block the kernel allocates has guard
    bytes. Skips the test when the compiler has no such runtime."""
    compiler = shutil.which("cc")
    runtime = compiler and subprocess.run(
        [compiler, "-print-file-name=libasan.so"], capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    if not runtime or not Path(runtime).is_absolute():
        pytest.skip("the C compiler has no address-sanitizer runtime")
    env = {"LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0", "PYTHONMALLOC": "malloc"}
    return _sanitized_kernel(tmp_path_factory.mktemp("asan"), ["-fsanitize=address"], env), env
