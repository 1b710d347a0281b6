"""Fixtures shared by several test modules."""

import contextlib
import importlib.machinery
import importlib.util
import os
import pickle
import select
import shlex
import shutil
import signal
import subprocess
import sys
import sysconfig
import time
import traceback
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


# seconds a child of in_child may take; far more than any test needs
CHILD_TIMEOUT = 60


def _in_child(function):
    """function() called in a forked child process, which inherits the
    loaded kernels and the test's patches; its result, pickled back.

    A fault in the child, such as a heap overrun that aborts it, fails the
    calling test with the child's status instead of ending the test run;
    an exception in the child fails it with the child's traceback. A child
    still running after CHILD_TIMEOUT seconds (a sweep whose worker died
    waits forever) is killed with its own workers, and fails the test."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child: its own process group, for its workers too; it leaves
        # without running the parent's exit handlers
        try:
            os.setpgid(0, 0)
            os.close(read)
            try:
                payload = pickle.dumps((True, function()))
            except BaseException:
                payload = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write, "wb") as out:
                out.write(payload)
        finally:
            os._exit(0)
    os.close(write)
    chunks = []
    deadline = time.monotonic() + CHILD_TIMEOUT
    with os.fdopen(read, "rb", buffering=0) as source:
        while select.select([source], [], [], max(0, deadline - time.monotonic()))[0]:
            chunk = source.read(1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
        else:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise AssertionError(f"the child process ran past {CHILD_TIMEOUT} s and was killed")
    _, status = os.waitpid(pid, 0)
    if not chunks:
        died = (f"signal {signal.Signals(os.WTERMSIG(status)).name}"
                if os.WIFSIGNALED(status) else f"exit code {os.waitstatus_to_exitcode(status)}")
        raise AssertionError(f"the child process died ({died}) without a result")
    ok, value = pickle.loads(b"".join(chunks))
    if not ok:
        raise AssertionError(f"the child process raised:\n{value}")
    return value


@pytest.fixture(scope="session")
def in_child():
    """A function that calls a function of no arguments in a forked child
    process and returns its result. Tests that run the compiled kernel's
    analysis call it there, so that a memory fault in the kernel fails one
    test by name while the rest of the run goes on."""
    return _in_child


@pytest.fixture(scope="session")
def built_kernel(tmp_path_factory):
    """The kernel's C source compiled outside the source tree with the
    interpreter's own CFLAGS, as setup.py build_ext and pip build it, and
    loaded, whether or not an extension is installed."""
    flags = shlex.split(sysconfig.get_config_var("CFLAGS") or "")
    return load_kernel(compile_kernel(tmp_path_factory.mktemp("kernel"), *flags))


_LIFT_ANCHOR = "    _lift(n, px, py, lift);\n"

# One-line faults of the kernel's source, each (anchor, replacement): the
# anchor occurs once in _fastsweep.c and is replaced. The negated lift
# stays affine on every cell, so only the dominance test across cell
# edges can reject it; the bent lift, which adds (i * j) mod 3, is not
# affine on most cells, so the agreement test rejects it too; and without
# determined faces every triangle that needs some fails the two
# determined-face suites. The raised lift, 40 more at (0, 3) and 80 more at
# (1, 3), makes some configurations fail the dominance tests below and
# across the diagonal of the upward triangle (0, 2, 0) at once, so the first
# failure reported depends on the order of the two. The unit-edge test that
# takes an edge with dx = 1 for a long one fails every parallelogram that
# shares edges with two triangles, since one of its edge pairs has such an
# edge. With corner slots only, a triangle's edge neighbours stop counting
# among its determined faces, so the records show the slot rule.
NEGATED_LIFT = (_LIFT_ANCHOR, _LIFT_ANCHOR + (
    "    for (i = 0; i <= n; i++)\n"
    "        for (j = 0; i + j <= n; j++)\n"
    "            LIFT(i, j) = -LIFT(i, j);\n"))
BENT_LIFT = (_LIFT_ANCHOR, _LIFT_ANCHOR + (
    "    for (i = 0; i <= n; i++)\n"
    "        for (j = 0; i + j <= n; j++)\n"
    "            LIFT(i, j) += (i * j) % 3;\n"))
RAISED_LIFT = (_LIFT_ANCHOR, _LIFT_ANCHOR + (
    "    if (n >= 4)\n"
    "        LIFT(0, 3) += 40, LIFT(1, 3) += 80;\n"))
_DETERMINED_ANCHOR = "        if (tri->bdry < 2) {\n"
NO_DETERMINED_FACES = (_DETERMINED_ANCHOR, "        det_count = 0;\n" + _DETERMINED_ANCHOR)
CORNER_SLOTS_ONLY = ("e < 3 ? cells[k].cls == CLS_PAR || cells[k].cls == CLS_HEX", "e < 3 ? 0")
_UNIT_EDGE_ANCHOR = "if (dx < -1 || dx > 1 || dy < -1 || dy > 1) {"
LONG_UNIT_EDGE = (_UNIT_EDGE_ANCHOR, _UNIT_EDGE_ANCHOR.replace("dx > 1", "dx > 0"))


def _mutated_source(directory, anchor, replacement):
    """The kernel's source with its one occurrence of anchor replaced,
    written into directory; its path."""
    text = (SOURCE / "_fastsweep.c").read_text()
    assert text.count(anchor) == 1, anchor
    source = Path(directory) / "_fastsweep.c"
    source.write_text(text.replace(anchor, replacement))
    return source


def _mutant_kernel(tmp_path_factory, name, mutation):
    """The kernel with the mutation compiled with cc -O0, and loaded."""
    directory = tmp_path_factory.mktemp(name)
    return load_kernel(compile_kernel(
        directory, "-O0", source=_mutated_source(directory, *mutation)))


@pytest.fixture(scope="session")
def negated_lift_kernel(tmp_path_factory):
    """The kernel with the lift negated after it is computed."""
    return _mutant_kernel(tmp_path_factory, "negated_lift", NEGATED_LIFT)


@pytest.fixture(scope="session")
def bent_lift_kernel(tmp_path_factory):
    """The kernel with (i * j) mod 3 added to the lift after it is
    computed."""
    return _mutant_kernel(tmp_path_factory, "bent_lift", BENT_LIFT)


@pytest.fixture(scope="session")
def raised_lift_kernel(tmp_path_factory):
    """The kernel with the lift raised at (0, 3) and (1, 3) after it is
    computed."""
    return _mutant_kernel(tmp_path_factory, "raised_lift", RAISED_LIFT)


@pytest.fixture(scope="session")
def no_determined_faces_kernel(tmp_path_factory):
    """The kernel with every triangle's determined faces dropped before
    the determined-face suites count them."""
    return _mutant_kernel(tmp_path_factory, "no_determined_faces", NO_DETERMINED_FACES)


@pytest.fixture(scope="session")
def corner_slots_only_kernel(tmp_path_factory):
    """The kernel with a triangle's determined faces taken from its corner
    slots only."""
    return _mutant_kernel(tmp_path_factory, "corner_slots_only", CORNER_SLOTS_ONLY)


@pytest.fixture(scope="session")
def long_unit_edge_kernel(tmp_path_factory):
    """The kernel with an edge of dx = 1 taken for a non-unit one by the
    unit-parallelogram suite."""
    return _mutant_kernel(tmp_path_factory, "long_unit_edge", LONG_UNIT_EDGE)


# an extension of nothing under the kernel's name, which any toolchain that
# can build and load extensions with a sanitizer's flags builds and loads
_EMPTY_EXTENSION = """#include <Python.h>
static struct PyModuleDef empty = {
    .m_base = PyModuleDef_HEAD_INIT, .m_name = "troplines._fastsweep"};
PyMODINIT_FUNC PyInit__fastsweep(void) { return PyModuleDef_Init(&empty); }
"""


def _sanitized_kernel(directory, flags, env=None, source=SOURCE / "_fastsweep.c"):
    """The path of the kernel source compiled at -O1 with the sanitizer
    flags into directory. Skips the test when the toolchain cannot build
    an empty extension with those flags, or a child interpreter with env
    added to its environment cannot load it. A kernel that then does not
    build fails the test here, and one that does not load fails it in the
    child that runs it."""
    empty = Path(directory) / "empty"
    empty.mkdir()
    (empty / "empty.c").write_text(_EMPTY_EXTENSION)
    try:
        target = compile_kernel(empty, "-O1", *flags, source=empty / "empty.c")
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
        pytest.skip(f"an extension built with {' '.join(flags)} does not load: "
                    f"{probe.stderr[-300:]!r}")
    return compile_kernel(directory, "-O1", *flags, source=source)


UBSAN = ["-fsanitize=undefined", "-fno-sanitize-recover=all"]
ASAN = ["-fsanitize=address"]


@pytest.fixture(scope="session")
def ubsan_kernel(tmp_path_factory):
    """The path of the kernel compiled with the undefined-behaviour
    sanitizer, which aborts at the first report."""
    return _sanitized_kernel(tmp_path_factory.mktemp("ubsan"), UBSAN)


@pytest.fixture(scope="session")
def ubsan_negated_lift_kernel(tmp_path_factory):
    """The path of the negated-lift kernel compiled as ubsan_kernel is."""
    directory = tmp_path_factory.mktemp("ubsan_negated_lift")
    return _sanitized_kernel(directory, UBSAN, source=_mutated_source(directory, *NEGATED_LIFT))


@pytest.fixture(scope="session")
def asan_env():
    """The additions to the environment under which an interpreter not
    built with the address sanitizer loads a kernel built with it: the
    sanitizer's runtime preloaded, leak checks off (the interpreter keeps
    memory until exit) and Python's allocator replaced by malloc, so that
    every block the kernel allocates has guard bytes. Skips the test when
    the compiler has no such runtime."""
    compiler = shutil.which("cc")
    runtime = compiler and subprocess.run(
        [compiler, "-print-file-name=libasan.so"], capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    if not runtime or not Path(runtime).is_absolute():
        pytest.skip("the C compiler has no address-sanitizer runtime")
    return {"LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0", "PYTHONMALLOC": "malloc"}


@pytest.fixture(scope="session")
def asan_kernel(tmp_path_factory, asan_env):
    """(path, asan_env) of the kernel compiled with the address sanitizer,
    which aborts at the first heap overrun."""
    return _sanitized_kernel(tmp_path_factory.mktemp("asan"), ASAN, asan_env), asan_env


@pytest.fixture(scope="session")
def asan_negated_lift_kernel(tmp_path_factory, asan_env):
    """(path, asan_env) of the negated-lift kernel compiled as asan_kernel
    is."""
    directory = tmp_path_factory.mktemp("asan_negated_lift")
    source = _mutated_source(directory, *NEGATED_LIFT)
    return _sanitized_kernel(directory, ASAN, asan_env, source=source), asan_env
