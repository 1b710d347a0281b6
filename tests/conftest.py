"""Fixtures shared by several test modules."""

import importlib.machinery
import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "troplines"


@pytest.fixture(scope="session")
def built_kernel(tmp_path_factory):
    """The kernel's C source compiled with cc -O0, every warning an error,
    outside the source tree and loaded under its own name, whether or not
    an extension is installed. The module uses multi-phase initialization,
    so loading it leaves sys.modules and the process's backend alone."""
    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler")
    target = tmp_path_factory.mktemp("kernel") / (
        f"_fastsweep{sysconfig.get_config_var('EXT_SUFFIX')}"
    )
    subprocess.run(
        [compiler, "-O0", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
         f"-I{sysconfig.get_paths()['include']}", str(SOURCE / "_fastsweep.c"),
         "-o", str(target)],
        check=True, timeout=300,
    )
    loader = importlib.machinery.ExtensionFileLoader("troplines._fastsweep", str(target))
    kernel = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(kernel)
    return kernel
