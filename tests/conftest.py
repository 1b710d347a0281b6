"""Fixtures shared by several test modules."""

import importlib.machinery
import importlib.util
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "troplines"


@pytest.fixture(scope="session")
def built_kernel(tmp_path_factory):
    """The shipped C compiled with cc -O0 outside the source tree and
    loaded under its own name, whether or not an extension is installed."""
    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler")
    target = tmp_path_factory.mktemp("kernel") / (
        f"_fastsweep{sysconfig.get_config_var('EXT_SUFFIX')}"
    )
    subprocess.run(
        [compiler, "-O0", "-shared", "-fPIC", "-w",
         f"-I{sysconfig.get_paths()['include']}", str(SOURCE / "_fastsweep.c"),
         "-o", str(target)],
        check=True, timeout=300,
    )
    name = "troplines._fastsweep"
    registered = name in sys.modules
    loader = importlib.machinery.ExtensionFileLoader(name, str(target))
    kernel = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    try:
        loader.exec_module(kernel)
    finally:
        # the module enters itself in sys.modules; later tests keep the
        # backend the process selected
        if not registered:
            sys.modules.pop(name, None)
    return kernel
