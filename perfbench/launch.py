"""Run troplines from this checkout's src/, with or without the compiled kernel.

The benchmark starts every measured process through this file:

    python3 perfbench/launch.py verify --n 5 --mode exhaustive --grid 6 ...
    python3 perfbench/launch.py --probe
    python3 perfbench/launch.py --measure RESULT verify ...

The first form runs the troplines CLI; --probe imports troplines.cli,
selects the backend, prints its name and exits (the set-up probe).
--measure runs the rest of the command line as a child of this small
process and writes the child's start and end times (perf_counter, which
is system-wide), exit code and peak resident set to the JSON file
RESULT. Linux carries a process's resident high-water mark across fork
and exec, so a child forked straight from the benchmark process would
report the benchmark's own memory when that is larger.

When the environment variable PERFBENCH_KERNEL names a built _fastsweep
extension, an import hook serves it as troplines._fastsweep, so the
package's own backend selection finds it as it would in an installed
build. Without the variable the kernel is absent from the import path,
as after an install without Cython. The hook is installed at import time
of this file as a main module, so worker processes started with the
spawn method get it too.
"""

import importlib.machinery
import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL_ENV = "PERFBENCH_KERNEL"
KERNEL_MODULE = "troplines._fastsweep"


class KernelFinder:
    """Meta path finder that serves troplines._fastsweep from a file
    outside the source tree."""

    def __init__(self, path: str) -> None:
        self.path = path

    def find_spec(self, name, path=None, target=None):
        if name != KERNEL_MODULE:
            return None
        loader = importlib.machinery.ExtensionFileLoader(name, self.path)
        return importlib.util.spec_from_file_location(name, self.path, loader=loader)


def use_checkout(kernel) -> None:
    """Import troplines from this checkout, serving the kernel at path
    kernel when it is not None."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if kernel is not None and not any(
        isinstance(f, KernelFinder) for f in sys.meta_path
    ):
        sys.meta_path.insert(0, KernelFinder(str(kernel)))


def load_kernel(path):
    """The kernel extension at path as a module object, without making it
    visible to troplines' backend selection."""
    loader = importlib.machinery.ExtensionFileLoader(KERNEL_MODULE, str(path))
    spec = importlib.util.spec_from_file_location(KERNEL_MODULE, str(path), loader=loader)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


if __name__ in ("__main__", "__mp_main__"):
    use_checkout(os.environ.get(KERNEL_ENV))

if __name__ == "__main__":
    if sys.argv[1:2] == ["--measure"]:
        import json
        import subprocess
        import time

        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, __file__, *sys.argv[3:]])
        _, status, usage = os.wait4(child.pid, 0)
        end = time.perf_counter()
        child.returncode = os.waitstatus_to_exitcode(status)
        with open(sys.argv[2], "w", encoding="utf-8") as fh:
            json.dump({"start": start, "end": end, "returncode": child.returncode,
                       "peak_rss_kb": usage.ru_maxrss}, fh)
        sys.exit(0)
    if sys.argv[1:] == ["--probe"]:
        import troplines.cli  # noqa: F401  (the import is what is timed)
        from troplines import kernel

        print(kernel.backend_name())
        sys.exit(0)
    from troplines.cli import main

    sys.exit(main(sys.argv[1:]))
