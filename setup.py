"""Build hook for the optional compiled sweep kernel.

The package is pure Python except for troplines/_fastsweep.pyx, a Cython
translation of the integer configuration-analysis kernel used by the
verification sweeps. With Cython the extension is built from the .pyx;
without it, from the shipped C translation src/troplines/_fastsweep.c.
The extension is optional: if no C compiler is available the build falls
back to a pure wheel, and troplines.kernel selects the pure-Python
implementation at import time.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [
            Extension(
                "troplines._fastsweep",
                sources=["src/troplines/_fastsweep.pyx"],
                optional=True,
            )
        ],
        language_level=3,
    )
except Exception as exc:  # pragma: no cover - build environment dependent
    print(f"troplines: building the kernel from the shipped C source ({exc})")
    ext_modules = [
        Extension(
            "troplines._fastsweep",
            sources=["src/troplines/_fastsweep.c"],
            optional=True,
        )
    ]

setup(ext_modules=ext_modules)
