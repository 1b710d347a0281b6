"""Build hook for the optional compiled sweep kernel.

The package is pure Python except for troplines/_fastsweep.c, a
hand-written C extension with the integer configuration-analysis kernel
used by the verification sweeps. The extension is optional: if no C
compiler is available the build falls back to a pure wheel, and
troplines.kernel selects the pure-Python implementation at import time.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "troplines._fastsweep",
            sources=["src/troplines/_fastsweep.c"],
            optional=True,
        )
    ]
)
