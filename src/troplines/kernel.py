"""Backend selection for verification sweeps.

A sweep runs on one of two routes, chosen once for the whole sweep by
stream_eligible(): the compiled kernel built from _fastsweep.c, when the
extension is importable and takes every configuration the sweep can
generate (at most 128 points, integer coordinates of magnitude at most
2**20), or the pure-Python reference in troplines.analysis. Both produce
the same analysis record, which the test suite enforces by direct
comparison. analyze() is the pure route's call per configuration; this
module loads no pure geometry itself, so selecting the backend for a
compiled sweep costs only the extension's import.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .incidence import PointConfig

COORD_LIMIT = 1 << 20
MAX_KERNEL_POINTS = 128

try:
    from . import _fastsweep as _COMPILED
except ImportError:
    _COMPILED = None


def backend_name() -> str:
    """'compiled' when the extension is active, 'pure' otherwise."""
    return "pure" if _COMPILED is None else "compiled"


def stream_eligible(n: int, reach: int) -> bool:
    """True when the extension is loaded and takes every configuration of
    n distinct integer points with coordinates of magnitude at most
    reach. The extension itself rejects duplicate points, out-of-bound
    coordinates and too many points with ValueError, and non-integer
    coordinates with TypeError."""
    return _COMPILED is not None and n <= MAX_KERNEL_POINTS and reach <= COORD_LIMIT


def analyze(cfg: PointConfig) -> dict:
    """The analysis record for cfg on the pure route: a function of its
    own, not an alias of analyze_config, so that tests can swap it and the
    traced benchmark times it as its own layer. It reads
    analysis.analyze_config at call time; a pure sweep loads the module
    before it starts, so only a spawned worker's first call loads it."""
    from . import analysis

    return analysis.analyze_config(cfg)
