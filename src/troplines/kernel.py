"""Backend selection for per-configuration analysis.

Verification sweeps call analyze() here instead of the pure routine in
troplines.analysis. kernel_pairs() is the one eligibility rule: a
configuration fits the compiled kernel built from _fastsweep.c when it
has at most 128 points with integer coordinates of magnitude at most
2**20. When the extension is importable, eligible configurations go to
it and everything else to the pure-Python implementation; without the
extension every call is pure. Both produce the same analysis record,
which the test suite enforces by direct comparison. The pure reference
stays callable directly as troplines.analysis.analyze_config.
stream_eligible() applies the same limits once to a whole stream of
integer configurations, so a sweep can hand its int tuples to the
extension directly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .analysis import analyze_config
from .incidence import PointConfig, ordinary_stable_lines

COORD_LIMIT = 1 << 20
MAX_KERNEL_POINTS = 128

try:
    from . import _fastsweep as _COMPILED
except ImportError:
    _COMPILED = None


def backend_name() -> str:
    """'compiled' when the extension is active, 'pure' otherwise."""
    return "pure" if _COMPILED is None else "compiled"


def kernel_pairs(cfg: PointConfig) -> Optional[List[Tuple[int, int]]]:
    """The points as plain int tuples when the kernel's limits admit the
    configuration, or None when it has more than MAX_KERNEL_POINTS points,
    a non-integer coordinate, or one beyond COORD_LIMIT in magnitude.
    Whether the extension is built plays no part."""
    if cfg.v > MAX_KERNEL_POINTS:
        return None
    pairs = []
    for p in cfg.points:
        x, y = p.x, p.y
        if isinstance(x, Fraction):
            if x.denominator != 1:
                return None
            x = int(x)
        if isinstance(y, Fraction):
            if y.denominator != 1:
                return None
            y = int(y)
        if not isinstance(x, int) or not isinstance(y, int):
            return None
        if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
            return None
        pairs.append((x, y))
    return pairs


def stream_eligible(n: int, reach: int) -> bool:
    """True when the extension is loaded and takes every configuration of
    n distinct integer points with coordinates of magnitude at most
    reach: kernel_pairs' limits, decided once for the stream instead of
    per configuration. The extension itself rejects duplicate points,
    out-of-bound coordinates and too many points with ValueError."""
    return _COMPILED is not None and n <= MAX_KERNEL_POINTS and reach <= COORD_LIMIT


def analyze(cfg: PointConfig) -> dict:
    """The analysis record for cfg, from whichever backend applies."""
    if _COMPILED is not None and (pairs := kernel_pairs(cfg)) is not None:
        return _COMPILED.analyze_ints(pairs)
    return analyze_config(cfg)


def has_ordinary_line(cfg: PointConfig) -> bool:
    """True iff some stable line passes through exactly two points."""
    # below two points the pure route raises TooFewPoints
    if _COMPILED is not None and cfg.v >= 2 and (pairs := kernel_pairs(cfg)) is not None:
        return _COMPILED.has_ordinary_line(pairs)
    return len(ordinary_stable_lines(cfg)) > 0
