"""Exact computation with tropical line arrangements.

Stable tropical lines in the max-plus plane, stable intersections of
line pairs, dual Newton subdivisions of n * Delta_2 with face
classification, point-line duality with stable lines through point
configurations, and exhaustive or randomized verification sweeps for the
incidence bound b >= v - 3 (with the near-pencil characterization of
equality).

Every name in __all__ is importable from here, but each is loaded from
its submodule on first access (PEP 562), so importing the package, or
troplines.cli for a compiled sweep, does not load the pure geometry.
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each exported name
_EXPORTS = {
    name: module
    for module, names in {
        "arrangement": (
            "Arrangement", "CellClass", "CellPolygon", "Counts", "VertexData",
            "arrangement_vertices", "build_arrangement", "classify_cell", "dual_cell",
            "type_tuple",
        ),
        "errors": (
            "BudgetExhausted", "DuplicateLine", "EmptyArrangement", "EqualPoints",
            "GridTooSmall", "IdenticalLines", "InputFormatError", "InvalidSweep",
            "NotATriangle", "NotAVertex", "RangeTooSmall", "TilingFailure", "TooFewPoints",
            "TroplinesError",
        ),
        "incidence": (
            "DbeVerdict", "PointConfig", "StableLineKind", "StableLineRecord", "dbe_check",
            "dualize_points", "ordinary_stable_lines", "point_config", "stable_lines_through",
        ),
        "lines": (
            "IntersectionKind", "Point2", "StableIntersectionResult", "TropicalLine",
            "line_from_vertex", "pairwise_stable_intersection",
        ),
        "subdivision": (
            "DualSubdivision", "determined_faces", "dual_subdivision", "is_near_pencil",
        ),
        "sweep": (
            "Exhaustive", "Random", "SweepParams", "SweepReport", "run_sweep",
            "sg_failure_search",
        ),
    }.items()
    for name in names
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
