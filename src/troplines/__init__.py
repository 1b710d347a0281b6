"""Exact computation with tropical line arrangements.

Stable tropical lines in the max-plus plane, stable intersections of
line pairs, dual Newton subdivisions of n * Delta_2 with face
classification, point-line duality with stable lines through point
configurations, and exhaustive or randomized verification sweeps for the
incidence bound b >= v - 3 (with the near-pencil characterization of
equality).
"""

from .arrangement import (
    Arrangement,
    CellClass,
    CellPolygon,
    Counts,
    VertexData,
    arrangement_vertices,
    build_arrangement,
    classify_cell,
    dual_cell,
    type_tuple,
)
from .errors import (
    BudgetExhausted,
    DuplicateLine,
    EmptyArrangement,
    EqualPoints,
    GridTooSmall,
    IdenticalLines,
    InputFormatError,
    InvalidSweep,
    NotATriangle,
    NotAVertex,
    RangeTooSmall,
    TilingFailure,
    TooFewPoints,
    TroplinesError,
)
from .incidence import (
    DbeVerdict,
    PointConfig,
    StableLineKind,
    StableLineRecord,
    dbe_check,
    dualize_points,
    ordinary_stable_lines,
    point_config,
    stable_lines_through,
)
from .lines import (
    IntersectionKind,
    Point2,
    StableIntersectionResult,
    TropicalLine,
    line_from_vertex,
    pairwise_stable_intersection,
)
from .subdivision import (
    DualSubdivision,
    determined_faces,
    dual_subdivision,
    is_near_pencil,
)
from .sweep import (
    Exhaustive,
    Random,
    SweepParams,
    SweepReport,
    run_sweep,
    sg_failure_search,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "BudgetExhausted",
    "CellClass",
    "CellPolygon",
    "Counts",
    "DbeVerdict",
    "DualSubdivision",
    "DuplicateLine",
    "EmptyArrangement",
    "EqualPoints",
    "Exhaustive",
    "GridTooSmall",
    "IdenticalLines",
    "InputFormatError",
    "IntersectionKind",
    "InvalidSweep",
    "NotATriangle",
    "NotAVertex",
    "Point2",
    "PointConfig",
    "Random",
    "RangeTooSmall",
    "StableIntersectionResult",
    "StableLineKind",
    "StableLineRecord",
    "SweepParams",
    "SweepReport",
    "TilingFailure",
    "TooFewPoints",
    "TropicalLine",
    "TroplinesError",
    "VertexData",
    "arrangement_vertices",
    "build_arrangement",
    "classify_cell",
    "dbe_check",
    "determined_faces",
    "dual_cell",
    "dual_subdivision",
    "dualize_points",
    "is_near_pencil",
    "line_from_vertex",
    "ordinary_stable_lines",
    "pairwise_stable_intersection",
    "point_config",
    "run_sweep",
    "sg_failure_search",
    "stable_lines_through",
    "type_tuple",
    "__version__",
]
