"""Point-side API: configurations, duality, stable lines, the bound check.

Everything here reduces to the line-side machinery through the duality
map phi(p) = the line with vertex -p, which preserves incidence. A
stable line through a point set corresponds to a stable intersection of
the dual arrangement, so the records returned by stable_lines_through
are computed there and translated back.

A stable line is vertex-witnessed when one of its incident points sits
at the line's vertex; otherwise it is the unique line through its
incident points. A single intersection point can arise from several
pairs of dual lines, with different kinds per pair, but the two notions
coincide on distinct points: the point equals some dual line's vertex
exactly when some pair meets there non-transversally. The implementation
asserts that equivalence on every run.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .arrangement import Arrangement, _sorted_buckets, build_arrangement
from .errors import EqualPoints, TooFewPoints
from .lines import (
    IntersectionKind,
    Point2,
    TropicalLine,
    contains,
    line_from_vertex,
    stable_intersections,
)
from .rationals import Rational
from .subdivision import dual_subdivision, is_near_pencil, point_text


@dataclass(frozen=True)
class PointConfig:
    points: Tuple[Point2, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise TooFewPoints("a point configuration needs at least one point")
        seen: Dict[Point2, int] = {}
        for index, p in enumerate(self.points):
            if p in seen:
                raise EqualPoints(
                    f"point {index} repeats point {seen[p]}: {point_text(p)}",
                    index=index,
                    earlier=seen[p],
                )
            seen[p] = index

    @property
    def v(self) -> int:
        return len(self.points)


def point_config(points: Sequence[Sequence[Rational]]) -> PointConfig:
    return PointConfig(tuple(Point2(p[0], p[1]) for p in points))


class StableLineKind(enum.Enum):
    UNIQUELY_DETERMINED = "UniquelyDetermined"
    VERTEX_WITNESSED = "VertexWitnessed"


@dataclass(frozen=True)
class StableLineRecord:
    line: TropicalLine
    incident: FrozenSet[int]
    kind: StableLineKind


@dataclass(frozen=True)
class DbeVerdict:
    v: int
    b: int
    bound_holds: bool
    equality: bool
    near_pencil: bool
    consistent: bool


def dualize_points(cfg: PointConfig) -> Arrangement:
    """The arrangement of lines dual to the points: vertex of line i is -p_i."""
    return build_arrangement(
        [line_from_vertex(Point2(-p.x, -p.y)) for p in cfg.points]
    )


def stable_lines_through(cfg: PointConfig) -> List[StableLineRecord]:
    """All stable lines determined by the configuration, one per distinct
    stable intersection of the dual arrangement, sorted by line vertex."""
    if cfg.v < 2:
        raise TooFewPoints(f"need at least 2 points, got {cfg.v}")
    return _stable_lines(cfg, dualize_points(cfg))


def _stable_lines(cfg: PointConfig, arr: Arrangement) -> List[StableLineRecord]:
    """stable_lines_through, given the arrangement dual to cfg."""
    kinds_seen = stable_intersections(arr.lines)
    dual_vertices = {line.vertex for line in arr.lines}
    # line i passes through q at its vertex or on one of its rays: the
    # south ray when its vertex is above q, the west ray when it is right
    # of q, the northeast ray when it is left of q on the diagonal. So the
    # vertices are bucketed by x, by y and by x - y, each bucket sorted.
    vertices = list(enumerate(line.vertex for line in arr.lines))
    by_x = _sorted_buckets((a, (b, i)) for i, (a, b) in vertices)
    by_y = _sorted_buckets((b, (a, i)) for i, (a, b) in vertices)
    by_d = _sorted_buckets((a - b, (a, i)) for i, (a, b) in vertices)
    empty: List[Tuple[Rational, int]] = []
    first = itemgetter(0)
    records = []
    for q, kinds in kinds_seen.items():
        witnessed = q in dual_vertices
        assert witnessed == (IntersectionKind.SECOND in kinds), (
            f"kind bookkeeping mismatch at {q}: vertex coincidence {witnessed}, "
            f"pair kinds {kinds}"
        )
        x, y = q
        column = by_x.get(x, empty)
        row = by_y.get(y, empty)
        diagonal = by_d.get(x - y, empty)
        incident = frozenset(
            i
            for _, i in itertools.chain(
                column[bisect_left(column, y, key=first):],
                row[bisect_right(row, x, key=first):],
                diagonal[:bisect_left(diagonal, x, key=first)],
            )
        )
        assert len(incident) >= 2, f"stable point {q} incident to {incident}"
        record = StableLineRecord(
            line=line_from_vertex(Point2(-q.x, -q.y)),
            incident=incident,
            kind=(
                StableLineKind.VERTEX_WITNESSED
                if witnessed
                else StableLineKind.UNIQUELY_DETERMINED
            ),
        )
        for i in record.incident:
            assert contains(record.line, cfg.points[i]), (
                f"record line {record.line.vertex} misses incident point {i}"
            )
        records.append(record)
    records.sort(key=lambda r: (r.line.vertex.x, r.line.vertex.y))
    return records


def ordinary_stable_lines(cfg: PointConfig) -> List[StableLineRecord]:
    """Stable lines incident to exactly two of the points."""
    return [r for r in stable_lines_through(cfg) if len(r.incident) == 2]


def cramer_stable_line(
    p1: Point2, p2: Point2
) -> Tuple[Tuple[Rational, Rational, Rational], TropicalLine]:
    """The Cramer triple (|O1| : |O2| : |O3|) of the two-point system and
    the stable line it gives.

    The 2x3 system has rows (p.x, p.y, 0); |Oi| is the tropical permanent
    max(a + d, b + c) of the 2x2 minor without column i. The triple gives
    the line's coefficients, and the vertex is read off as usual.
    """
    if p1 == p2:
        raise EqualPoints(f"both points are {point_text(p1)}")
    o1 = max(p1.y, p2.y)
    o2 = max(p1.x, p2.x)
    o3 = max(p1.x + p2.y, p1.y + p2.x)
    line = line_from_vertex(Point2(o3 - o1, o3 - o2))
    assert contains(line, p1) and contains(line, p2), (
        f"Cramer line {point_text(line.vertex)} misses an input point {point_text(p1)}, "
        f"{point_text(p2)}"
    )
    return (o1, o2, o3), line


def dbe_check(cfg: PointConfig) -> DbeVerdict:
    """The incidence-bound verdict for a configuration of at least 4 points.

    b is the number of distinct stable lines; the bound is b >= v - 3,
    and when it is attained the dual subdivision must be a near-pencil.
    The point-side verdict (stable_lines_through and the subdivision),
    independent of the analysis that `troplines analyze` reports.
    """
    if cfg.v < 4:
        raise TooFewPoints(f"the bound is stated for v >= 4, got {cfg.v}")
    arr = dualize_points(cfg)
    near_pencil = is_near_pencil(dual_subdivision(arr))
    b = len(_stable_lines(cfg, arr))
    equality = b == cfg.v - 3
    return DbeVerdict(
        v=cfg.v,
        b=b,
        bound_holds=b >= cfg.v - 3,
        equality=equality,
        near_pencil=near_pencil,
        consistent=(not equality) or near_pencil,
    )
