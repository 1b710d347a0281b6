"""Tropical lines in the plane: vertex/ray geometry and stable intersections.

A tropical line is the hypersurface of max(a+x, b+y, c): a vertex at
(c-a, c-b) with three closed rays in the primitive directions (-1,0)
(west), (0,-1) (south) and (1,1) (northeast). Lines are stored by their
vertex, which determines them; the coefficient view is normalized to
c = 0, a = -vertex.x, b = -vertex.y.

Membership bookkeeping is by argmax sets over the three terms, indexed
1 (x-term), 2 (y-term), 3 (constant): |argmax| = 3 exactly at the vertex,
2 on the open rays, 1 off the line. A point sits on the south ray iff its
argmax is {1,3}, on the west ray iff {2,3}, on the northeast ray iff
{1,2}.

Two distinct lines meet in a single point unless their vertices are
coaxial (same y, same x, or difference parallel to (1,1)), in which case
they overlap along a ray and the stable intersection is the one vertex
that lies on the other line. The closed-form rule is derived from the
perturbation definition, which the tests keep as an oracle.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, NamedTuple, Sequence, Set, Tuple

from .errors import EqualPoints, IdenticalLines
from .rationals import Rational


class Point2(NamedTuple):
    x: Rational
    y: Rational


class TropicalLine(NamedTuple):
    vertex: Point2

    @property
    def coefficients(self) -> Tuple[Rational, Rational, Rational]:
        """Normalized (a, b, c) with c = 0."""
        return (-self.vertex.x, -self.vertex.y, 0)


def line_from_vertex(v: Point2) -> TropicalLine:
    return TropicalLine(Point2(*v))


def eval_argmax(L: TropicalLine, q: Point2) -> Tuple[Rational, FrozenSet[int]]:
    """Value and argmax set of the normalized polynomial at q.

    Terms are (q.x - v.x, q.y - v.y, 0) for vertex v.
    """
    t1 = q.x - L.vertex.x
    t2 = q.y - L.vertex.y
    value = t1 if t1 >= t2 else t2
    if value < 0:
        value = 0
    members = []
    if t1 == value:
        members.append(1)
    if t2 == value:
        members.append(2)
    if value == 0:
        members.append(3)
    return value, frozenset(members)


def contains(L: TropicalLine, q: Point2) -> bool:
    """q lies on L iff the maximum is attained at least twice."""
    _, members = eval_argmax(L, q)
    return len(members) >= 2


def coaxial_points(p: Point2, q: Point2) -> bool:
    """Whether two distinct points share a ray axis: equal y, equal x or
    difference parallel to (1,1)."""
    if p == q:
        raise EqualPoints(f"coaxial_points needs distinct points, got {p}")
    return p.y == q.y or p.x == q.x or p.x - q.x == p.y - q.y


class IntersectionKind(enum.Enum):
    FIRST = "FirstKind"
    SECOND = "SecondKind"


class StableIntersectionResult(NamedTuple):
    point: Point2
    kind: IntersectionKind


def ray_crossings(L1: TropicalLine, L2: TropicalLine) -> Set[Point2]:
    """All transversal crossing points between rays of the two lines.

    For non-coaxial vertices this is exactly one point. Coaxial pairs
    yield the endpoints of ray overlaps that happen to be transversal
    crossings too (possibly none).

    Rays are closed. Parallel rays never cross here, even when collinear:
    the endpoints of such an overlap are line vertices, which callers
    treat in their own right. That leaves the six pairs of rays in
    different directions, each crossing at a corner read off the two
    vertices (a1, b1), (a2, b2) with d = a - b.
    """
    a1, b1 = L1.vertex
    a2, b2 = L2.vertex
    d1 = a1 - b1
    d2 = a2 - b2
    points: Set[Point2] = set()
    if a2 <= a1 and b1 <= b2:  # west ray of L1, south ray of L2
        points.add(Point2(a2, b1))
    if a1 <= a2 and b2 <= b1:  # south ray of L1, west ray of L2
        points.add(Point2(a1, b2))
    if b2 <= b1 and d2 <= d1:  # west ray of L1, northeast ray of L2
        points.add(Point2(a2 + b1 - b2, b1))
    if b1 <= b2 and d1 <= d2:  # northeast ray of L1, west ray of L2
        points.add(Point2(a1 + b2 - b1, b2))
    if a2 <= a1 and d1 <= d2:  # south ray of L1, northeast ray of L2
        points.add(Point2(a1, b2 + a1 - a2))
    if a1 <= a2 and d2 <= d1:  # northeast ray of L1, south ray of L2
        points.add(Point2(a2, b1 + a2 - a1))
    return points


def pairwise_stable_intersection(L1: TropicalLine, L2: TropicalLine) -> StableIntersectionResult:
    """The unique stable intersection of two distinct tropical lines.

    Non-coaxial vertices: the single transversal crossing, first kind.
    Coaxial vertices: the lines overlap along a ray and the stable point
    is the vertex that lies on the other line (exactly one does), second
    kind.
    """
    v1, v2 = L1.vertex, L2.vertex
    if v1 == v2:
        raise IdenticalLines(f"both lines have vertex {v1}")
    if not coaxial_points(v1, v2):
        crossings = ray_crossings(L1, L2)
        if len(crossings) != 1:
            raise AssertionError(
                f"non-coaxial lines {v1}, {v2} produced crossings {sorted(crossings)}"
            )
        point = crossings.pop()
        if point == v1 or point == v2:
            raise AssertionError(
                f"transversal crossing of {v1}, {v2} landed on a vertex: {point}"
            )
        return StableIntersectionResult(point, IntersectionKind.FIRST)
    on_other = [v for v, other in ((v1, L2), (v2, L1)) if contains(other, v)]
    if len(on_other) != 1:
        raise AssertionError(
            f"coaxial pair {v1}, {v2}: expected exactly one vertex on the other line, got {on_other}"
        )
    return StableIntersectionResult(on_other[0], IntersectionKind.SECOND)


def stable_intersections(
    lines: Sequence[TropicalLine],
) -> Dict[Point2, Set[IntersectionKind]]:
    """Each distinct stable intersection of a pair of the lines, with the
    kinds of the pairs that meet there."""
    found: Dict[Point2, Set[IntersectionKind]] = {}
    for i, L1 in enumerate(lines):
        for L2 in lines[i + 1:]:
            result = pairwise_stable_intersection(L1, L2)
            found.setdefault(result.point, set()).add(result.kind)
    return found
