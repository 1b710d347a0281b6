"""Tropical line arrangements: vertices, dual cells, classification, counts.

An arrangement is an ordered list of distinct tropical lines. Its
arrangement vertices (points dual to 2D cells of the Newton subdivision)
are found by candidate generation: every line vertex and every
transversal ray crossing (together these cover every pairwise stable
intersection), filtered by the local 2D-cell criterion. That criterion
reads off the per-line argmax sets at the candidate q:

    c   = number of lines with vertex at q (0 or 1, vertices are distinct)
    s_a = number of lines with argmax {1,3} at q (q on their south ray;
          they contribute a horizontal edge conv{(0,0),(1,0)} to the cell)
    s_b = number of lines with argmax {2,3} (west ray; vertical edge)
    s_c = number of lines with argmax {1,2} (northeast ray; diagonal edge)

q is an arrangement vertex iff c = 1 or at least two of s_a, s_b, s_c are
nonzero. The dual cell is the Minkowski sum over all lines of the convex
hull of their argmax exponent sets (1 -> (1,0), 2 -> (0,1), 3 -> (0,0)),
so it is positioned absolutely inside n * Delta_2, and (c, s_a, s_b, s_c)
are exactly the cell-shape parameters: one triangle summand plus segments
of those three directions and lengths.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from .errors import DuplicateLine, EmptyArrangement, NotAVertex
from .lines import Point2, TropicalLine, eval_argmax, ray_crossings
from .rationals import Rational

LatticePoint = Tuple[int, int]

EXPONENTS: Dict[int, LatticePoint] = {1: (1, 0), 2: (0, 1), 3: (0, 0)}


# ---------------------------------------------------------------------------
# exact lattice-polygon helpers
# ---------------------------------------------------------------------------

def _cross3(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Iterable[Tuple]) -> List[Tuple]:
    """Corners of the convex hull in counterclockwise order.

    Collinear boundary points are dropped. Degenerate inputs return the
    distinct points (one for a point, two for a segment).
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross3(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross3(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all input points collinear
        return [pts[0], pts[-1]]
    return hull


def minkowski_sum(p: Sequence[Tuple], q: Sequence[Tuple]) -> List[Tuple]:
    """Convex Minkowski sum of two convex point sets (hull of pairwise sums)."""
    sums = {(a[0] + b[0], a[1] + b[1]) for a in p for b in q}
    return convex_hull(sums)


def doubled_area(poly: Sequence[Tuple]) -> Rational:
    """Twice the signed shoelace area; positive for counterclockwise."""
    total = 0
    m = len(poly)
    for i in range(m):
        a = poly[i]
        b = poly[(i + 1) % m]
        total += a[0] * b[1] - a[1] * b[0]
    return total


def polygon_edges(poly: Sequence[Tuple]) -> List[Tuple[Tuple, Tuple]]:
    m = len(poly)
    return [(poly[i], poly[(i + 1) % m]) for i in range(m)]


def canonical_ccw(poly: Sequence[Tuple]) -> Tuple[Tuple, ...]:
    """Rotate a counterclockwise vertex list to start at the lex-min vertex."""
    start = min(range(len(poly)), key=lambda i: poly[i])
    return tuple(poly[start:]) + tuple(poly[:start])


# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arrangement:
    lines: Tuple[TropicalLine, ...]

    @property
    def n(self) -> int:
        return len(self.lines)


def build_arrangement(lines: Sequence[TropicalLine]) -> Arrangement:
    """Validate distinctness (by vertex) and preserve order."""
    lines = tuple(lines)
    if not lines:
        raise EmptyArrangement("an arrangement needs at least one line")
    seen: Dict[Point2, int] = {}
    for i, line in enumerate(lines):
        if line.vertex in seen:
            raise DuplicateLine(seen[line.vertex], i)
        seen[line.vertex] = i
    return Arrangement(lines)


@dataclass(frozen=True)
class VertexData:
    """Per-line argmax data of the arrangement polynomial at one point."""

    point: Point2
    per_line_argmax: Tuple[FrozenSet[int], ...]
    c: int
    s_a: int
    s_b: int
    s_c: int

    @property
    def is_vertex(self) -> bool:
        """The local 2D-cell criterion."""
        nonzero = (self.s_a > 0) + (self.s_b > 0) + (self.s_c > 0)
        return self.c == 1 or nonzero >= 2


_ARGMAX_SLOT = {
    frozenset({1, 3}): "s_a",
    frozenset({2, 3}): "s_b",
    frozenset({1, 2}): "s_c",
}


def vertex_data(arr: Arrangement, q: Point2) -> VertexData:
    argmaxes = []
    c = s_a = s_b = s_c = 0
    for line in arr.lines:
        _, members = eval_argmax(line, q)
        argmaxes.append(members)
        if len(members) == 3:
            c += 1
        elif members == frozenset({1, 3}):
            s_a += 1
        elif members == frozenset({2, 3}):
            s_b += 1
        elif members == frozenset({1, 2}):
            s_c += 1
    return VertexData(q, tuple(argmaxes), c, s_a, s_b, s_c)


def candidate_points(arr: Arrangement) -> Set[Point2]:
    """Line vertices and ray crossings.

    These include every pairwise stable intersection: a coaxial pair's is
    one of its line vertices, a non-coaxial pair's is its single ray
    crossing.
    """
    candidates: Set[Point2] = {line.vertex for line in arr.lines}
    for L1, L2 in itertools.combinations(arr.lines, 2):
        candidates.update(ray_crossings(L1, L2))
    return candidates


def arrangement_vertices(arr: Arrangement) -> List[VertexData]:
    """All arrangement vertices, sorted lexicographically by point."""
    kept = []
    for q in candidate_points(arr):
        vd = vertex_data(arr, q)
        if vd.is_vertex:
            kept.append(vd)
    kept.sort(key=lambda vd: vd.point)
    return kept


class CellClass(enum.Enum):
    TRIANGLE = "Triangle"
    PARALLELOGRAM = "Parallelogram"
    HEXAGON = "Hexagon"
    NON_UNIFORM_4 = "NonUniform4"
    NON_UNIFORM_5 = "NonUniform5"
    NON_UNIFORM_6 = "NonUniform6"


SEMIUNIFORM = {CellClass.PARALLELOGRAM, CellClass.HEXAGON}
NON_UNIFORM = {CellClass.NON_UNIFORM_4, CellClass.NON_UNIFORM_5, CellClass.NON_UNIFORM_6}


def classify_cell(vd: VertexData) -> CellClass:
    """Face class from the (c, s_a, s_b, s_c) shape parameters.

    Triangles are lone line vertices; parallelograms and hexagons are the
    semiuniform faces (first-kind stable intersections); a line vertex
    with extra lines through it gives the non-uniform 4/5/6-edge faces
    (second kind).
    """
    if not vd.is_vertex:
        raise NotAVertex(f"{vd.point} fails the 2D-cell criterion")
    nonzero = (vd.s_a > 0) + (vd.s_b > 0) + (vd.s_c > 0)
    if vd.c == 1:
        if nonzero == 0:
            return CellClass.TRIANGLE
        return {
            1: CellClass.NON_UNIFORM_4,
            2: CellClass.NON_UNIFORM_5,
            3: CellClass.NON_UNIFORM_6,
        }[nonzero]
    if nonzero == 2:
        return CellClass.PARALLELOGRAM
    return CellClass.HEXAGON


@dataclass(frozen=True)
class CellPolygon:
    """A positioned 2D cell of the dual Newton subdivision."""

    vertices: Tuple[LatticePoint, ...]  # counterclockwise, lex-min first
    cell_class: CellClass
    dual_point: Point2

    @property
    def edge_count(self) -> int:
        return len(self.vertices)

    def doubled_area(self) -> int:
        return doubled_area(self.vertices)


def dual_cell(arr: Arrangement, vd: VertexData) -> CellPolygon:
    """Minkowski sum of the per-line argmax exponent hulls at vd.point."""
    if not vd.is_vertex:
        raise NotAVertex(f"{vd.point} fails the 2D-cell criterion")
    acc: List[Tuple] = [(0, 0)]
    for members in vd.per_line_argmax:
        summand = [EXPONENTS[m] for m in members]
        acc = minkowski_sum(acc, summand)
    return CellPolygon(canonical_ccw(acc), classify_cell(vd), vd.point)


@dataclass(frozen=True)
class Counts:
    n: int
    t: int
    triangles: int
    b: int
    k: int
    h: int


def verify_count_identities(counts: Counts) -> List[str]:
    """The count identities that hold for every arrangement; [] if all do."""
    problems = []
    if counts.t != counts.triangles + counts.b:
        problems.append(f"t != triangles + b: {counts}")
    if counts.b != counts.k + counts.h:
        problems.append(f"b != k + h: {counts}")
    if counts.h != counts.n - counts.triangles:
        problems.append(f"h != n - triangles: {counts}")
    if not (counts.n <= counts.t <= counts.n * (counts.n - 1) // 2 + counts.n):
        problems.append(f"t out of range [n, n(n-1)/2 + n]: {counts}")
    return problems


def counts_from_classes(n: int, classes: Iterable[CellClass]) -> Counts:
    classes = list(classes)
    t = len(classes)
    triangles = sum(1 for c in classes if c is CellClass.TRIANGLE)
    k = sum(1 for c in classes if c in SEMIUNIFORM)
    h = sum(1 for c in classes if c in NON_UNIFORM)
    return Counts(n=n, t=t, triangles=triangles, b=t - triangles, k=k, h=h)


def counts(arr: Arrangement) -> Counts:
    """Face counts of the arrangement; identities asserted."""
    classes = [classify_cell(vd) for vd in arrangement_vertices(arr)]
    result = counts_from_classes(arr.n, classes)
    problems = verify_count_identities(result)
    if problems:
        raise AssertionError("; ".join(problems))
    return result


def type_tuple(arr: Arrangement, q: Point2) -> Tuple[FrozenSet[int], ...]:
    """The tropical oriented matroid type of q: per-line argmax sets."""
    return tuple(eval_argmax(line, q)[1] for line in arr.lines)


def argmax_str(members: FrozenSet[int]) -> str:
    """Compact notation for an argmax set, e.g. {1,3} -> "13"."""
    return "".join(str(m) for m in sorted(members))
