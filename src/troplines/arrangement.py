"""Tropical line arrangements: vertices, dual cells, classification, counts.

An arrangement is an ordered list of distinct tropical lines. Its
arrangement vertices (points dual to 2D cells of the Newton subdivision)
are found by candidate generation: every line vertex and every
transversal ray crossing (together these cover every pairwise stable
intersection), filtered by the local 2D-cell criterion. With q = (x, y),
a line with vertex (a, b) and d = a - b, the criterion counts

    c   = number of lines with vertex at q (0 or 1, vertices are distinct)
    s_a = lines with a = x and b > y (q on their south ray, argmax {1,3};
          they contribute a horizontal edge conv{(0,0),(1,0)} to the cell)
    s_b = lines with b = y and a > x (west ray, argmax {2,3}; vertical edge)
    s_c = lines with d = x - y and a < x (northeast ray, argmax {1,2};
          diagonal edge)

q is an arrangement vertex iff c = 1 or at least two of s_a, s_b, s_c are
nonzero. The dual cell is the Minkowski sum over all lines of the convex
hull of their argmax exponent sets (1 -> (1,0), 2 -> (0,1), 3 -> (0,0)),
so it is positioned absolutely inside n * Delta_2, and (c, s_a, s_b, s_c)
are exactly the cell-shape parameters: one triangle summand plus segments
of those three directions and lengths. The rest of the lines only shift
the cell: those with argmax {1} (a < x and d < x - y) by one along x,
those with argmax {2} (b < y and d > x - y) by one along y. dual_cell
walks the boundary of the sum directly from these six numbers.

None of the counts looks at every line. The lines are bucketed once per
arrangement by a, by b and by d, each bucket sorted, so the shape
parameters are bisections; the shift counts are read from two rank-prefix
tables, O(n^2) to build and O(log n) per candidate.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import add
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from .errors import DuplicateLine, EmptyArrangement, NotAVertex
from .lines import Point2, TropicalLine, eval_argmax, ray_crossings
from .rationals import Rational

LatticePoint = Tuple[int, int]


# ---------------------------------------------------------------------------
# exact lattice-polygon helpers
# ---------------------------------------------------------------------------

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
    """The cell-shape parameters and shift counts of the arrangement at one
    point: only_x lines have argmax {1} there and only_y lines argmax {2}."""

    point: Point2
    c: int
    s_a: int
    s_b: int
    s_c: int
    only_x: int
    only_y: int

    @property
    def is_vertex(self) -> bool:
        """The local 2D-cell criterion."""
        nonzero = (self.s_a > 0) + (self.s_b > 0) + (self.s_c > 0)
        return self.c == 1 or nonzero >= 2


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


def _sorted_buckets(pairs: Iterable[Tuple[Rational, Rational]]) -> Dict[Rational, List[Rational]]:
    """key -> the sorted values paired with it."""
    buckets: Dict[Rational, List[Rational]] = {}
    for key, value in pairs:
        buckets.setdefault(key, []).append(value)
    for values in buckets.values():
        values.sort()
    return buckets


def _dominance_counter(pairs: Sequence[Tuple[Rational, Rational]]):
    """A function (u0, v0) -> #{(u, v) in pairs : u < u0 and v < v0}.

    table[i][j] counts the pairs whose u is among the i smallest distinct
    u values and whose v is among the j smallest distinct v values, so a
    query is two bisections into those values.
    """
    us = sorted({u for u, _ in pairs})
    vs = sorted({v for _, v in pairs})
    table = [[0] * (len(vs) + 1) for _ in range(len(us) + 1)]
    for u, v in pairs:
        table[bisect_left(us, u) + 1][bisect_left(vs, v) + 1] += 1
    for i in range(1, len(table)):
        table[i] = list(map(add, itertools.accumulate(table[i]), table[i - 1]))

    def below(u0: Rational, v0: Rational) -> int:
        return table[bisect_left(us, u0)][bisect_left(vs, v0)]

    return below


def arrangement_vertices(arr: Arrangement) -> List[VertexData]:
    """All arrangement vertices, sorted lexicographically by point."""
    vertices = {line.vertex for line in arr.lines}
    by_a = _sorted_buckets((a, b) for a, b in vertices)
    by_b = _sorted_buckets((b, a) for a, b in vertices)
    by_d = _sorted_buckets((a - b, a) for a, b in vertices)
    # argmax {1}: a < x and a - b < x - y; argmax {2}: b < y and b - a < y - x
    only_x = _dominance_counter([(a, a - b) for a, b in vertices])
    only_y = _dominance_counter([(b, b - a) for a, b in vertices])
    empty: List[Rational] = []
    kept = []
    for q in candidate_points(arr):
        x, y = q
        column = by_a.get(x, empty)
        row = by_b.get(y, empty)
        vd = VertexData(
            q,
            int(q in vertices),
            len(column) - bisect_right(column, y),
            len(row) - bisect_right(row, x),
            bisect_left(by_d.get(x - y, empty), x),
            only_x(x, x - y),
            only_y(y, y - x),
        )
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

    def doubled_area(self) -> int:
        return doubled_area(self.vertices)


def dual_cell(vd: VertexData) -> CellPolygon:
    """The cell dual to vd.point, walked along its edges.

    The cell is the Minkowski sum over the lines of the hulls of their
    argmax exponent sets: the lines with argmax {1} or {2} shift it by
    one unit each along x or y, the line with its vertex at the point
    adds a unit triangle, and the s_a, s_b, s_c lines add unit H, V and
    D segments. So the lex-min corner is (only_x, only_y + s_c), and from
    there the counterclockwise boundary steps SE s_c, E s_a + c, N s_b,
    NW s_c + c, W s_a and S s_b + c, skipping steps of zero length.
    """
    x = vd.only_x
    y = vd.only_y + vd.s_c
    corners = []
    for (dx, dy), length in (
        ((1, -1), vd.s_c),
        ((1, 0), vd.s_a + vd.c),
        ((0, 1), vd.s_b),
        ((-1, 1), vd.s_c + vd.c),
        ((-1, 0), vd.s_a),
        ((0, -1), vd.s_b + vd.c),
    ):
        if length:
            corners.append((x, y))
            x += dx * length
            y += dy * length
    return CellPolygon(tuple(corners), classify_cell(vd), vd.point)


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


def type_tuple(arr: Arrangement, q: Point2) -> Tuple[FrozenSet[int], ...]:
    """The tropical oriented matroid type of q: per-line argmax sets."""
    return tuple(eval_argmax(line, q)[1] for line in arr.lines)


def argmax_str(members: FrozenSet[int]) -> str:
    """Compact notation for an argmax set, e.g. {1,3} -> "13"."""
    return "".join(str(m) for m in sorted(members))
