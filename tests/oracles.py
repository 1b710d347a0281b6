"""Reference constructions, global-scan checks and specs, small n only.

The library reads each arrangement vertex's shape parameters and shift
counts from sorted buckets of the line vertices. The vertex reference
evaluates every line's argmax set at the point instead, O(n) per point.
The library finds ray crossings by a closed form over the six pairs of
non-parallel rays; the crossing reference solves all nine ray pairs as
generic 2x2 systems.

The library walks each dual cell along its edges from the cell's shape
parameters. The Minkowski reference builds the same cell the direct
way, as successive convex hulls of pairwise sums of the per-line
argmax exponent sets, and reads nothing but those sets.

The library validates a subdivision through its unit-triangle owner
grid, its only adjacency structure: tiling by rasterization, regularity
in one scan of the grid (each cell's fit at the corners of its unit
triangles, and dominance at one vertex across each edge between two
cells), and a triangle's edge neighbours as the owners of the three
downward unit triangles around it. These are the direct scans it
replaced, kept as independent oracles for the tests:

  * tiling: pairwise separating axes between all cells, O(cells^2),
    and each cell's unit triangles by the centroid rule, every candidate
    of its bounding box tested against every edge, where the library
    reads them off the row extents;
  * regularity: each cell's affine fit against the lift at every lattice
    point of n * Delta_2, O(cells * n^2);
  * determined faces: every cell tested against each triangle, with
    positive-length edge sharing and the corner-slot templates matched
    directly.

Each scan reads only the cells and the lift, never the owner grid of
the subdivision under test.

The stable intersection of two tropical lines is checked against its
definition, the limit of transversal intersections under perturbation.
Helpers the library itself no longer needs (the boolean regularity
check, the corner-triangle test, the determined-union count, the face
counts of an arrangement, the duality incidence check and point
arithmetic) live here for the tests
that pin them. The library finds the lines through each stable point
from buckets of the line vertices; incident_lines_scan evaluates every
line's argmax there.
A sweep's JSONL line is specified as the json.dumps of its record, which
the library writes out directly; SUITES names the suites its violations
are tagged with. coordinate_sets draws the distinct
points (or line vertices) that the route checks run on.
"""

import json
import math
from fractions import Fraction

from hypothesis import strategies as st

from troplines.arrangement import (
    SEMIUNIFORM,
    CellClass,
    VertexData,
    arrangement_vertices,
    candidate_points,
    classify_cell,
    counts_from_classes,
    polygon_edges,
    verify_count_identities,
)
from troplines.errors import IdenticalLines, TilingFailure, TroplinesError
from troplines.lines import (
    Point2,
    TropicalLine,
    coaxial_points,
    contains,
    eval_argmax,
    line_from_vertex,
)
from troplines.subdivision import (
    boundary_edge_count,
    check_regularity_detailed,
    determined_faces,
    triangle_base,
)


RAY_DIRECTIONS = (Point2(-1, 0), Point2(0, -1), Point2(1, 1))  # W, S, NE


class NotTransversal(TroplinesError):
    """A perturbed line pair is still degenerate for the chosen direction."""


def point_add(p, q):
    return Point2(p.x + q.x, p.y + q.y)


def point_sub(p, q):
    return Point2(p.x - q.x, p.y - q.y)


def point_scale(p, factor):
    return Point2(p.x * factor, p.y * factor)


def _cross(p, q):
    return p.x * q.y - p.y * q.x


def _ray_crossing(v, d, w, e):
    """Intersection point of the closed rays v + t d and w + s e, or None
    when they miss or are parallel."""
    denom = _cross(d, e)
    if denom == 0:
        return None
    # any two distinct directions among W, S and NE have cross product
    # +1 or -1, so dividing by denom is multiplying by it
    delta = point_sub(w, v)
    t = _cross(delta, e) * denom
    s = _cross(delta, d) * denom
    if t < 0 or s < 0:
        return None
    return point_add(v, point_scale(d, t))


@st.composite
def coordinate_sets(draw, max_size):
    """Up to max_size distinct coordinate pairs. Spreads 1-3 put many
    pairs on a common axis and can fill the whole grid; spread 1000 puts
    almost none; a denominator above 1 makes them rational."""
    spread = draw(st.sampled_from([1, 2, 3, 1000]))
    denominator = draw(st.sampled_from([1, 1, 2, 3]))
    if spread <= 3:
        grid = [(x, y) for x in range(-spread, spread + 1)
                for y in range(-spread, spread + 1)]
        size = draw(st.integers(1, min(max_size, len(grid))))
        chosen = draw(st.permutations(grid))[:size]
    else:
        size = draw(st.integers(1, max_size))
        coordinate = st.integers(-spread, spread)
        chosen = draw(st.lists(st.tuples(coordinate, coordinate),
                               min_size=size, max_size=size, unique=True))
    if denominator == 1:
        return chosen
    return [(Fraction(x, denominator), Fraction(y, denominator)) for x, y in chosen]


def generic_ray_crossings(L1, L2):
    """Transversal ray crossings of two lines, by trying all nine ray pairs."""
    points = set()
    for d in RAY_DIRECTIONS:
        for e in RAY_DIRECTIONS:
            hit = _ray_crossing(L1.vertex, d, L2.vertex, e)
            if hit is not None:
                points.add(hit)
    return points


def vertex_data(arr, q):
    """VertexData at q from every line's argmax set there."""
    tally = {}
    for line in arr.lines:
        members = eval_argmax(line, q)[1]
        tally[members] = tally.get(members, 0) + 1
    return VertexData(
        q,
        c=tally.get(frozenset({1, 2, 3}), 0),
        s_a=tally.get(frozenset({1, 3}), 0),
        s_b=tally.get(frozenset({2, 3}), 0),
        s_c=tally.get(frozenset({1, 2}), 0),
        only_x=tally.get(frozenset({1}), 0),
        only_y=tally.get(frozenset({2}), 0),
    )


def arrangement_vertices_scan(arr):
    """The candidates that pass the 2D-cell criterion, each scanned over
    every line, sorted by point."""
    found = [vertex_data(arr, q) for q in candidate_points(arr)]
    return sorted((vd for vd in found if vd.is_vertex), key=lambda vd: vd.point)


def check_regularity(sub):
    ok, _ = check_regularity_detailed(sub)
    return ok


def is_corner_triangle(cell, n):
    """Triangles with two (or, when n = 1, three) boundary edges."""
    return cell.cell_class is CellClass.TRIANGLE and boundary_edge_count(cell, n) >= 2


def counts(arr):
    """Face counts of the arrangement from its cell classes; identities
    asserted."""
    result = counts_from_classes(
        arr.n, [classify_cell(vd) for vd in arrangement_vertices(arr)])
    problems = verify_count_identities(result)
    if problems:
        raise AssertionError("; ".join(problems))
    return result


def determined_union_count(sub):
    """Size of the union of determined faces over non-corner triangles."""
    union = set()
    for T in sub.cells:
        if T.cell_class is CellClass.TRIANGLE and not is_corner_triangle(T, sub.n):
            for S in determined_faces(sub, T):
                union.add(S.vertices)
    return len(union)


def incidence_preserved(p, q):
    """Whether p lies on the line dual to q; symmetric in p and q."""
    forward = contains(line_from_vertex(Point2(-q.x, -q.y)), p)
    backward = contains(line_from_vertex(Point2(-p.x, -p.y)), q)
    assert forward == backward, f"duality broke incidence symmetry at {p}, {q}"
    return forward


def perturbed_intersection_oracle(L1, L2, eps, direction):
    """Transversal intersection of L1 with L2 shifted by eps * direction.

    The stable point is the limit of these as eps tends to 0 over valid
    directions.
    """
    if L1.vertex == L2.vertex:
        raise IdenticalLines(f"both lines have vertex {L1.vertex}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    shifted_vertex = point_add(L2.vertex, point_scale(direction, eps))
    if shifted_vertex == L1.vertex or coaxial_points(L1.vertex, shifted_vertex):
        raise NotTransversal(
            f"shift {direction} by {eps} leaves vertices {L1.vertex}, {shifted_vertex} degenerate"
        )
    crossings = generic_ray_crossings(L1, TropicalLine(shifted_vertex))
    if len(crossings) != 1:
        raise AssertionError(
            f"perturbed pair {L1.vertex}, {shifted_vertex} produced crossings {sorted(crossings)}"
        )
    return crossings.pop()


def incident_lines_scan(arr, q):
    """The indices of the lines through q, by evaluating every line's
    argmax set there: q is on a line where two or more terms attain it."""
    return frozenset(
        i for i, line in enumerate(arr.lines) if len(eval_argmax(line, q)[1]) >= 2
    )


def lines_through_point(lines, q):
    """Indices of the lines containing q."""
    return [i for i, line in enumerate(lines) if contains(line, q)]


# the invariant suites of analysis records, each violation tagged with one
SUITES = frozenset(
    {
        "bound",
        "near_pencil",
        "cross_oracle",
        "count_identities",
        "tiling",
        "regularity",
        "max_triangles",
        "determined_union",
        "determined_minimum",
        "unit_parallelogram",
    }
)


def sweep_line_spec(index, config, excess, violations):
    """One JSONL line of a sweep stream, as json.dumps writes the record."""
    return json.dumps(
        {
            "index": index,
            "config": [[x, y] for x, y in config],
            "excess": excess,
            "violations": [[suite, detail] for suite, detail in violations],
        },
        separators=(",", ":"),
        sort_keys=True,
    )


def _cross3(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


EXPONENTS = {1: (1, 0), 2: (0, 1), 3: (0, 0)}


def convex_hull(points):
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


def minkowski_sum(p, q):
    """Convex Minkowski sum of two convex point sets (hull of pairwise sums)."""
    return convex_hull({(a[0] + b[0], a[1] + b[1]) for a in p for b in q})


def canonical_ccw(poly):
    """Rotate a counterclockwise vertex list to start at the lex-min vertex."""
    start = min(range(len(poly)), key=lambda i: poly[i])
    return tuple(poly[start:]) + tuple(poly[:start])


def minkowski_cell(argmaxes):
    """Corners of the cell whose lines have these argmax sets, as the
    Minkowski sum of the per-line argmax exponent hulls: counterclockwise,
    lex-min first."""
    acc = [(0, 0)]
    for members in argmaxes:
        acc = minkowski_sum(acc, [EXPONENTS[m] for m in members])
    return canonical_ccw(acc)


def contains_point(poly, pt):
    """Closed containment in a counterclockwise convex polygon."""
    for a, b in polygon_edges(poly):
        if _cross3(a, b, pt) < 0:
            return False
    return True


def lattice_points(poly):
    """All integer points inside or on a convex lattice polygon."""
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    found = []
    for i in range(min(xs), max(xs) + 1):
        for j in range(min(ys), max(ys) + 1):
            if contains_point(poly, (i, j)):
                found.append((i, j))
    return found


def simplex_lattice_points(n):
    """All lattice points of n * Delta_2: i, j >= 0, i + j <= n."""
    return [(i, j) for i in range(n + 1) for j in range(n + 1 - i)]


def interiors_disjoint(p, q):
    """Exact separating-axis test for two counterclockwise convex polygons.

    True iff the interiors do not meet, i.e. the intersection has area 0.
    Convex polygons with disjoint interiors always admit a separating line
    flush with an edge of one of them, so testing edge lines of both is
    complete, and it needs only integer cross products on lattice cells.
    """
    for poly, other in ((p, q), (q, p)):
        for a, b in polygon_edges(poly):
            if all(_cross3(a, b, v) <= 0 for v in other):
                return True
    return False


def shares_edge(p, q):
    """True iff the two cells meet along a segment of positive length."""
    for a, b in polygon_edges(p.vertices):
        dx, dy = b[0] - a[0], b[1] - a[1]
        length2 = dx * dx + dy * dy
        for c, d in polygon_edges(q.vertices):
            if (c[0] - a[0]) * dy != (c[1] - a[1]) * dx:
                continue
            if (d[0] - a[0]) * dy != (d[1] - a[1]) * dx:
                continue
            tc = (c[0] - a[0]) * dx + (c[1] - a[1]) * dy
            td = (d[0] - a[0]) * dx + (d[1] - a[1]) * dy
            lo, hi = min(tc, td), max(tc, td)
            if min(hi, length2) > max(lo, 0):
                return True
    return False


def tiling_scan(n, cells):
    """The cells lie in n * Delta_2, their areas sum to n^2 / 2, and no
    two interiors meet; raises TilingFailure otherwise."""
    for cell in cells:
        for (i, j) in cell.vertices:
            if i < 0 or j < 0 or i + j > n:
                raise TilingFailure(
                    f"cell at {cell.dual_point} leaves {n}*Delta_2 at ({i},{j})"
                )
    total = sum(cell.doubled_area() for cell in cells)
    if total != n * n:
        raise TilingFailure(
            f"cell areas sum to {total}/2, expected {n * n}/2 for n={n}"
        )
    for idx, p in enumerate(cells):
        for q in cells[idx + 1:]:
            if not interiors_disjoint(p.vertices, q.vertices):
                raise TilingFailure(
                    f"cells at {p.dual_point} and {q.dual_point} overlap"
                )


def unit_triangles_by_centroid(cell):
    """The unit triangles (i, j, down) of the cell's bounding box whose
    centroids lie strictly inside the cell, each centroid tested against
    every edge in coordinates scaled by 3, so exactly."""
    xs = [x for x, _ in cell.vertices]
    ys = [y for _, y in cell.vertices]
    edges = [(3 * ax, 3 * ay, bx - ax, by - ay)
             for (ax, ay), (bx, by) in polygon_edges(cell.vertices)]
    return [(i, j, down)
            for j in range(min(ys), max(ys))
            for i in range(min(xs), max(xs))
            for down in (0, 1)
            if all(ux * (3 * j + 1 + down - ey) - uy * (3 * i + 1 + down - ex) > 0
                   for ex, ey, ux, uy in edges)]


def regularity_scan(n, cells, lift):
    """(ok, diagnostic): each cell's affine fit exists, equals the lift on
    the cell's lattice points and dominates it on all of n * Delta_2."""
    domain = simplex_lattice_points(n)
    for cell in cells:
        v0, v1, v2 = cell.vertices[0], cell.vertices[1], cell.vertices[2]
        det = (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v2[0] - v0[0]) * (v1[1] - v0[1])
        if det <= 0:
            return False, f"cell at {cell.dual_point} is not counterclockwise"
        h0, h1, h2 = lift[v0], lift[v1], lift[v2]
        beta = (h1 - h0) * (v2[1] - v0[1]) - (h2 - h0) * (v1[1] - v0[1])
        gamma = (v1[0] - v0[0]) * (h2 - h0) - (v2[0] - v0[0]) * (h1 - h0)
        alpha = det * h0 - beta * v0[0] - gamma * v0[1]
        for point in domain:
            lifted = det * lift[point]
            affine = alpha + beta * point[0] + gamma * point[1]
            if contains_point(cell.vertices, point):
                if affine != lifted:
                    return False, (
                        f"cell at {cell.dual_point}: lift and affine fit disagree "
                        f"at lattice point {point}"
                    )
            elif affine < lifted:
                return False, (
                    f"cell at {cell.dual_point}: affine fit fails to dominate "
                    f"the lift at {point}"
                )
    return True, None


_H, _V, _D = (1, 0), (0, 1), (-1, 1)


def _edge_classes(cell):
    """Edge directions as primitive vectors with one sign per class."""
    classes = set()
    for a, b in polygon_edges(cell.vertices):
        dx, dy = b[0] - a[0], b[1] - a[1]
        g = math.gcd(dx, dy)
        dx, dy = dx // g, dy // g
        if dy < 0 or (dy == 0 and dx < 0):
            dx, dy = -dx, -dy
        classes.add((dx, dy))
    return classes


def _matches_corner_pattern(S, base):
    """Does parallelogram S sit in one of the three corner slots of the
    triangle with right-angle corner `base`?

    The slots, with p = base, s and t arbitrary positive lattice lengths:

      at p          spanned by (-1,0) and (0,-1): the axis rectangle whose
                    maximal corner is p;
      at p + (0,1)  spanned by (0,1) and (-1,1): anchored at its corner of
                    maximal x and, among those, minimal y;
      at p + (1,0)  spanned by (1,0) and (1,-1): anchored at its corner of
                    minimal x.

    The library states the slot another way, by the two edge directions
    and one corner at the slot's corner. This oracle keeps the anchor form
    on purpose, so that the two statements check each other.
    """
    classes = _edge_classes(S)
    verts = S.vertices
    if classes == {_H, _V}:
        anchor = (max(v[0] for v in verts), max(v[1] for v in verts))
        return anchor == base
    if classes == {_V, _D}:
        max_x = max(v[0] for v in verts)
        anchor = min((v for v in verts if v[0] == max_x), key=lambda v: v[1])
        return anchor == (base[0], base[1] + 1)
    if classes == {_H, _D}:
        anchor = min(verts, key=lambda v: v[0])
        return anchor == (base[0] + 1, base[1])
    return False


def determined_faces_scan(cells, T):
    """Semiuniform faces determined by triangle T, by scanning all cells."""
    base = triangle_base(T)
    found = []
    for S in cells:
        if S.vertices == T.vertices or S.cell_class not in SEMIUNIFORM:
            continue
        if shares_edge(T, S):
            found.append(S)
        elif S.cell_class is CellClass.PARALLELOGRAM and _matches_corner_pattern(S, base):
            found.append(S)
    found.sort(key=lambda cell: cell.vertices)
    return found
