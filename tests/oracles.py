"""Global-scan reference checks for the dual subdivision, small n only.

The library validates a subdivision through its unit-triangle owner
grid: tiling by rasterization, regularity locally across interior edges,
determined faces by adjacency lookup. These are the direct scans it
replaced, kept as independent oracles for the tests:

  * tiling: pairwise separating axes between all cells, O(cells^2);
  * regularity: each cell's affine fit against the lift at every lattice
    point of n * Delta_2, O(cells * n^2);
  * determined faces: every cell tested against each triangle, with
    positive-length edge sharing and the corner-slot templates matched
    directly.

Each scan reads only the cells and the lift, never the owner grid, the
adjacency or the corner-slot index of the subdivision under test.
"""

import math

from troplines.arrangement import SEMIUNIFORM, CellClass, polygon_edges
from troplines.errors import TilingFailure
from troplines.subdivision import triangle_base


def _cross3(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


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
