"""The dual Newton subdivision of n * Delta_2 and its structural analysis.

The subdivision has two independent constructions, kept deliberately
separate so each can audit the other:

  * the Minkowski route (arrangement.dual_cell): one positioned cell per
    arrangement vertex, and
  * the lift route (product_coefficients): the coefficient table of the
    tropical product of the n line polynomials, whose regular subdivision
    the Minkowski cells must reproduce. check_regularity verifies that
    cell by cell with exact arithmetic.

The tiling is checked on the n^2 unit triangles of n * Delta_2: each
cell is rasterized into the triangles it covers, and the resulting owner
grid must assign every triangle to one cell. The same grid gives the
cell adjacency, so regularity is checked locally across interior edges
and determined faces are looked up, all in time near-linear in n^2.

On top of the validated subdivision sit the lattice predicates the
de Bruijn-Erdos argument needs: boundary edges, near-pencils, corner
triangles, and the determined semiuniform faces of a triangle (the three
edge-adjacency slots plus the three corner-anchored parallelogram
patterns, transcribed from the paper-figure templates; each pattern edge
may be elongated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .arrangement import (
    Arrangement,
    CellClass,
    CellPolygon,
    LatticePoint,
    SEMIUNIFORM,
    arrangement_vertices,
    dual_cell,
    polygon_edges,
)
from .errors import NotATriangle, TilingFailure
from .rationals import Rational

LiftTable = Dict[LatticePoint, Rational]


def product_coefficients(arr: Arrangement) -> LiftTable:
    """Coefficient table h(i, j) of the tropical product of the lines.

    h(i, j) maximizes, over ordered partitions of the lines into an
    x-set I of size i, a y-set J of size j and a constant set for the
    rest, the sum of the chosen coefficients. Dynamic programming over
    the lines, O(n^3).
    """
    dp: Dict[LatticePoint, Rational] = {(0, 0): 0}
    for line in arr.lines:
        a, b, c = line.coefficients
        new_dp: Dict[LatticePoint, Rational] = {}
        for (i, j), value in dp.items():
            for di, dj, coeff in ((1, 0, a), (0, 1, b), (0, 0, c)):
                key = (i + di, j + dj)
                candidate = value + coeff
                best = new_dp.get(key)
                if best is None or candidate > best:
                    new_dp[key] = candidate
        dp = new_dp
    return dp


# A unit triangle of n * Delta_2: (i, j, 0) is conv{(i,j), (i+1,j), (i,j+1)}
# and (i, j, 1) is conv{(i+1,j), (i,j+1), (i+1,j+1)}. There are n^2 of them.
UnitTriangle = Tuple[int, int, int]


@dataclass
class DualSubdivision:
    """A validated subdivision, as built by dual_subdivision. owner,
    neighbours and corner_slots are derived from cells once."""

    n: int
    cells: List[CellPolygon]
    lift: LiftTable
    # the index into cells of the cell owning each unit triangle
    owner: Dict[UnitTriangle, int] = field(repr=False)
    # cell vertices -> the cells sharing an edge of positive length with
    # it, sorted by their vertices
    neighbours: Dict[Tuple[LatticePoint, ...], List[CellPolygon]] = field(repr=False)
    # triangle base -> the parallelograms sitting in one of its corner slots
    corner_slots: Dict[LatticePoint, List[CellPolygon]] = field(repr=False)


def _unit_triangles(cell: CellPolygon) -> List[UnitTriangle]:
    """The unit triangles whose centroids lie strictly inside the cell.

    Candidates come row by row from the x-extent of the edges crossing
    the row; the centroid test runs in coordinates scaled by 3, so it is
    exact in integers. An edge outside the H/V/D directions means the cell
    is not a union of unit triangles: that is a TilingFailure.
    """
    rows: Dict[int, List[int]] = {}
    edges = []
    for (ax, ay), (bx, by) in polygon_edges(cell.vertices):
        dx, dy = bx - ax, by - ay
        if not (dx == 0 or dy == 0 or dx == -dy):
            raise TilingFailure(
                f"cell at {cell.dual_point} has edge ({dx},{dy}) outside the "
                f"H/V/D directions"
            )
        edges.append((3 * ax, 3 * ay, dx, dy))
        if dy:
            step = dx // dy  # 0 on a vertical edge, -1 on a diagonal one
            for y in range(min(ay, by), max(ay, by)):
                x = ax + step * (y - ay)
                rows.setdefault(y, []).extend((x, x + step))
    found = []
    for j, xs in rows.items():
        for i in range(min(xs), max(xs)):
            for down, cx, cy in ((0, 3 * i + 1, 3 * j + 1), (1, 3 * i + 2, 3 * j + 2)):
                if all(ux * (cy - ey) - uy * (cx - ex) > 0 for ex, ey, ux, uy in edges):
                    found.append((i, j, down))
    return found


def tile(n: int, cells: List[CellPolygon]) -> Dict[UnitTriangle, int]:
    """Validate that the cells tile n * Delta_2 and return the owner grid.

    Every cell must lie inside n * Delta_2 and the areas must sum to n^2 / 2
    exactly. Each cell, convex as dual_cell builds it, is then rasterized
    into as many unit triangles as its doubled area; a triangle claimed
    twice is an overlap. With the exact area sum, no overlap means the
    cells cover every unit triangle once. A failure is a TilingFailure,
    which means a bug in the pipeline, not bad input: the theory
    guarantees the tiling.
    """
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
    owner: Dict[UnitTriangle, int] = {}
    for k, cell in enumerate(cells):
        for tri in _unit_triangles(cell):
            first = owner.setdefault(tri, k)
            if first != k:
                raise TilingFailure(
                    f"cells at {cells[first].dual_point} and {cell.dual_point} overlap"
                )
    return owner


def _neighbours(
    cells: List[CellPolygon], owner: Dict[UnitTriangle, int]
) -> Dict[Tuple[LatticePoint, ...], List[CellPolygon]]:
    """Edge adjacency read off the owner grid: every edge between unit
    triangles of two different cells. Each edge joins an upward triangle
    to a downward one, so the three edges of each upward triangle visit
    all of them."""
    adjacent: List[Set[int]] = [set() for _ in cells]
    for (i, j, down), k in owner.items():
        if down:
            continue
        for tri in ((i, j - 1, 1), (i - 1, j, 1), (i, j, 1)):
            other = owner.get(tri)
            if other is not None and other != k:
                adjacent[k].add(other)
                adjacent[other].add(k)
    return {
        cell.vertices: sorted(
            (cells[other] for other in adjacent[k]), key=lambda c: c.vertices
        )
        for k, cell in enumerate(cells)
    }


def dual_subdivision(arr: Arrangement, vertex_data=None) -> DualSubdivision:
    """Assemble and validate the subdivision dual to the arrangement.

    Validation is the tiling contract of tile(): every cell inside
    n * Delta_2, areas summing to n^2 / 2 exactly, and every unit triangle
    owned by exactly one cell. The owner grid also gives the cell
    adjacency that check_regularity and determined_faces read.

    Callers that already hold the arrangement's vertex data may pass it
    to skip the vertex scan.
    """
    n = arr.n
    if vertex_data is None:
        vertex_data = arrangement_vertices(arr)
    cells = [dual_cell(arr, vd) for vd in vertex_data]
    owner = tile(n, cells)
    corner_slots: Dict[LatticePoint, List[CellPolygon]] = {}
    for cell in cells:
        if cell.cell_class is CellClass.PARALLELOGRAM:
            corner_slots.setdefault(_corner_slot_base(cell), []).append(cell)
    return DualSubdivision(
        n=n,
        cells=cells,
        lift=product_coefficients(arr),
        owner=owner,
        neighbours=_neighbours(cells, owner),
        corner_slots=corner_slots,
    )


def check_regularity_detailed(sub: DualSubdivision) -> Tuple[bool, Optional[str]]:
    """Verify the Minkowski cells against the lift, exactly.

    For each cell, the affine function through its lifted vertices must
    exist (coplanar lifts), agree with h on the cell's lattice points (the
    corners of its unit triangles), and dominate h at the vertices of
    every edge-adjacent cell. Everything is cross-multiplied by the
    (positive) fit determinant so integer inputs stay integer.

    On a tiling of the convex n * Delta_2 this local test is the global
    one: the fits glue to a continuous piecewise-affine function equal to
    h at every lattice point, and concavity across each interior edge
    makes it concave, so every fit dominates h everywhere (De Loera,
    Rambau and Santos, Triangulations, ch. 2).
    """
    fits = []
    for cell in sub.cells:
        v0, v1, v2 = cell.vertices[0], cell.vertices[1], cell.vertices[2]
        det = (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v2[0] - v0[0]) * (v1[1] - v0[1])
        if det <= 0:
            return False, f"cell at {cell.dual_point} is not counterclockwise"
        h0 = sub.lift[v0]
        h1 = sub.lift[v1]
        h2 = sub.lift[v2]
        beta = (h1 - h0) * (v2[1] - v0[1]) - (h2 - h0) * (v1[1] - v0[1])
        gamma = (v1[0] - v0[0]) * (h2 - h0) - (v2[0] - v0[0]) * (h1 - h0)
        alpha = det * h0 - beta * v0[0] - gamma * v0[1]
        fits.append((det, alpha, beta, gamma))
    for (i, j, down), k in sub.owner.items():
        det, alpha, beta, gamma = fits[k]
        for point in ((i + 1, j), (i, j + 1), (i + down, j + down)):
            if alpha + beta * point[0] + gamma * point[1] != det * sub.lift[point]:
                return False, (
                    f"cell at {sub.cells[k].dual_point}: lift and affine fit "
                    f"disagree at lattice point {point}"
                )
    for cell, (det, alpha, beta, gamma) in zip(sub.cells, fits):
        for other in sub.neighbours[cell.vertices]:
            for point in other.vertices:
                if alpha + beta * point[0] + gamma * point[1] < det * sub.lift[point]:
                    return False, (
                        f"cell at {cell.dual_point}: affine fit fails to dominate "
                        f"the lift at {point}"
                    )
    return True, None


def check_regularity(sub: DualSubdivision) -> bool:
    ok, _ = check_regularity_detailed(sub)
    return ok


def boundary_edge_count(cell: CellPolygon, n: int) -> int:
    """Edges of the cell lying on the boundary of n * Delta_2."""
    count = 0
    for a, b in polygon_edges(cell.vertices):
        if a[0] == 0 and b[0] == 0:
            count += 1
        elif a[1] == 0 and b[1] == 0:
            count += 1
        elif a[0] + a[1] == n and b[0] + b[1] == n:
            count += 1
    return count


def is_corner_triangle(cell: CellPolygon, n: int) -> bool:
    """Triangles with two (or, when n = 1, three) boundary edges."""
    return cell.cell_class is CellClass.TRIANGLE and boundary_edge_count(cell, n) >= 2


def is_near_pencil(sub: DualSubdivision) -> bool:
    """Every triangular face touches the boundary with at least one edge."""
    return all(
        boundary_edge_count(cell, sub.n) >= 1
        for cell in sub.cells
        if cell.cell_class is CellClass.TRIANGLE
    )


# ---------------------------------------------------------------------------
# determined faces
# ---------------------------------------------------------------------------

def _primitive(vec: Tuple[int, int]) -> Tuple[int, int]:
    g = math.gcd(abs(vec[0]), abs(vec[1]))
    p = (vec[0] // g, vec[1] // g)
    # normalize sign so each direction class has one representative
    if p[1] < 0 or (p[1] == 0 and p[0] < 0):
        p = (-p[0], -p[1])
    return p


# direction classes, sign-normalized by _primitive
_H = (1, 0)
_V = (0, 1)
_D = (-1, 1)


def _edge_classes(cell: CellPolygon) -> Set[Tuple[int, int]]:
    return {
        _primitive((b[0] - a[0], b[1] - a[1]))
        for a, b in polygon_edges(cell.vertices)
    }


def triangle_base(T: CellPolygon) -> LatticePoint:
    """The right-angle corner of a triangle cell conv{p, p+(1,0), p+(0,1)}."""
    if T.cell_class is not CellClass.TRIANGLE:
        raise NotATriangle(f"cell at {T.dual_point} is {T.cell_class.value}")
    return (min(v[0] for v in T.vertices), min(v[1] for v in T.vertices))


def _corner_slot_base(S: CellPolygon) -> LatticePoint:
    """The base of the one triangle in whose corner slot parallelogram S
    would sit.

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
        return (max(v[0] for v in verts), max(v[1] for v in verts))
    if classes == {_V, _D}:
        max_x = max(v[0] for v in verts)
        anchor = min((v for v in verts if v[0] == max_x), key=lambda v: v[1])
        return (anchor[0], anchor[1] - 1)
    anchor = min(verts, key=lambda v: v[0])
    return (anchor[0] - 1, anchor[1])


def determined_faces(sub: DualSubdivision, T: CellPolygon) -> List[CellPolygon]:
    """Semiuniform faces determined by the triangle T.

    Either edge-adjacent to T (any semiuniform shape) or a parallelogram
    in one of the three corner slots; corner-slot faces are parallelograms
    by definition, so hexagons can only enter through adjacency.
    """
    base = triangle_base(T)
    found = {S.vertices: S for S in sub.corner_slots.get(base, ())}
    for S in sub.neighbours[T.vertices]:
        if S.cell_class in SEMIUNIFORM:
            found[S.vertices] = S
    faces = [found[verts] for verts in sorted(found)]
    if len(faces) > 6:
        raise AssertionError(
            f"triangle at {T.dual_point} determined {len(faces)} faces, maximum is 6"
        )
    return faces


def determined_union_count(sub: DualSubdivision) -> int:
    """Size of the union of determined faces over non-corner triangles."""
    union: Set[Tuple[LatticePoint, ...]] = set()
    for T in sub.cells:
        if T.cell_class is CellClass.TRIANGLE and not is_corner_triangle(T, sub.n):
            for S in determined_faces(sub, T):
                union.add(S.vertices)
    return len(union)
