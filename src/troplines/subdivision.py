"""The dual Newton subdivision of n * Delta_2 and its structural analysis.

The subdivision has two independent constructions, kept deliberately
separate so each can audit the other:

  * the Minkowski route (arrangement.dual_cell): one positioned cell per
    arrangement vertex, walked from its shape parameters, and
  * the lift route (product_coefficients): the coefficient table of the
    tropical product of the n line polynomials, whose regular subdivision
    the Minkowski cells must reproduce. check_regularity_detailed
    verifies that cell by cell with exact arithmetic.

The tiling is checked on the n^2 unit triangles of n * Delta_2: each
cell is rasterized into the triangles it covers, and the resulting owner
grid must assign every triangle to one cell. That grid is the only
adjacency structure, as in the compiled kernel: regularity is checked
in one scan of it, row by row, and reports its first failure in the
kernel's order and words. A triangle cell's edge neighbours are the
owners of the three downward triangles around its one upward triangle,
and a parallelogram in one of its corner slots owns the downward
triangle at that slot's corner. All of it takes time near-linear in n^2.

On top of the validated subdivision sit the lattice predicates the
de Bruijn-Erdos argument needs: boundary edges (a corner triangle has
two), near-pencils, and the determined semiuniform faces of a triangle:
its semiuniform edge neighbours and the parallelograms, edges possibly
elongated, in its three corner slots. Such a parallelogram has edges in
the slot's two directions and a corner at the slot's corner; any other
corner would leave a point of the triangle there outside it, so this is
the anchor rule of the paper-figure templates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
    the lines, O(n^3): after k lines, rows[i][j] = h(i, j) for
    i + j <= k, and the next line's row i is the elementwise max of row
    i (constant term), row i shifted one along j plus b (y-term) and row
    i - 1 plus a (x-term). The constant coefficient is 0, so the first
    choice keeps the value.
    """
    rows: List[List[Rational]] = [[0]]
    for line in arr.lines:
        a, b, _ = line.coefficients
        grown = []
        above: List[Rational] = []
        for row in rows:
            # row i over j = 0 .. len(row): constant term, or y-term on j - 1
            new = [row[0], *map(max, row[1:], [h + b for h in row]), row[-1] + b]
            if above:
                new = list(map(max, new, [h + a for h in above]))
            grown.append(new)
            above = row
        grown.append([above[0] + a])
        rows = grown
    return {(i, j): h for i, row in enumerate(rows) for j, h in enumerate(row)}


# A unit triangle of n * Delta_2: (i, j, 0) is conv{(i,j), (i+1,j), (i,j+1)}
# and (i, j, 1) is conv{(i+1,j), (i,j+1), (i+1,j+1)}. There are n^2 of them.
UnitTriangle = Tuple[int, int, int]


@dataclass
class DualSubdivision:
    """A validated subdivision, as built by dual_subdivision. owner, its
    one adjacency structure, is derived from cells once."""

    n: int
    cells: List[CellPolygon]
    lift: LiftTable
    # the index into cells of the cell owning each unit triangle
    owner: Dict[UnitTriangle, int] = field(repr=False)


def point_text(point) -> str:
    """A point as every message writes it, "(x, y)", with a non-integer
    coordinate as p/q."""
    return f"({point[0]}, {point[1]})"


def _unit_triangles(cell: CellPolygon) -> List[UnitTriangle]:
    """The unit triangles that make up the cell, row by row.

    Each lattice row j of the convex cell lies between two of its edges
    that are not horizontal. Where the left one crosses the row's bottom
    and top at x = l_b and l_t and the right one at r_b and r_t, the
    cell holds the upward triangles (i, j, 0) with l_b <= i < r_b and the
    downward ones (i, j, 1) with l_t <= i < r_t. An edge outside the
    H/V/D directions means the cell is not a union of unit triangles:
    that is a TilingFailure.
    """
    rows: Dict[int, List[Tuple[int, int]]] = {}
    for (ax, ay), (bx, by) in polygon_edges(cell.vertices):
        dx, dy = bx - ax, by - ay
        if not (dx == 0 or dy == 0 or dx == -dy):
            raise TilingFailure(
                f"cell at {point_text(cell.dual_point)} has edge ({dx},{dy}) outside the "
                f"H/V/D directions"
            )
        if dy:
            step = dx // dy  # 0 on a vertical edge, -1 on a diagonal one
            for y in range(min(ay, by), max(ay, by)):
                x = ax + step * (y - ay)
                rows.setdefault(y, []).append((x, x + step))
    found = []
    for j, crossings in rows.items():
        # the left side crosses the bottom left of the right side, or at
        # the same point and then the top left of it
        left_b, left_t = min(crossings)
        right_b, right_t = max(crossings)
        for i in range(left_t, right_b):
            if i >= left_b:
                found.append((i, j, 0))
            if i < right_t:
                found.append((i, j, 1))
    return found


def tile(n: int, cells: List[CellPolygon]) -> Dict[UnitTriangle, int]:
    """Validate that the cells tile n * Delta_2 and return the owner grid.

    Every cell must lie inside n * Delta_2 and the areas must sum to n^2 / 2
    exactly. Each cell, convex by construction, is then rasterized into
    as many unit triangles as its doubled area; a triangle claimed twice
    is an overlap. With the exact area sum, no overlap means the
    cells cover every unit triangle once. A failure is a TilingFailure,
    which means a bug in the pipeline, not bad input: the theory
    guarantees the tiling.
    """
    for cell in cells:
        for (i, j) in cell.vertices:
            if i < 0 or j < 0 or i + j > n:
                raise TilingFailure(
                    f"cell at {point_text(cell.dual_point)} leaves {n}*Delta_2 at ({i},{j})"
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
                    f"cells at {point_text(cells[first].dual_point)} and "
                    f"{point_text(cell.dual_point)} overlap"
                )
    return owner


def dual_subdivision(arr: Arrangement, cells=None) -> DualSubdivision:
    """Assemble and validate the subdivision dual to the arrangement.

    Validation is the tiling contract of tile(): every cell inside
    n * Delta_2, areas summing to n^2 / 2 exactly, and every unit triangle
    owned by exactly one cell. The owner grid also gives the cell
    adjacency that check_regularity_detailed and determined_faces read.

    Callers that already hold the arrangement's cells, one dual_cell per
    vertex, may pass them to skip building them again.
    """
    if cells is None:
        cells = [dual_cell(vd) for vd in arrangement_vertices(arr)]
    return DualSubdivision(
        n=arr.n,
        cells=cells,
        lift=product_coefficients(arr),
        owner=tile(arr.n, cells),
    )


def check_regularity_detailed(sub: DualSubdivision) -> Tuple[bool, Optional[str]]:
    """Verify the Minkowski cells against the lift exactly, reporting the
    first failure in the compiled kernel's order and words.

    Each cell must be counterclockwise, which gives the affine fit through
    the lift at its first three corners. Then one scan of the owner grid,
    row by row: at each (i, j) the fit of the owner of (i, j, 0) must equal
    h at its corners (i + 1, j), (i, j + 1) and (i, j), and the fit of the
    owner of (i, j, 1) at (i + 1, j), (i, j + 1) and (i + 1, j + 1),
    skipping corners the same cell passed earlier in the scan. Across each
    edge of (i, j, 0) to a downward triangle of another cell, the upward
    owner's fit must dominate h at that triangle's opposite vertex,
    (i + 1, j - 1), (i - 1, j + 1) or (i + 1, j + 1). All is cross-multiplied
    by the positive fit determinant, so integer inputs stay integer.

    One vertex decides each edge: the two fits equal h at the edge's ends,
    so their difference is affine and zero along it, and one lattice point
    of the neighbour off the edge fixes its sign on that side. On a tiling
    of the convex n * Delta_2 this local test is the global one: the fits
    glue to a continuous piecewise-affine function equal to h at every
    lattice point and concave across each interior edge, hence concave, so
    every fit dominates h everywhere (De Loera, Rambau and Santos,
    Triangulations, ch. 2).

    The tests below and left of one (i, j) never both fail, so their order
    is free: the fits around (i, j) already agree with h at its six
    neighbours, their folds across the six edges at (i, j) balance, and
    the two folds sum to those of the edges checked earlier at (i - 1, j)
    and (i, j - 1), which passed.
    """
    lift, owner, fits = sub.lift, sub.owner, []
    for cell in sub.cells:
        v0, v1, v2 = cell.vertices[:3]
        det = (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v2[0] - v0[0]) * (v1[1] - v0[1])
        if det <= 0:
            return False, f"cell at {point_text(cell.dual_point)} is not counterclockwise"
        h0, h1, h2 = lift[v0], lift[v1], lift[v2]
        beta = (h1 - h0) * (v2[1] - v0[1]) - (h2 - h0) * (v1[1] - v0[1])
        gamma = (v1[0] - v0[0]) * (h2 - h0) - (v2[0] - v0[0]) * (h1 - h0)
        alpha = det * h0 - beta * v0[0] - gamma * v0[1]
        fits.append((det, alpha, beta, gamma))
    for j in range(sub.n):
        left = None
        for i in range(sub.n - j):
            up = owner[i, j, 0]
            below = owner.get((i, j - 1, 1))
            across = owner.get((i, j, 1))
            corners = [(up, i + 1, j)] if up != below else []
            if up != left:
                corners.append((up, i, j + 1))
                if up != below:
                    corners.append((up, i, j))
            if across is not None:
                if across != up:
                    corners += [(across, i + 1, j), (across, i, j + 1)]
                corners.append((across, i + 1, j + 1))
            for k, x, y in corners:
                det, alpha, beta, gamma = fits[k]
                if alpha + beta * x + gamma * y != det * lift[x, y]:
                    return False, (
                        f"cell at {point_text(sub.cells[k].dual_point)}: lift and "
                        f"affine fit disagree at lattice point ({x}, {y})"
                    )
            det, alpha, beta, gamma = fits[up]
            for other, x, y in ((below, i + 1, j - 1), (left, i - 1, j + 1),
                                (across, i + 1, j + 1)):
                if other not in (None, up) and alpha + beta * x + gamma * y < det * lift[x, y]:
                    return False, (
                        f"cell at {point_text(sub.cells[up].dual_point)}: affine fit "
                        f"fails to dominate the lift at ({x}, {y})"
                    )
            left = across
    return True, None


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

# The downward unit triangles around the upward one at a triangle cell's
# base p, as (di, dj, slot) with (di, dj) their offset from p: across its
# bottom, left and diagonal edges, then at the corners p, p + (0,1) and
# p + (1,0) of its slots, with slot the corner's offset and the two edge
# directions of the slot's parallelogram.
_AROUND_BASE = (
    (0, -1, None), (-1, 0, None), (0, 0, None),
    (-1, -1, ((0, 0), {"H", "V"})),
    (-1, 1, ((0, 1), {"V", "D"})),
    (1, -1, ((1, 0), {"H", "D"})),
)


def triangle_base(T: CellPolygon) -> LatticePoint:
    """The right-angle corner p of a triangle cell conv{p, p+(1,0), p+(0,1)}, its first."""
    if T.cell_class is not CellClass.TRIANGLE:
        raise NotATriangle(f"cell at {T.dual_point} is {T.cell_class.value}")
    return T.vertices[0]


def triangle_neighbours(sub: DualSubdivision, T: CellPolygon) -> List[CellPolygon]:
    """The cells sharing an edge with the triangle T, which is the one
    upward unit triangle (i, j, 0) at its base: the owners of the downward
    ones below it, left of it and across its diagonal, where they exist."""
    i, j = triangle_base(T)
    found = {sub.owner.get((i + di, j + dj, 1)) for di, dj, _ in _AROUND_BASE[:3]}
    return [sub.cells[k] for k in found if k is not None]


def determined_faces(sub: DualSubdivision, T: CellPolygon,
                     neighbours: Optional[List[CellPolygon]] = None) -> List[CellPolygon]:
    """Semiuniform faces determined by the triangle T.

    Either edge-adjacent to T (any semiuniform shape) or a parallelogram
    in one of the three corner slots; corner-slot faces are parallelograms
    by definition, so hexagons can only enter through adjacency. A slot's
    parallelogram owns the downward unit triangle at the slot's corner, so
    T takes that owner when its edges run in the slot's two directions and
    it has a corner at the slot's corner: any other corner would leave a
    point of that triangle outside it. neighbours, when given, is
    triangle_neighbours(sub, T), read once by a caller that needs it too.
    """
    i, j = triangle_base(T)
    if neighbours is None:
        neighbours = triangle_neighbours(sub, T)
    found = {S.vertices: S for S in neighbours if S.cell_class in SEMIUNIFORM}
    for di, dj, ((ci, cj), directions) in _AROUND_BASE[3:]:
        k = sub.owner.get((i + di, j + dj, 1))
        S = sub.cells[k] if k is not None else None
        if (S is not None and S.cell_class is CellClass.PARALLELOGRAM
                and (i + ci, j + cj) in S.vertices
                and directions == {"H" if a[1] == b[1] else "V" if a[0] == b[0] else "D"
                                   for a, b in polygon_edges(S.vertices)}):
            found[S.vertices] = S
    # at most six: the owners of three corners and of three edges
    return [found[verts] for verts in sorted(found)]
