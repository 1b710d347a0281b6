"""One-pass analysis of a configuration: every invariant suite.

This is the reference implementation of the per-configuration record the
sweep harness accumulates. The compiled kernel reimplements the same
record independently for integer configurations; the two must agree (a
property the test suite enforces), so the exact field set and the suite
names below are a shared contract.

analyze_arrangement runs the suites on an arrangement, read as the dual
of v = n points, and returns the record with the geometry it was read
from; analyze_config is the record for a point configuration's dual, and
`troplines analyze` reports a whole Analysis, of a lines file as given.

The record is a plain JSON-friendly dict:

  v, t, triangles, b, k, h   counts (b, k, h confirmed by two routes)
  ordinary                   stable lines through exactly two points, the
                             arrangement vertices where c + s_a + s_b + s_c,
                             the number of lines through them, is 2
  near_pencil                bool, or None if the subdivision failed
  bound_holds, equality, consistent, excess
  violations                 list of [suite, detail] pairs, empty when
                             the configuration passes everything

Suites, in the order both routes report them: count_identities,
cross_oracle, max_triangles, tiling, regularity, determined_minimum (per
triangle), determined_union, unit_parallelogram (per parallelogram),
bound, near_pencil. Violations are data, not exceptions: the harness
records them with the config for replay. Both routes write the same
texts for every suite, so a configuration failing any of them has the
same record on both; faults given to both routes alike pin the count,
cross-oracle, tiling and regularity texts and those of the determined
faces.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .arrangement import (
    Arrangement,
    CellClass,
    VertexData,
    arrangement_vertices,
    counts_from_classes,
    dual_cell,
    polygon_edges,
    verify_count_identities,
)
from .errors import TilingFailure
from .incidence import PointConfig, dualize_points
from .lines import stable_intersections
from .subdivision import (
    DualSubdivision,
    boundary_edge_count,
    check_regularity_detailed,
    determined_faces,
    dual_subdivision,
    point_text,
    triangle_neighbours,
)

_UNIT_EDGE_VECTORS = {(1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1)}


class Analysis(NamedTuple):
    """A record and its geometry; sub is None when the cells do not tile,
    and else holds the vertices' dual cells in vertex order."""
    record: dict
    vertex_data: List[VertexData]
    sub: Optional[DualSubdivision]


def analyze_config(cfg: PointConfig) -> dict:
    return analyze_arrangement(dualize_points(cfg)).record


def analyze_arrangement(arr: Arrangement) -> Analysis:
    """Every suite on the arrangement dual to v = arr.n points."""
    violations: List[Tuple[str, str]] = []
    v = arr.n

    # route one: distinct pairwise stable intersections, classified by
    # whether the point coincides with a line vertex
    stable_points = stable_intersections(arr.lines)
    dual_vertices = {line.vertex for line in arr.lines}
    b_pairwise = len(stable_points)
    h_pairwise = sum(1 for q in stable_points if q in dual_vertices)
    k_pairwise = b_pairwise - h_pairwise

    # route two: arrangement vertices and their dual cells, each built once
    vertex_data = arrangement_vertices(arr)
    cells = [dual_cell(vd) for vd in vertex_data]
    cnt = counts_from_classes(arr.n, [cell.cell_class for cell in cells])
    ordinary = sum(vd.c + vd.s_a + vd.s_b + vd.s_c == 2 for vd in vertex_data)
    for problem in verify_count_identities(cnt):
        violations.append(("count_identities", problem))
    if (cnt.b, cnt.k, cnt.h) != (b_pairwise, k_pairwise, h_pairwise):
        violations.append(
            (
                "cross_oracle",
                f"faces give b={cnt.b} k={cnt.k} h={cnt.h}, pairwise "
                f"intersections give b={b_pairwise} k={k_pairwise} h={h_pairwise}",
            )
        )
    if cnt.t == arr.n and cnt.triangles > 3:
        violations.append(
            ("max_triangles", f"t=n={cnt.t} but {cnt.triangles} triangles")
        )

    sub = None
    try:
        sub = dual_subdivision(arr, cells)
    except TilingFailure as exc:
        violations.append(("tiling", str(exc)))

    near = None
    if sub is not None:
        ok, diagnostic = check_regularity_detailed(sub)
        if not ok:
            violations.append(("regularity", diagnostic))

        # each triangle in cell order, its edge owners and its boundary
        # count read once: whether it touches the boundary (the near-pencil
        # shape), its determined faces, and the parallelograms it shares an
        # edge with
        near = True
        union: Set[tuple] = set()
        m = 0
        hits: Dict[tuple, int] = {}
        for T in (c for c in sub.cells if c.cell_class is CellClass.TRIANGLE):
            neighbours = triangle_neighbours(sub, T)
            faces = determined_faces(sub, T, neighbours)
            bcount = boundary_edge_count(T, sub.n)
            near &= bcount > 0
            if bcount < 2:
                m += 1
                union.update(S.vertices for S in faces)
                need = 3 if bcount == 0 else 1
                if len(faces) < need:
                    violations.append(("determined_minimum", (
                        f"triangle at {point_text(T.dual_point)} determines "
                        f"{len(faces)} faces, needs {need}")))
            for S in neighbours:
                if S.cell_class is CellClass.PARALLELOGRAM:
                    hits[S.vertices] = hits.get(S.vertices, 0) + 1
        if not (cnt.k >= len(union) >= m):
            violations.append(
                ("determined_union", f"k={cnt.k}, union={len(union)}, m={m}")
            )
        # a parallelogram sharing edges with two different triangles has
        # both its parallel pairs pinned to triangle edges, so all four
        # edges must be unit; corner-slot determinations pin nothing and
        # are excluded (small configs realize elongated ones)
        for S in sub.cells:
            count = hits.get(S.vertices, 0)
            if count >= 2 and any((b[0] - a[0], b[1] - a[1]) not in _UNIT_EDGE_VECTORS
                                  for a, b in polygon_edges(S.vertices)):
                violations.append(("unit_parallelogram", (
                    f"parallelogram adjacent to {count} triangles has a non-unit edge")))

    excess = b_pairwise - (v - 3)
    bound_holds = b_pairwise >= v - 3
    equality = b_pairwise == v - 3
    consistent = (not equality) or bool(near)
    if v >= 4:
        if not bound_holds:
            violations.append(("bound", f"b={b_pairwise} < v-3={v - 3}"))
        if equality and near is False:
            violations.append(
                ("near_pencil", f"b=v-3={b_pairwise} but subdivision is not a near-pencil")
            )

    record = {
        "v": v,
        "t": cnt.t,
        "triangles": cnt.triangles,
        "b": cnt.b,
        "k": cnt.k,
        "h": cnt.h,
        "ordinary": ordinary,
        "near_pencil": near,
        "bound_holds": bound_holds,
        "equality": equality,
        "consistent": consistent,
        "excess": excess,
        "violations": [[suite, detail] for suite, detail in violations],
    }
    return Analysis(record, vertex_data, sub)
