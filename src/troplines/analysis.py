"""One-pass analysis of a point configuration: every invariant suite.

This is the reference implementation of the per-configuration record the
sweep harness accumulates. The compiled kernel reimplements the same
record independently for integer configurations; the two must agree (a
property the test suite enforces), so the exact field set and the suite
names below are a shared contract.

The record is a plain JSON-friendly dict:

  v, t, triangles, b, k, h   counts (b, k, h confirmed by two routes)
  near_pencil                bool, or None if the subdivision failed
  bound_holds, equality, consistent, excess
  violations                 list of [suite, detail] pairs, empty when
                             the configuration passes everything

Suites: bound, near_pencil, cross_oracle, count_identities, tiling,
regularity, cell_edges, max_triangles, determined_union,
determined_minimum, unit_parallelogram. Violations are data, not
exceptions: the harness records them with the config for replay. Here a
cell edge outside the H/V/D directions fails the unit-triangle tiling
check, so it is reported as tiling; cell_edges comes from the compiled
kernel, which checks edges separately.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .arrangement import (
    CellClass,
    arrangement_vertices,
    classify_cell,
    counts_from_classes,
    polygon_edges,
    verify_count_identities,
)
from .errors import TilingFailure
from .incidence import PointConfig, dualize_points
from .lines import Point2, pairwise_stable_intersection
from .subdivision import (
    boundary_edge_count,
    check_regularity_detailed,
    determined_faces,
    dual_subdivision,
    is_corner_triangle,
    is_near_pencil,
)

_UNIT_EDGE_VECTORS = {(1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1)}


def analyze_config(cfg: PointConfig) -> dict:
    violations: List[Tuple[str, str]] = []
    arr = dualize_points(cfg)
    v = cfg.v

    # route one: distinct pairwise stable intersections, classified by
    # whether the point coincides with a line vertex
    stable_points: Set[Point2] = set()
    for i in range(arr.n):
        for j in range(i + 1, arr.n):
            stable_points.add(
                pairwise_stable_intersection(arr.lines[i], arr.lines[j]).point
            )
    dual_vertices = {line.vertex for line in arr.lines}
    b_pairwise = len(stable_points)
    h_pairwise = sum(1 for q in stable_points if q in dual_vertices)
    k_pairwise = b_pairwise - h_pairwise

    # route two: arrangement vertices and their dual cell classes
    vertex_data = arrangement_vertices(arr)
    classes = [classify_cell(vd) for vd in vertex_data]
    cnt = counts_from_classes(arr.n, classes)
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
        sub = dual_subdivision(arr, vertex_data)
    except TilingFailure as exc:
        violations.append(("tiling", str(exc)))

    near = None
    if sub is not None:
        ok, diagnostic = check_regularity_detailed(sub)
        if not ok:
            violations.append(("regularity", diagnostic))
        near = is_near_pencil(sub)

        triangles = [c for c in sub.cells if c.cell_class is CellClass.TRIANGLE]
        faces_of = {T.vertices: determined_faces(sub, T) for T in triangles}
        union: Set[tuple] = set()
        m = 0
        for T in triangles:
            if not is_corner_triangle(T, sub.n):
                m += 1
                union.update(S.vertices for S in faces_of[T.vertices])
        if not (cnt.k >= len(union) >= m):
            violations.append(
                ("determined_union", f"k={cnt.k}, union={len(union)}, m={m}")
            )
        for T in triangles:
            bcount = boundary_edge_count(T, sub.n)
            if bcount >= 2:
                continue
            need = 3 if bcount == 0 else 1
            got = len(faces_of[T.vertices])
            if got < need:
                violations.append(
                    (
                        "determined_minimum",
                        f"triangle at {T.dual_point} determines {got} faces, needs {need}",
                    )
                )
        # a parallelogram sharing edges with two different triangles has
        # both its parallel pairs pinned to triangle edges, so all four
        # edges must be unit; corner-slot determinations pin nothing and
        # are excluded (small configs realize elongated ones)
        hits: Dict[tuple, int] = {}
        for T in triangles:
            for S in sub.neighbours[T.vertices]:
                if S.cell_class is CellClass.PARALLELOGRAM:
                    hits[S.vertices] = hits.get(S.vertices, 0) + 1
        for verts, count in hits.items():
            if count < 2:
                continue
            for a, b in polygon_edges(verts):
                if (b[0] - a[0], b[1] - a[1]) not in _UNIT_EDGE_VECTORS:
                    violations.append(
                        (
                            "unit_parallelogram",
                            f"parallelogram {verts} adjacent to {count} triangles "
                            f"has a non-unit edge",
                        )
                    )
                    break

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

    return {
        "v": v,
        "t": cnt.t,
        "triangles": cnt.triangles,
        "b": cnt.b,
        "k": cnt.k,
        "h": cnt.h,
        "near_pencil": near,
        "bound_holds": bound_holds,
        "equality": equality,
        "consistent": consistent,
        "excess": excess,
        "violations": [[suite, detail] for suite, detail in violations],
    }
