"""Lattice-polygon helpers, arrangement vertices and dual cells.

The polygon helpers get independent oracles: Pick's theorem for areas,
support-function additivity for the reference Minkowski sums, and the
origin-in-the-difference-body criterion for interior disjointness. Each
dual cell, walked from its shape parameters, is compared with the
Minkowski sum of its per-line argmax hulls. The arrangement
fixtures freeze fully worked examples (a two-line arrangement and the
four-line near-pencil whose lines all pass through one point).
"""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from troplines.arrangement import (
    CellClass,
    Counts,
    VertexData,
    arrangement_vertices,
    build_arrangement,
    candidate_points,
    classify_cell,
    counts_from_classes,
    doubled_area,
    dual_cell,
    polygon_edges,
    type_tuple,
    verify_count_identities,
)
from troplines.errors import DuplicateLine, EmptyArrangement, NotAVertex
from troplines.lines import (
    Point2,
    line_from_vertex,
    pairwise_stable_intersection,
    ray_crossings,
)

from troplines.serialize import parse_rational

from conftest import SOURCE
from oracles import (
    canonical_ccw,
    contains_point,
    convex_hull,
    interiors_disjoint,
    lattice_points,
    minkowski_cell,
    minkowski_sum,
    arrangement_vertices_scan,
    counts,
    coordinate_sets,
    vertex_data,
)

lattice_pt = st.tuples(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6)
)


# ---------------------------------------------------------------------------
# convex hull and containment
# ---------------------------------------------------------------------------

@given(st.lists(lattice_pt, min_size=1, max_size=12))
def test_hull_is_convex_ccw_and_tight(points):
    hull = convex_hull(points)
    assert set(hull) <= set(points)
    for p in points:
        assert contains_point(hull, p) or len(hull) < 3
    if len(hull) >= 3:
        # strictly convex: collinear boundary points were dropped
        m = len(hull)
        for i in range(m):
            o, a, b = hull[i], hull[(i + 1) % m], hull[(i + 2) % m]
            assert (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) > 0
        # every vertex is extreme: dropping it shrinks the hull
        for i in range(m):
            rest = hull[:i] + hull[i + 1 :]
            assert not contains_point(convex_hull(rest), hull[i]) or len(rest) < 3


def test_hull_degenerate_inputs():
    assert convex_hull([(2, 3)]) == [(2, 3)]
    assert convex_hull([(0, 0), (0, 0)]) == [(0, 0)]
    assert convex_hull([(0, 0), (2, 2), (1, 1), (3, 3)]) == [(0, 0), (3, 3)]


@given(st.lists(lattice_pt, min_size=3, max_size=10), lattice_pt)
def test_containment_agrees_with_hull_absorption(points, probe):
    poly = convex_hull(points)
    if len(poly) < 3:
        return
    absorbed = set(convex_hull(list(poly) + [probe])) == set(poly)
    assert contains_point(poly, probe) == absorbed


# ---------------------------------------------------------------------------
# areas: Pick's theorem as the oracle
# ---------------------------------------------------------------------------

def _boundary_lattice_count(poly):
    return sum(
        math.gcd(abs(b[0] - a[0]), abs(b[1] - a[1])) for a, b in polygon_edges(poly)
    )


@given(st.lists(lattice_pt, min_size=3, max_size=10))
def test_doubled_area_satisfies_picks_theorem(points):
    poly = convex_hull(points)
    if len(poly) < 3:
        return
    boundary = _boundary_lattice_count(poly)
    interior = len(lattice_points(poly)) - boundary
    assert doubled_area(poly) == 2 * interior + boundary - 2


def test_doubled_area_orientation_sign():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert doubled_area(square) == 2
    assert doubled_area(list(reversed(square))) == -2


def test_lattice_points_unit_triangle():
    assert lattice_points([(0, 0), (1, 0), (0, 1)]) == [(0, 0), (0, 1), (1, 0)]


# ---------------------------------------------------------------------------
# Minkowski sums: support functions add
# ---------------------------------------------------------------------------

def _support(poly, d):
    return max(p[0] * d[0] + p[1] * d[1] for p in poly)


@given(
    st.lists(lattice_pt, min_size=1, max_size=6),
    st.lists(lattice_pt, min_size=1, max_size=6),
)
def test_minkowski_support_additivity(pa, pb):
    P = convex_hull(pa)
    Q = convex_hull(pb)
    total = minkowski_sum(P, Q)
    for d in [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (2, -3), (-5, 2)]:
        assert _support(total, d) == _support(P, d) + _support(Q, d)


def test_minkowski_unit_and_commutativity():
    tri = [(0, 0), (1, 0), (0, 1)]
    assert minkowski_sum(tri, [(0, 0)]) == convex_hull(tri)
    seg = [(0, 0), (2, 1)]
    assert set(minkowski_sum(tri, seg)) == set(minkowski_sum(seg, tri))


# ---------------------------------------------------------------------------
# interior disjointness: the difference body sees the overlap
# ---------------------------------------------------------------------------

def _strictly_contains_origin(poly):
    if len(poly) < 3:
        return False
    for a, b in polygon_edges(poly):
        if (b[0] - a[0]) * (-a[1]) - (b[1] - a[1]) * (-a[0]) <= 0:
            return False
    return True


def test_interiors_disjoint_matches_difference_body_oracle():
    rng = random.Random(42)
    polygons = []
    while len(polygons) < 40:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(5)]
        hull = convex_hull(pts)
        if len(hull) >= 3:
            polygons.append(tuple(hull))
    for i, P in enumerate(polygons):
        for Q in polygons[i:]:
            diff = minkowski_sum(P, [(-x, -y) for x, y in Q])
            overlap = _strictly_contains_origin(diff)
            assert interiors_disjoint(P, Q) == (not overlap), (P, Q)


def test_interiors_disjoint_edge_cases():
    a = [(0, 0), (1, 0), (0, 1)]
    shares_edge_only = [(1, 0), (1, 1), (0, 1)]
    apart = [(5, 5), (6, 5), (5, 6)]
    inside = [(0, 0), (2, 0), (0, 2)]
    assert interiors_disjoint(a, shares_edge_only)
    assert interiors_disjoint(a, apart)
    assert not interiors_disjoint(a, inside)
    assert not interiors_disjoint(a, a)


def test_canonical_ccw_starts_at_lex_min():
    poly = [(1, 1), (0, 2), (0, 0), (1, 0)]
    rotated = canonical_ccw(poly)
    assert rotated == ((0, 0), (1, 0), (1, 1), (0, 2))
    assert canonical_ccw(rotated) == rotated


# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------

def _arr(*vertices):
    return build_arrangement([line_from_vertex(Point2(*v)) for v in vertices])


def test_build_arrangement_validates():
    assert _arr((0, 0)).n == 1
    assert _arr((0, 0), (0, 2), (2, 0), (-2, -2)).n == 4
    with pytest.raises(EmptyArrangement):
        build_arrangement([])
    with pytest.raises(DuplicateLine) as err:
        _arr((0, 0), (1, 1), (0, 0))
    assert err.value.first_index == 0
    assert err.value.second_index == 2


def test_single_line_has_one_vertex():
    vds = arrangement_vertices(_arr((0, 0)))
    assert len(vds) == 1
    assert vds[0].point == Point2(0, 0)
    assert (vds[0].c, vds[0].s_a, vds[0].s_b, vds[0].s_c) == (1, 0, 0, 0)


def test_two_line_arrangement_vertices():
    vds = arrangement_vertices(_arr((0, 0), (2, 1)))
    assert [vd.point for vd in vds] == [Point2(0, 0), Point2(1, 1), Point2(2, 1)]
    middle = vds[1]
    assert (middle.c, middle.s_a, middle.s_b, middle.s_c) == (0, 0, 1, 1)


# four points {(0,0),(0,-2),(-2,0),(2,2)} dualize to these vertices; all
# four lines meet at the origin, leaving one stable intersection
PENCIL_LIKE = ((0, 0), (0, 2), (2, 0), (-2, -2))


def test_pencil_like_arrangement_vertices_and_types():
    arr = _arr(*PENCIL_LIKE)
    vds = arrangement_vertices(arr)
    assert [vd.point for vd in vds] == [
        Point2(-2, -2),
        Point2(0, 0),
        Point2(0, 2),
        Point2(2, 0),
    ]
    assert type_tuple(arr, Point2(0, 0)) == (
        frozenset({1, 2, 3}),
        frozenset({1, 3}),
        frozenset({2, 3}),
        frozenset({1, 2}),
    )
    # the bucketed counts at a vertex are the tallies of its type
    for vd in vds:
        assert vd == vertex_data(arr, vd.point)


def test_every_type_coordinate_is_nonempty():
    arr = _arr((0, 0), (3, 1), (-1, 4))
    rng = random.Random(5)
    for _ in range(50):
        q = Point2(rng.randint(-6, 6), rng.randint(-6, 6))
        assert all(len(co) >= 1 for co in type_tuple(arr, q))


def test_shape_parameters_partition_the_lines():
    rng = random.Random(99)
    for _ in range(30):
        verts = set()
        while len(verts) < 5:
            verts.add((rng.randint(-7, 7), rng.randint(-7, 7)))
        arr = _arr(*verts)
        for vd in arrangement_vertices(arr):
            singles = sum(1 for s in type_tuple(arr, vd.point) if len(s) == 1)
            assert vd.c + vd.s_a + vd.s_b + vd.s_c + singles == arr.n


def test_vertex_enumeration_is_translation_equivariant():
    base = [(0, 0), (3, 1), (1, 4), (-2, 2)]
    shift = (5, -7)
    vds = arrangement_vertices(_arr(*base))
    shifted = arrangement_vertices(
        _arr(*[(x + shift[0], y + shift[1]) for x, y in base])
    )
    assert [vd.point for vd in shifted] == [
        Point2(vd.point.x + shift[0], vd.point.y + shift[1]) for vd in vds
    ]
    for a, b in zip(vds, shifted):
        assert (a.c, a.s_a, a.s_b, a.s_c) == (b.c, b.s_a, b.s_b, b.s_c)


@settings(max_examples=80, deadline=None)
@given(coordinate_sets(max_size=40))
def test_bucketed_vertices_match_the_per_line_scan(vertices):
    arr = _arr(*vertices)
    assert arrangement_vertices(arr) == arrangement_vertices_scan(arr)


def test_candidates_are_the_vertices_stable_points_and_crossings():
    # the candidate set once also added each pair's stable intersection
    # explicitly; that union is the oracle
    rng = random.Random(2024)
    for trial in range(60):
        spread = 3 if trial % 2 else 40
        n = rng.randint(2, 9)
        verts = set()
        while len(verts) < n:
            verts.add((rng.randint(-spread, spread), rng.randint(-spread, spread)))
        arr = _arr(*verts)
        union = {line.vertex for line in arr.lines}
        for L1, L2 in itertools.combinations(arr.lines, 2):
            union.add(pairwise_stable_intersection(L1, L2).point)
            union.update(ray_crossings(L1, L2))
        assert candidate_points(arr) == union, sorted(verts)


# ---------------------------------------------------------------------------
# classification and counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "c, s, expected",
    [
        (1, (0, 0, 0), CellClass.TRIANGLE),
        (0, (1, 1, 0), CellClass.PARALLELOGRAM),
        (0, (2, 0, 3), CellClass.PARALLELOGRAM),
        (0, (1, 1, 1), CellClass.HEXAGON),
        (1, (1, 0, 0), CellClass.NON_UNIFORM_4),
        (1, (0, 2, 1), CellClass.NON_UNIFORM_5),
        (1, (1, 1, 1), CellClass.NON_UNIFORM_6),
    ],
)
def test_classification_table(c, s, expected):
    vd = VertexData(
        point=Point2(0, 0),
        c=c,
        s_a=s[0],
        s_b=s[1],
        s_c=s[2],
        only_x=0,
        only_y=0,
    )
    assert classify_cell(vd) is expected


def test_classify_rejects_non_vertices():
    vd = VertexData(Point2(0, 0), c=0, s_a=1, s_b=0, s_c=0, only_x=0, only_y=0)
    assert not vd.is_vertex
    with pytest.raises(NotAVertex):
        classify_cell(vd)
    with pytest.raises(NotAVertex):
        dual_cell(vd)


def test_dual_cell_single_line_is_unit_triangle():
    arr = _arr((0, 0))
    cell = dual_cell(arrangement_vertices(arr)[0])
    assert cell.vertices == ((0, 0), (1, 0), (0, 1))
    assert cell.cell_class is CellClass.TRIANGLE
    assert cell.doubled_area() == 1


def test_pencil_like_center_cell_is_six_edged():
    arr = _arr(*PENCIL_LIKE)
    by_point = {vd.point: vd for vd in arrangement_vertices(arr)}
    cell = dual_cell(by_point[Point2(0, 0)])
    assert cell.cell_class is CellClass.NON_UNIFORM_6
    assert cell.vertices == ((0, 1), (1, 0), (3, 0), (3, 1), (1, 3), (0, 3))
    assert cell.doubled_area() == 13
    directions = sorted(
        (b[0] - a[0], b[1] - a[1]) for a, b in polygon_edges(cell.vertices)
    )
    assert directions == [(-2, 2), (-1, 0), (0, -2), (0, 1), (1, -1), (2, 0)]


def test_pencil_like_side_cell_is_a_positioned_unit_triangle():
    arr = _arr(*PENCIL_LIKE)
    by_point = {vd.point: vd for vd in arrangement_vertices(arr)}
    cell = dual_cell(by_point[Point2(0, 2)])
    assert cell.cell_class is CellClass.TRIANGLE
    assert cell.vertices == ((0, 3), (1, 3), (0, 4))


def test_counts_examples():
    assert counts(_arr((0, 0))) == Counts(n=1, t=1, triangles=1, b=0, k=0, h=0)
    assert counts(_arr((0, 0), (2, 1))) == Counts(n=2, t=3, triangles=2, b=1, k=1, h=0)
    assert counts(_arr(*PENCIL_LIKE)) == Counts(n=4, t=4, triangles=3, b=1, k=0, h=1)


def test_count_identities_catch_bad_counts():
    good = Counts(n=2, t=3, triangles=2, b=1, k=1, h=0)
    assert verify_count_identities(good) == []
    bad = Counts(n=2, t=3, triangles=2, b=2, k=1, h=0)
    problems = verify_count_identities(bad)
    assert any("t != triangles + b" in msg for msg in problems)
    assert any("b != k + h" in msg for msg in problems)
    out_of_range = Counts(n=5, t=3, triangles=3, b=0, k=0, h=2)
    assert any("out of range" in msg for msg in verify_count_identities(out_of_range))


def test_counts_from_classes_tallies():
    classes = [
        CellClass.TRIANGLE,
        CellClass.PARALLELOGRAM,
        CellClass.HEXAGON,
        CellClass.NON_UNIFORM_5,
        CellClass.TRIANGLE,
    ]
    cnt = counts_from_classes(3, classes)
    assert cnt == Counts(n=3, t=5, triangles=2, b=3, k=2, h=1)


half_integers = st.integers(-8, 8).map(lambda k: parse_rational(f"{k}/2", "k/2"))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(half_integers, half_integers), min_size=1, max_size=7, unique=True)
)
def test_dual_cell_matches_the_minkowski_reference(vertices):
    arr = _arr(*vertices)
    for vd in arrangement_vertices(arr):
        cell = dual_cell(vd)
        assert cell.vertices == minkowski_cell(type_tuple(arr, vd.point)), (vertices, vd.point)
        assert all(type(c) is int for corner in cell.vertices for c in corner)


@settings(max_examples=40, deadline=None)
@given(st.sets(lattice_pt, min_size=1, max_size=5))
def test_cell_edges_use_only_the_three_directions(vertices):
    arr = _arr(*vertices)
    for vd in arrangement_vertices(arr):
        cell = dual_cell(vd)
        assert 3 <= len(cell.vertices) <= 6
        for a, b in polygon_edges(cell.vertices):
            dx, dy = b[0] - a[0], b[1] - a[1]
            g = math.gcd(abs(dx), abs(dy))
            assert (dx // g, dy // g) in {
                (1, 0),
                (0, 1),
                (1, -1),
                (-1, 0),
                (0, -1),
                (-1, 1),
            }


def _kernel_walk_steps(vd):
    """The steps of the kernel's cell walk for vd's counts, as (dx, dy)
    times the step's length, those of zero length skipped: its STEPX and
    STEPY tables and its length table, read from its source."""
    source = (SOURCE / "_fastsweep.c").read_text()
    [xs] = re.findall(r"STEPX\[6\] = \{([^}]*)\}", source)
    [ys] = re.findall(r"STEPY\[6\] = \{([^}]*)\}", source)
    [lengths] = re.findall(r"const int length\[6\] = \{([^}]*)\}", source)
    counts = {"c": vd.c, "sa": vd.s_a, "sb": vd.s_b, "sc": vd.s_c}
    steps = []
    for dx, dy, length in zip(xs.split(","), ys.split(","), lengths.split(","), strict=True):
        size = sum(counts[term.strip()] for term in length.split("+"))
        if size:
            steps.append((int(dx) * size, int(dy) * size))
    return steps


def test_the_walk_gives_a_convex_hvd_cell_for_any_counts():
    # every count tuple that meets the vertex criterion, not only those an
    # arrangement realizes: both walks take the same steps, the last edge
    # back to the first corner is the last step (the step lengths sum to
    # zero), and the cell has 3 to 6 corners, only H, V and D edges and a
    # strict left turn at every corner; the kernel checks none of this
    directions = {(1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1)}
    walked = 0
    for c, sa, sb, sc, only_x, only_y in itertools.product(
            range(2), range(5), range(5), range(5), range(3), range(3)):
        vd = VertexData(Point2(0, 0), c, sa, sb, sc, only_x, only_y)
        if not vd.is_vertex:
            continue
        walked += 1
        cell = dual_cell(vd)
        edges = [(b[0] - a[0], b[1] - a[1]) for a, b in polygon_edges(cell.vertices)]
        assert edges == _kernel_walk_steps(vd), vd
        assert 3 <= len(edges) <= 6, vd
        for (dx, dy), (ex, ey) in zip(edges, edges[1:] + edges[:1]):
            g = math.gcd(dx, dy)
            assert (dx // g, dy // g) in directions, vd
            assert dx * ey - dy * ex > 0, vd
    assert walked == 2133
