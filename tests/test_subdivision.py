"""Dual subdivisions: lift table, tiling, regularity, lattice predicates.

product_coefficients is checked against a brute force over all 3^n
ordered partitions. Regularity gets the injected-fault test (a lift
value bumped by one must be caught). The determined-face templates are
pinned by one frozen instance per slot, including elongated edges, and
by the frozen six-line near-pencil whose 13 cells exercise every face
class. The owner-grid checks (tiling, local regularity, determined-face
lookup) are compared with the global scans in tests/oracles.py on small
arrangements, tampered ones included.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from troplines.arrangement import (
    CellClass,
    CellPolygon,
    build_arrangement,
    polygon_edges,
)
from troplines.errors import NotATriangle, TilingFailure
from troplines.lines import Point2, line_from_vertex
from troplines.subdivision import (
    boundary_edge_count,
    check_regularity,
    check_regularity_detailed,
    determined_faces,
    determined_union_count,
    dual_subdivision,
    is_corner_triangle,
    is_near_pencil,
    product_coefficients,
    tile,
    triangle_base,
)

from oracles import (
    determined_faces_scan,
    regularity_scan,
    shares_edge,
    simplex_lattice_points,
    tiling_scan,
)


def _arr(*vertices):
    return build_arrangement([line_from_vertex(Point2(*v)) for v in vertices])


def _cell(cls, *verts):
    return CellPolygon(vertices=tuple(verts), cell_class=cls, dual_point=Point2(0, 0))


# ---------------------------------------------------------------------------
# lift table
# ---------------------------------------------------------------------------

def _brute_force_lift(arr):
    """max over all 3^n assignments of lines to x / y / const terms."""
    table = {}
    coeffs = [line.coefficients for line in arr.lines]
    for assignment in itertools.product((0, 1, 2), repeat=arr.n):
        i = sum(1 for a in assignment if a == 0)
        j = sum(1 for a in assignment if a == 1)
        value = sum(coeffs[idx][a] for idx, a in enumerate(assignment))
        key = (i, j)
        if key not in table or value > table[key]:
            table[key] = value
    return table


def test_lift_simplex_support_and_single_line():
    arr = _arr((0, 0))
    lift = product_coefficients(arr)
    assert set(lift) == set(simplex_lattice_points(1)) == {(0, 0), (1, 0), (0, 1)}
    assert all(v == 0 for v in lift.values())


def test_lift_worked_entries_for_two_lines():
    lift = product_coefficients(_arr((0, 0), (2, 1)))
    assert lift[(2, 0)] == -2
    assert lift[(1, 0)] == 0


def test_lift_matches_partition_brute_force():
    rng = random.Random(303)
    for _ in range(25):
        n = rng.randint(1, 4)
        verts = set()
        while len(verts) < n:
            verts.add((rng.randint(-5, 5), rng.randint(-5, 5)))
        arr = _arr(*verts)
        lift = product_coefficients(arr)
        assert set(lift) == set(simplex_lattice_points(n))
        assert lift == _brute_force_lift(arr)


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------

def test_single_line_subdivision_is_one_unit_triangle():
    sub = dual_subdivision(_arr((0, 0)))
    assert len(sub.cells) == 1
    assert sub.cells[0].vertices == ((0, 0), (1, 0), (0, 1))


def test_two_generic_lines_tile_with_three_cells():
    sub = dual_subdivision(_arr((0, 0), (2, 1)))
    got = [(c.cell_class, c.vertices, c.doubled_area()) for c in sub.cells]
    assert got == [
        (CellClass.TRIANGLE, ((0, 0), (1, 0), (0, 1)), 1),
        (CellClass.PARALLELOGRAM, ((0, 1), (1, 0), (1, 1), (0, 2)), 2),
        (CellClass.TRIANGLE, ((1, 0), (2, 0), (1, 1)), 1),
    ]
    assert sum(a for _, _, a in got) == 4


def test_tiling_holds_on_random_configurations():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 6)
        verts = set()
        while len(verts) < n:
            verts.add((rng.randint(-9, 9), rng.randint(-9, 9)))
        sub = dual_subdivision(_arr(*verts))
        assert sum(c.doubled_area() for c in sub.cells) == n * n
        for c in sub.cells:
            assert all(i >= 0 and j >= 0 and i + j <= n for i, j in c.vertices)


def test_missing_cell_is_a_tiling_failure():
    from troplines.arrangement import arrangement_vertices

    arr = _arr((0, 0), (2, 1))
    vds = arrangement_vertices(arr)
    with pytest.raises(TilingFailure, match="areas sum"):
        dual_subdivision(arr, vds[:-1])


def test_duplicated_cell_is_a_tiling_failure():
    from troplines.arrangement import arrangement_vertices

    arr = _arr((0, 0), (0, 2), (2, 0), (-2, -2))
    vds = arrangement_vertices(arr)
    triangles = [vd for vd in vds if vd.point != Point2(0, 0)]
    center = [vd for vd in vds if vd.point == Point2(0, 0)]
    # swap one unit triangle for a copy of another: areas still sum, the
    # copies overlap
    tampered = [triangles[0], triangles[0], triangles[2]] + center
    with pytest.raises(TilingFailure, match="overlap"):
        dual_subdivision(arr, tampered)


def test_cell_edge_outside_the_three_directions_is_a_tiling_failure():
    # inside 2*Delta_2 with areas summing to 4/2, but the first cell has
    # the edge (-2,1), so it is no union of unit triangles
    cells = [
        _cell(CellClass.TRIANGLE, (0, 0), (2, 0), (0, 1)),
        _cell(CellClass.TRIANGLE, (0, 1), (2, 0), (0, 2)),
    ]
    with pytest.raises(TilingFailure, match=r"edge \(-2,1\) outside the H/V/D"):
        tile(2, cells)


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

def test_regularity_holds_for_real_arrangements():
    for verts in [
        [(0, 0)],
        [(0, 0), (2, 1)],
        [(0, 0), (0, 2), (2, 0), (-2, -2)],
        [(3, -1), (0, 4), (-2, -2), (5, 5), (1, 1)],
    ]:
        sub = dual_subdivision(_arr(*verts))
        ok, diagnostic = check_regularity_detailed(sub)
        assert ok, diagnostic


def test_bumped_lift_value_fails_regularity():
    sub = dual_subdivision(_arr((0, 0), (2, 1)))
    assert check_regularity(sub)
    sub.lift[(1, 1)] += 1
    ok, diagnostic = check_regularity_detailed(sub)
    assert not ok
    assert diagnostic is not None


def test_clockwise_cell_fails_regularity():
    sub = dual_subdivision(_arr((0, 0)))
    flipped = CellPolygon(
        vertices=tuple(reversed(sub.cells[0].vertices)),
        cell_class=CellClass.TRIANGLE,
        dual_point=Point2(0, 0),
    )
    bad = dataclasses.replace(sub, cells=[flipped], lift=dict(sub.lift))
    ok, diagnostic = check_regularity_detailed(bad)
    assert not ok
    assert "counterclockwise" in diagnostic


# ---------------------------------------------------------------------------
# boundary predicates
# ---------------------------------------------------------------------------

def test_boundary_edge_count_cases():
    corner = _cell(CellClass.TRIANGLE, (0, 0), (1, 0), (0, 1))
    interior = _cell(CellClass.TRIANGLE, (1, 1), (2, 1), (1, 2))
    bottom = _cell(CellClass.TRIANGLE, (1, 0), (2, 0), (1, 1))
    assert boundary_edge_count(corner, 4) == 2
    assert boundary_edge_count(interior, 4) == 0
    assert boundary_edge_count(bottom, 4) == 1
    # at degree 1 the single cell hugs all three boundary lines
    assert boundary_edge_count(corner, 1) == 3


def test_corner_triangle_detection():
    corner = _cell(CellClass.TRIANGLE, (0, 0), (1, 0), (0, 1))
    bottom = _cell(CellClass.TRIANGLE, (1, 0), (2, 0), (1, 1))
    assert is_corner_triangle(corner, 4)
    assert not is_corner_triangle(bottom, 4)
    assert is_corner_triangle(corner, 1)
    par = _cell(CellClass.PARALLELOGRAM, (0, 0), (1, 0), (1, 1), (0, 1))
    assert not is_corner_triangle(par, 4)


def test_near_pencil_verdicts():
    assert is_near_pencil(dual_subdivision(_arr((0, 0), (0, 2), (2, 0), (-2, -2))))
    # one stable point escapes the boundary: the triangle dual to (1,2)
    # sits at conv{(1,1),(2,1),(1,2)}, strictly inside 4*simplex
    sub = dual_subdivision(_arr((0, 0), (0, 2), (1, 2), (2, 3)))
    assert not is_near_pencil(sub)
    inner = [
        c
        for c in sub.cells
        if c.cell_class is CellClass.TRIANGLE and boundary_edge_count(c, 4) == 0
    ]
    assert [c.vertices for c in inner] == [((1, 1), (2, 1), (1, 2))]


# ---------------------------------------------------------------------------
# edge sharing and triangle bases
# ---------------------------------------------------------------------------

def test_shares_edge_needs_positive_overlap():
    tri = _cell(CellClass.TRIANGLE, (0, 0), (1, 0), (0, 1))
    left = _cell(CellClass.PARALLELOGRAM, (0, 1), (1, 0), (1, 1), (0, 2))
    corner_touch = _cell(CellClass.TRIANGLE, (1, 0), (2, 0), (1, 1))
    assert shares_edge(tri, left)
    assert not shares_edge(tri, corner_touch)
    # partial overlap along a longer edge still counts
    tall = _cell(CellClass.PARALLELOGRAM, (0, 0), (1, 0), (1, 3), (0, 3))
    stub = _cell(CellClass.TRIANGLE, (1, 1), (2, 1), (1, 2))
    assert shares_edge(tall, stub)


def test_triangle_base_is_the_right_angle_corner():
    assert triangle_base(_cell(CellClass.TRIANGLE, (2, 3), (3, 3), (2, 4))) == (2, 3)
    with pytest.raises(NotATriangle):
        triangle_base(_cell(CellClass.PARALLELOGRAM, (0, 0), (1, 0), (1, 1), (0, 1)))


# ---------------------------------------------------------------------------
# determined faces
# ---------------------------------------------------------------------------

# six lines forming a near-pencil: 13 cells, every class represented
SIX_LINES = ((0, 0), (-2, -2), (-2, -6), (4, -6), (10, -4), (8, 0))

SIX_LINE_CELLS = [
    ((-2, -6), CellClass.NON_UNIFORM_5, ((0, 0), (2, 0), (2, 1), (1, 2), (0, 2)), 7),
    ((-2, -4), CellClass.PARALLELOGRAM, ((0, 2), (1, 2), (1, 3), (0, 3)), 2),
    ((-2, -2), CellClass.TRIANGLE, ((0, 3), (1, 3), (0, 4)), 1),
    ((0, -6), CellClass.PARALLELOGRAM, ((2, 0), (3, 0), (3, 1), (2, 1)), 2),
    ((0, -4), CellClass.HEXAGON, ((1, 2), (2, 1), (3, 1), (3, 2), (2, 3), (1, 3)), 6),
    ((0, 0), CellClass.NON_UNIFORM_5, ((0, 4), (1, 3), (2, 3), (2, 4), (0, 6)), 7),
    ((4, -6), CellClass.TRIANGLE, ((3, 0), (4, 0), (3, 1)), 1),
    ((4, 0), CellClass.PARALLELOGRAM, ((2, 3), (3, 2), (3, 3), (2, 4)), 2),
    ((6, -4), CellClass.PARALLELOGRAM, ((3, 1), (4, 0), (4, 1), (3, 2)), 2),
    ((8, -4), CellClass.PARALLELOGRAM, ((4, 0), (5, 0), (5, 1), (4, 1)), 2),
    ((8, -2), CellClass.PARALLELOGRAM, ((3, 2), (4, 1), (5, 1), (4, 2)), 2),
    ((8, 0), CellClass.TRIANGLE, ((3, 2), (4, 2), (3, 3)), 1),
    ((10, -4), CellClass.TRIANGLE, ((5, 0), (6, 0), (5, 1)), 1),
]


@pytest.fixture(scope="module")
def six_line_sub():
    return dual_subdivision(_arr(*SIX_LINES))


def test_six_line_near_pencil_cells(six_line_sub):
    got = [
        (tuple(c.dual_point), c.cell_class, c.vertices, c.doubled_area())
        for c in six_line_sub.cells
    ]
    assert got == SIX_LINE_CELLS
    assert is_near_pencil(six_line_sub)


def test_six_line_determined_faces(six_line_sub):
    by_dual = {tuple(c.dual_point): c for c in six_line_sub.cells}
    expected = {
        (-2, -2): [((0, 2), (1, 2), (1, 3), (0, 3))],
        (4, -6): [
            ((2, 0), (3, 0), (3, 1), (2, 1)),
            ((3, 1), (4, 0), (4, 1), (3, 2)),
        ],
        (8, 0): [
            ((2, 3), (3, 2), (3, 3), (2, 4)),
            ((3, 2), (4, 1), (5, 1), (4, 2)),
        ],
        (10, -4): [((4, 0), (5, 0), (5, 1), (4, 1))],
    }
    for dual_point, want in expected.items():
        got = [S.vertices for S in determined_faces(six_line_sub, by_dual[dual_point])]
        assert got == want, dual_point
    assert determined_union_count(six_line_sub) == 5


def test_determined_faces_rejects_non_triangles(six_line_sub):
    hexagon = next(
        c for c in six_line_sub.cells if c.cell_class is CellClass.HEXAGON
    )
    with pytest.raises(NotATriangle):
        determined_faces(six_line_sub, hexagon)


def test_pencil_like_triangles_determine_nothing():
    sub = dual_subdivision(_arr((0, 0), (0, 2), (2, 0), (-2, -2)))
    for T in sub.cells:
        if T.cell_class is CellClass.TRIANGLE:
            assert determined_faces(sub, T) == []
    assert determined_union_count(sub) == 0
    assert determined_union_count(dual_subdivision(_arr((0, 0)))) == 0


def test_corner_slot_anchored_below_the_base():
    # axis-aligned rectangle whose maximal corner is the triangle base;
    # both side lengths exceed one, exercising the elongation rule
    sub = dual_subdivision(_arr((0, 0), (0, -2), (-1, -2), (-2, -1)))
    T = next(
        c
        for c in sub.cells
        if c.cell_class is CellClass.TRIANGLE and triangle_base(c) == (1, 2)
    )
    det = determined_faces(sub, T)
    assert ((0, 0), (1, 0), (1, 2), (0, 2)) in [S.vertices for S in det]
    slot = next(S for S in det if S.vertices == ((0, 0), (1, 0), (1, 2), (0, 2)))
    assert not shares_edge(T, slot)
    assert any(
        abs(b[0] - a[0]) > 1 or abs(b[1] - a[1]) > 1
        for a, b in polygon_edges(slot.vertices)
    )


def test_corner_slot_anchored_above_the_base():
    # parallelogram spanned by vertical and antidiagonal steps, hanging
    # off the top corner of the triangle
    sub = dual_subdivision(_arr((0, 0), (0, 1), (1, 0), (2, 1)))
    T = next(
        c
        for c in sub.cells
        if c.cell_class is CellClass.TRIANGLE and c.vertices == ((2, 0), (3, 0), (2, 1))
    )
    det = [S.vertices for S in determined_faces(sub, T)]
    assert ((1, 2), (2, 1), (2, 2), (1, 3)) in det
    slot = next(S for S in sub.cells if S.vertices == ((1, 2), (2, 1), (2, 2), (1, 3)))
    assert not shares_edge(T, slot)


def test_corner_slot_anchored_right_of_the_base():
    # parallelogram spanned by horizontal and antidiagonal steps, hanging
    # off the right corner of the triangle
    sub = dual_subdivision(_arr((0, 0), (0, 1), (0, 2), (1, 3)))
    T = next(
        c
        for c in sub.cells
        if c.cell_class is CellClass.TRIANGLE and c.vertices == ((0, 2), (1, 2), (0, 3))
    )
    det = [S.vertices for S in determined_faces(sub, T)]
    assert ((1, 2), (2, 1), (3, 1), (2, 2)) in det
    slot = next(
        S for S in sub.cells if S.vertices == ((1, 2), (2, 1), (3, 1), (2, 2))
    )
    assert not shares_edge(T, slot)


def test_determined_faces_are_semiuniform_and_at_most_six():
    rng = random.Random(1234)
    for _ in range(30):
        verts = set()
        while len(verts) < 5:
            verts.add((rng.randint(-6, 6), rng.randint(-6, 6)))
        sub = dual_subdivision(_arr(*verts))
        for T in sub.cells:
            if T.cell_class is not CellClass.TRIANGLE:
                continue
            det = determined_faces(sub, T)
            assert len(det) <= 6
            assert all(
                S.cell_class in (CellClass.PARALLELOGRAM, CellClass.HEXAGON)
                for S in det
            )


# configurations whose corner-slot determinations include parallelograms
# with non-unit edges; only parallelograms edge-adjacent to two distinct
# triangles are forced to be unit, so these must pass the analysis clean
ELONGATED_SLOT_CONFIGS = [
    ((0, 0), (0, 2), (1, 2), (2, 1)),
    ((0, 0), (1, 2), (2, 0), (2, 1)),
]


@pytest.mark.parametrize("points", ELONGATED_SLOT_CONFIGS)
def test_elongated_corner_slots_are_not_unit_violations(points):
    from troplines.analysis import analyze_config
    from troplines.incidence import point_config

    record = analyze_config(point_config(points))
    assert record["violations"] == []


# ---------------------------------------------------------------------------
# the owner-grid checks against the global-scan oracles
# ---------------------------------------------------------------------------

half_integers = st.integers(-8, 8).map(lambda k: Fraction(k, 2))


def _tiles(check, n, cells):
    try:
        check(n, cells)
    except TilingFailure:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(half_integers, half_integers), min_size=1, max_size=7, unique=True),
    st.sampled_from(["real", "bump", "negated", "duplicate", "missing", "clockwise"]),
    st.randoms(use_true_random=False),
)
def test_owner_grid_checks_agree_with_the_global_scans(verts, case, rnd):
    sub = dual_subdivision(_arr(*verts))
    n, cells, lift = sub.n, list(sub.cells), dict(sub.lift)
    k = rnd.randrange(len(cells))
    if case == "bump":
        point = rnd.choice(sorted(lift))
        lift[point] += rnd.choice((-1, 1))
    elif case == "negated":
        # -h is still affine on every cell, so only the dominance test
        # across interior edges can reject it
        lift = {point: -value for point, value in lift.items()}
    elif case == "duplicate":
        # a copy of another cell of the same area keeps the area sum exact
        same = [
            c for i, c in enumerate(cells)
            if i != k and c.doubled_area() == cells[k].doubled_area()
        ]
        if same:
            cells[k] = rnd.choice(same)
        else:
            cells.append(cells[k])
    elif case == "missing":
        del cells[k]
    elif case == "clockwise":
        cells[k] = dataclasses.replace(cells[k], vertices=cells[k].vertices[::-1])

    tiles = _tiles(tile, n, cells)
    assert tiles == _tiles(tiling_scan, n, cells)
    if case in ("real", "bump", "negated", "clockwise"):
        tampered = dataclasses.replace(sub, cells=cells, lift=lift)
        ok, _ = check_regularity_detailed(tampered)
        assert ok == regularity_scan(n, cells, lift)[0]
        # a bump may leave a valid regular subdivision, and so may -h on
        # a single cell
        if case == "negated":
            assert ok == (len(cells) == 1)
        elif case != "bump":
            assert ok == (case == "real")
    if case == "real":
        assert tiles
        for T in sub.cells:
            if T.cell_class is CellClass.TRIANGLE:
                assert determined_faces(sub, T) == determined_faces_scan(sub.cells, T)
