"""Point-side duality: stable lines through configurations and the bound.

The two independent routes to a stable line through two points, the
tropical Cramer rule and the stable intersection of the dual
arrangement, must agree pair by pair. Coaxial pairs in all three
directions are forced into the sample because they take the closed-form
branch.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import troplines.incidence as incidence
from troplines.errors import EqualPoints, TooFewPoints
from troplines.incidence import (
    PointConfig,
    StableLineKind,
    cramer_stable_line,
    dbe_check,
    dualize_points,
    ordinary_stable_lines,
    point_config,
    stable_lines_through,
)
from troplines.lines import Point2, contains, line_from_vertex

from oracles import coordinate_sets, counts, incidence_preserved, incident_lines_scan

# four points whose dual lines all pass through the origin: one stable
# line carries all of them
FOUR_POINT_PENCIL = [(0, 0), (0, -2), (-2, 0), (2, 2)]


def test_point_config_validation():
    cfg = point_config([(0, 0), (1, 2)])
    assert cfg.v == 2
    with pytest.raises(TooFewPoints):
        PointConfig(())
    with pytest.raises(EqualPoints) as err:
        point_config([(0, 0), (1, 1), (0, 0)])
    assert err.value.index == 2
    assert err.value.earlier == 0


def test_dualize_points_negates_vertices():
    assert dualize_points(point_config([(0, 0)])).lines[0].vertex == Point2(0, 0)
    assert dualize_points(point_config([(1, -2)])).lines[0].vertex == Point2(-1, 2)
    arr = dualize_points(point_config(FOUR_POINT_PENCIL))
    assert [line.vertex for line in arr.lines] == [
        Point2(0, 0),
        Point2(0, 2),
        Point2(2, 0),
        Point2(-2, -2),
    ]


@settings(max_examples=80, deadline=None)
@given(coords=coordinate_sets(max_size=14))
def test_incident_lines_match_the_argmax_scan(coords):
    # the buckets find each stable point's lines; the scan evaluates all
    assume(len(coords) >= 2)
    cfg = point_config(coords)
    arr = dualize_points(cfg)
    for record in stable_lines_through(cfg):
        q = Point2(-record.line.vertex.x, -record.line.vertex.y)
        assert record.incident == incident_lines_scan(arr, q), q


def test_dualize_is_an_involution():
    pts = [(3, -1), (0, 5), (-2, -2)]
    arr = dualize_points(point_config(pts))
    back = dualize_points(
        point_config([(-line.vertex.x, -line.vertex.y) for line in arr.lines])
    )
    assert [(-l.vertex.x, -l.vertex.y) for l in back.lines] == [
        tuple(p) for p in point_config(pts).points
    ]


def test_incidence_preserved_cases():
    assert incidence_preserved(Point2(0, 0), Point2(0, 0))
    assert incidence_preserved(Point2(-2, 0), Point2(0, 0))
    assert not incidence_preserved(Point2(1, 2), Point2(0, 0))


def test_incidence_preservation_is_symmetric_on_randoms():
    rng = random.Random(31)
    for _ in range(200):
        p = Point2(rng.randint(-9, 9), rng.randint(-9, 9))
        q = Point2(rng.randint(-9, 9), rng.randint(-9, 9))
        # the function asserts symmetry internally; this drives it
        incidence_preserved(p, q)


def test_pencil_has_one_stable_line_through_all_points():
    records = stable_lines_through(point_config(FOUR_POINT_PENCIL))
    assert len(records) == 1
    record = records[0]
    assert record.line.vertex == Point2(0, 0)
    assert record.incident == frozenset({0, 1, 2, 3})
    assert record.kind is StableLineKind.VERTEX_WITNESSED
    for p in FOUR_POINT_PENCIL:
        assert contains(record.line, Point2(*p))


def test_two_point_records():
    generic = stable_lines_through(point_config([(0, 0), (1, 3)]))
    assert len(generic) == 1
    assert generic[0].kind is StableLineKind.UNIQUELY_DETERMINED
    coaxial = stable_lines_through(point_config([(-3, 2), (-1, 2)]))
    assert len(coaxial) == 1
    assert coaxial[0].line.vertex == Point2(-1, 2)
    assert coaxial[0].kind is StableLineKind.VERTEX_WITNESSED
    with pytest.raises(TooFewPoints):
        stable_lines_through(point_config([(0, 0)]))


def _random_distinct_points(rng, n, span=9):
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(-span, span), rng.randint(-span, span)))
    return point_config(sorted(pts))


def test_stable_line_count_equals_dual_intersection_count():
    rng = random.Random(61)
    for _ in range(60):
        cfg = _random_distinct_points(rng, rng.randint(2, 7))
        records = stable_lines_through(cfg)
        assert len(records) == counts(dualize_points(cfg)).b
        vertices = [r.line.vertex for r in records]
        assert vertices == sorted(vertices)


def test_vertex_witnessed_means_a_point_sits_at_the_vertex():
    rng = random.Random(62)
    for _ in range(60):
        cfg = _random_distinct_points(rng, rng.randint(2, 6))
        for record in stable_lines_through(cfg):
            witnessed = any(
                cfg.points[i] == record.line.vertex for i in record.incident
            )
            assert witnessed == (record.kind is StableLineKind.VERTEX_WITNESSED)
            for i in record.incident:
                assert contains(record.line, cfg.points[i])


def test_ordinary_lines_filter():
    assert len(ordinary_stable_lines(point_config([(0, 0), (4, 1)]))) == 1
    assert ordinary_stable_lines(point_config(FOUR_POINT_PENCIL)) == []


@pytest.mark.parametrize(
    "witness",
    [
        ((0, 1), (1, 0), (1, 1), (2, 2)),
        ((0, 0), (0, 1), (0, 2), (1, 2), (2, 3)),
    ],
)
def test_known_configurations_without_ordinary_lines(witness):
    cfg = point_config(witness)
    assert ordinary_stable_lines(cfg) == []
    # every stable line through these points carries at least three
    for record in stable_lines_through(cfg):
        assert len(record.incident) >= 3


def test_cramer_line_worked_example():
    line = cramer_stable_line(Point2(-3, 2), Point2(-1, 2))[1]
    assert line.vertex == Point2(-1, 2)


scalars = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)
points = st.builds(Point2, scalars, scalars)


@given(points, points, scalars, scalars)
def test_cramer_line_translates_with_its_points(p1, p2, s, t):
    assume(p1 != p2)
    (o1, o2, o3), line = cramer_stable_line(p1, p2)
    moved = cramer_stable_line(Point2(p1.x + s, p1.y + t), Point2(p2.x + s, p2.y + t))
    assert moved == ((o1 + t, o2 + s, o3 + s + t),
                     line_from_vertex(Point2(line.vertex.x + s, line.vertex.y + t)))


def test_cramer_line_diagonal_coaxial_pair():
    # both points on the northeast ray: the stable line's vertex is the
    # southwestern point (a vertex at (2,2) could not contain (0,0))
    line = cramer_stable_line(Point2(0, 0), Point2(2, 2))[1]
    assert line.vertex == Point2(0, 0)
    assert contains(line, Point2(0, 0)) and contains(line, Point2(2, 2))


def test_cramer_line_rejects_equal_points():
    with pytest.raises(EqualPoints):
        cramer_stable_line(Point2(1, 1), Point2(1, 1))


def test_cramer_agrees_with_dual_route_on_forced_samples():
    rng = random.Random(63)
    cases = 0
    while cases < 500:
        p1 = Point2(rng.randint(-12, 12), rng.randint(-12, 12))
        roll = rng.randrange(4)
        if roll == 0:
            p2 = Point2(rng.randint(-12, 12), p1.y)  # shared horizontal axis
        elif roll == 1:
            p2 = Point2(p1.x, rng.randint(-12, 12))  # shared vertical axis
        elif roll == 2:
            d = rng.randint(-12, 12)
            p2 = Point2(p1.x + d, p1.y + d)  # shared diagonal axis
        else:
            p2 = Point2(rng.randint(-12, 12), rng.randint(-12, 12))
        if p1 == p2:
            continue
        cases += 1
        records = stable_lines_through(point_config([p1, p2]))
        assert len(records) == 1
        assert cramer_stable_line(p1, p2)[1] == records[0].line


def test_bound_verdicts():
    pencil = dbe_check(point_config(FOUR_POINT_PENCIL))
    assert (pencil.v, pencil.b) == (4, 1)
    assert pencil.bound_holds and pencil.equality
    assert pencil.near_pencil and pencil.consistent

    generic = dbe_check(point_config([(0, 0), (1, 3), (3, 1), (5, 4)]))
    assert (generic.v, generic.b) == (4, 6)
    assert generic.bound_holds and not generic.equality and generic.consistent

    # near-pencil with slack: the bound is strict yet the subdivision is
    # still a near-pencil, so equality is not necessary for the shape
    slack = dbe_check(
        point_config([(0, 0), (2, 2), (2, 6), (-4, 6), (-10, 4), (-8, 0)])
    )
    assert (slack.v, slack.b) == (6, 9)
    assert slack.near_pencil and not slack.equality and slack.consistent

    # not a near-pencil: consistency then demands strict inequality
    loose = dbe_check(point_config([(0, 0), (0, -2), (-1, -2), (-2, -3)]))
    assert not loose.near_pencil
    assert loose.b > loose.v - 3
    assert loose.consistent


def test_bound_check_dualizes_once(monkeypatch):
    # the subdivision and the stable lines read one dual arrangement
    dualize = incidence.dualize_points
    calls = []

    def spy(cfg):
        calls.append(cfg)
        return dualize(cfg)

    monkeypatch.setattr(incidence, "dualize_points", spy)
    verdict = dbe_check(point_config(FOUR_POINT_PENCIL))
    assert len(calls) == 1
    assert (verdict.b, verdict.near_pencil) == (1, True)


def test_bound_check_needs_four_points():
    with pytest.raises(TooFewPoints):
        dbe_check(point_config([(0, 0), (1, 0), (0, 1)]))
