"""Tropical line geometry and stable intersections.

The closed-form coaxial rule in pairwise_stable_intersection is a derived
formula, so the load-bearing test here is the perturbation oracle: the
stable point must equal the exact eps -> 0 limit of transversal
intersections with a shifted copy, for several shift directions. The
crossing point moves linearly in eps below every geometric breakpoint,
so two samples determine the limit exactly and two sample pairs detect a
straddled breakpoint.
"""

import itertools
import random
from fractions import Fraction

import pytest

from troplines.errors import EqualPoints, IdenticalLines
from troplines.lines import (
    IntersectionKind,
    Point2,
    TropicalLine,
    coaxial_points,
    contains,
    eval_argmax,
    line_from_vertex,
    pairwise_stable_intersection,
    ray_crossings,
)

from oracles import (
    NotTransversal,
    generic_ray_crossings,
    lines_through_point,
    perturbed_intersection_oracle,
    point_add,
    point_scale,
    point_sub,
)


def test_point_arithmetic():
    p = Point2(1, 2)
    q = Point2(Fraction(1, 2), -3)
    assert point_add(p, q) == Point2(Fraction(3, 2), -1)
    assert point_sub(p, q) == Point2(Fraction(1, 2), 5)
    assert point_scale(q, 2) == Point2(1, -6)


def test_vertex_round_trip():
    for v in [(0, 0), (-1, 2), (Fraction(3, 2), -5)]:
        line = line_from_vertex(Point2(*v))
        assert line.vertex == Point2(*v)


def test_coefficients_are_normalized_to_constant_zero():
    assert line_from_vertex(Point2(0, 0)).coefficients == (0, 0, 0)
    assert line_from_vertex(Point2(-1, 2)).coefficients == (1, -2, 0)


def test_eval_argmax_cases():
    L0 = line_from_vertex(Point2(0, 0))
    assert eval_argmax(L0, Point2(0, 0)) == (0, frozenset({1, 2, 3}))
    assert eval_argmax(line_from_vertex(Point2(0, 2)), Point2(0, 0))[1] == frozenset(
        {1, 3}
    )
    value, members = eval_argmax(line_from_vertex(Point2(2, 0)), Point2(5, 1))
    assert (value, members) == (3, frozenset({1}))


def test_contains_on_rays_and_off_line():
    L = line_from_vertex(Point2(0, 0))
    assert contains(L, Point2(-4, 0))
    assert contains(L, Point2(0, -7))
    assert contains(L, Point2(3, 3))
    assert contains(L, L.vertex)
    assert not contains(L, Point2(1, 2))
    assert not contains(L, Point2(-1, -2))


def test_ray_midpoints_are_contained():
    for vx, vy in [(0, 0), (-3, 5), (Fraction(1, 2), Fraction(-7, 3))]:
        L = line_from_vertex(Point2(vx, vy))
        for d in (Point2(-1, 0), Point2(0, -1), Point2(1, 1)):
            assert contains(L, point_add(L.vertex, d))
            assert contains(L, point_add(L.vertex, point_scale(d, Fraction(13, 7))))


def test_coaxial_points_cases():
    assert coaxial_points(Point2(-3, 2), Point2(-1, 2)) is True
    assert coaxial_points(Point2(0, 0), Point2(0, -2)) is True
    assert coaxial_points(Point2(0, 0), Point2(5, 5)) is True
    assert coaxial_points(Point2(0, 0), Point2(1, 2)) is False
    with pytest.raises(EqualPoints):
        coaxial_points(Point2(1, 1), Point2(1, 1))


def test_distinct_points_share_at_most_one_axis():
    # the three coaxiality conditions are mutually exclusive off the diagonal
    span = range(-2, 3)
    for p in itertools.product(span, span):
        for q in itertools.product(span, span):
            if p == q:
                continue
            hits = [p[1] == q[1], p[0] == q[0], p[0] - q[0] == p[1] - q[1]]
            assert sum(hits) <= 1, (p, q)


def test_transversal_intersection_example():
    result = pairwise_stable_intersection(
        line_from_vertex(Point2(0, 0)), line_from_vertex(Point2(2, 1))
    )
    assert result.point == Point2(1, 1)
    assert result.kind is IntersectionKind.FIRST


@pytest.mark.parametrize(
    "v1, v2, expected",
    [
        # same y: the westernmost vertex
        ((0, 0), (-2, 0), (-2, 0)),
        ((-2, 0), (0, 0), (-2, 0)),
        # same x: the southernmost vertex
        ((0, 0), (0, -2), (0, -2)),
        ((0, 3), (0, 0), (0, 0)),
        # difference parallel to (1,1): the northeast-most vertex
        ((0, 0), (3, 3), (3, 3)),
        ((5, 6), (2, 3), (5, 6)),
    ],
)
def test_coaxial_intersection_picks_the_witness_vertex(v1, v2, expected):
    result = pairwise_stable_intersection(
        line_from_vertex(Point2(*v1)), line_from_vertex(Point2(*v2))
    )
    assert result.point == Point2(*expected)
    assert result.kind is IntersectionKind.SECOND


def test_identical_lines_rejected():
    L = line_from_vertex(Point2(1, 1))
    with pytest.raises(IdenticalLines):
        pairwise_stable_intersection(L, line_from_vertex(Point2(1, 1)))
    with pytest.raises(IdenticalLines):
        perturbed_intersection_oracle(L, L, Fraction(1, 8), Point2(1, 3))


def test_oracle_rejects_nonpositive_eps_and_degenerate_shifts():
    L1 = line_from_vertex(Point2(0, 0))
    L2 = line_from_vertex(Point2(3, 3))
    with pytest.raises(ValueError):
        perturbed_intersection_oracle(L1, L2, 0, Point2(1, 3))
    # shifting along the shared axis keeps the pair degenerate
    with pytest.raises(NotTransversal):
        perturbed_intersection_oracle(L1, L2, Fraction(1, 8), Point2(1, 1))


def test_oracle_worked_shifts():
    L1 = line_from_vertex(Point2(0, 0))
    L2 = line_from_vertex(Point2(-2, 0))
    assert perturbed_intersection_oracle(L1, L2, Fraction(1, 8), Point2(0, 1)) == Point2(
        -2, 0
    )
    assert perturbed_intersection_oracle(
        L1, L2, Fraction(1, 8), Point2(0, -1)
    ) == Point2(-2 + Fraction(1, 8), 0)
    # transversal pairs are eps-stable toward the crossing
    L3 = line_from_vertex(Point2(2, 1))
    eps = Fraction(1, 16)
    assert perturbed_intersection_oracle(L1, L3, eps, Point2(0, 1)) == Point2(
        1 + eps, 1 + eps
    )


def _extrapolated_limit(L1, L2, direction, eps):
    """Exact eps -> 0 limit of the perturbed crossing, from two samples.

    On the linear branch p(e) = limit + e*w, so 2*p(e/2) - p(e) = limit.
    """
    big = perturbed_intersection_oracle(L1, L2, eps, direction)
    small = perturbed_intersection_oracle(L1, L2, eps / 2, direction)
    return point_sub(point_scale(small, 2), big)


# direction components stay within +-3 so that, for integer vertices,
# every breakpoint of the crossing's eps-branch sits at eps >= 1/3 and
# the samples below 1/4 are all on the final linear branch
_DIRECTIONS = (Point2(1, 3), Point2(2, -1), Point2(-3, 1))


def test_stable_point_is_the_perturbation_limit():
    rng = random.Random(20260821)
    tested = 0
    while tested < 1000:
        v1 = Point2(rng.randint(-10, 10), rng.randint(-10, 10))
        v2 = Point2(rng.randint(-10, 10), rng.randint(-10, 10))
        if v1 == v2:
            continue
        tested += 1
        L1, L2 = line_from_vertex(v1), line_from_vertex(v2)
        stable = pairwise_stable_intersection(L1, L2)
        for direction in _DIRECTIONS[:2]:
            first = _extrapolated_limit(L1, L2, direction, Fraction(1, 8))
            second = _extrapolated_limit(L1, L2, direction, Fraction(1, 16))
            assert first == second, (v1, v2, direction)
            assert first == stable.point, (v1, v2, direction)


def test_coaxial_limits_agree_across_all_directions():
    # forced coaxial pairs in each direction, checked against all three
    # generic shift directions at once
    pairs = [
        (Point2(-7, 4), Point2(2, 4)),
        (Point2(3, -1), Point2(3, 8)),
        (Point2(-2, -5), Point2(4, 1)),
    ]
    for v1, v2 in pairs:
        assert coaxial_points(v1, v2)
        L1, L2 = line_from_vertex(v1), line_from_vertex(v2)
        stable = pairwise_stable_intersection(L1, L2)
        assert stable.kind is IntersectionKind.SECOND
        for direction in _DIRECTIONS:
            assert _extrapolated_limit(L1, L2, direction, Fraction(1, 8)) == stable.point


def test_intersection_is_symmetric_and_on_both_lines():
    rng = random.Random(7)
    for _ in range(300):
        v1 = Point2(rng.randint(-8, 8), rng.randint(-8, 8))
        v2 = Point2(rng.randint(-8, 8), rng.randint(-8, 8))
        if v1 == v2:
            continue
        L1, L2 = line_from_vertex(v1), line_from_vertex(v2)
        r12 = pairwise_stable_intersection(L1, L2)
        r21 = pairwise_stable_intersection(L2, L1)
        assert r12 == r21
        assert contains(L1, r12.point) and contains(L2, r12.point)
        assert (r12.kind is IntersectionKind.SECOND) == coaxial_points(v1, v2)


def test_non_coaxial_pairs_have_one_transversal_crossing():
    rng = random.Random(11)
    seen_coaxial_sizes = set()
    for _ in range(400):
        v1 = Point2(rng.randint(-6, 6), rng.randint(-6, 6))
        v2 = Point2(rng.randint(-6, 6), rng.randint(-6, 6))
        if v1 == v2:
            continue
        crossings = ray_crossings(line_from_vertex(v1), line_from_vertex(v2))
        if not coaxial_points(v1, v2):
            assert len(crossings) == 1
            assert crossings.pop() not in (v1, v2)
        else:
            seen_coaxial_sizes.add(len(crossings))
    assert seen_coaxial_sizes <= {0, 1, 2}


def test_ray_crossings_match_the_nine_pair_solver():
    rng = random.Random(8)
    for trial in range(3000):
        spread = (2, 3, 50)[trial % 3]
        den = 1 if trial % 4 else rng.randint(2, 5)
        v1, v2 = (
            Point2(Fraction(rng.randint(-spread, spread), den),
                   Fraction(rng.randint(-spread, spread), den))
            for _ in range(2)
        )
        L1, L2 = line_from_vertex(v1), line_from_vertex(v2)
        assert ray_crossings(L1, L2) == generic_ray_crossings(L1, L2), (v1, v2)


def test_lines_through_point_reports_indices():
    lines = [
        line_from_vertex(Point2(0, 0)),
        line_from_vertex(Point2(2, 1)),
        line_from_vertex(Point2(9, 9)),
    ]
    assert lines_through_point(lines, Point2(1, 1)) == [0, 1]
    assert lines_through_point(lines, Point2(100, -100)) == []
