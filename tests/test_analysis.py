"""The per-configuration analysis record and its violation suites."""

import random

import pytest

import troplines.analysis as analysis
import troplines.arrangement as arrangement
import troplines.subdivision as subdivision
from troplines.analysis import analyze_config
from troplines.arrangement import Counts, verify_count_identities
from troplines.incidence import dualize_points, point_config

RECORD_KEYS = {
    "v",
    "t",
    "triangles",
    "b",
    "k",
    "h",
    "ordinary",
    "near_pencil",
    "bound_holds",
    "equality",
    "consistent",
    "excess",
    "violations",
}


def test_pencil_record_is_frozen():
    record = analyze_config(point_config([(0, 0), (0, -2), (-2, 0), (2, 2)]))
    assert record == {
        "v": 4,
        "t": 4,
        "triangles": 3,
        "b": 1,
        "k": 0,
        "h": 1,
        "ordinary": 0,
        "near_pencil": True,
        "bound_holds": True,
        "equality": True,
        "consistent": True,
        "excess": 0,
        "violations": [],
    }


def test_record_schema():
    record = analyze_config(point_config([(0, 0), (1, 3), (3, 1), (5, 4)]))
    assert set(record) == RECORD_KEYS
    for key in ("v", "t", "triangles", "b", "k", "h", "ordinary", "excess"):
        assert isinstance(record[key], int), key
    for key in ("near_pencil", "bound_holds", "equality", "consistent"):
        assert isinstance(record[key], bool), key
    assert isinstance(record["violations"], list)


def test_excess_arithmetic():
    record = analyze_config(point_config([(0, 0), (1, 3), (3, 1), (5, 4)]))
    assert record["excess"] == record["b"] - (record["v"] - 3)
    assert record["bound_holds"] == (record["excess"] >= 0)
    assert record["equality"] == (record["excess"] == 0)
    assert record == analyze_config(
        point_config([(0, 0), (1, 3), (3, 1), (5, 4)])
    )


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0), (1, 0)],
        [(0, 0), (4, 0), (0, 4)],
        [(0, 0), (0, -2), (-1, -2), (-2, -3)],
        [(0, 0), (2, 2), (2, 6), (-4, 6), (-10, 4), (-8, 0)],
        [(0, 0), (0, 2), (1, 2), (2, 1)],
        [(0, 0), (1, 2), (2, 0), (2, 1)],
    ],
)
def test_known_configurations_have_no_violations(points):
    record = analyze_config(point_config(points))
    assert record["violations"] == []
    assert record["consistent"]


def test_small_configurations_skip_the_bound_suites():
    # with fewer than four points the bound statement is vacuous, so the
    # record carries the flags but never emits bound or near_pencil rows
    for points in ([(5, 5), (-3, 2)], [(0, 0), (1, 0), (2, 0)]):
        record = analyze_config(point_config(points))
        assert record["v"] < 4
        assert record["bound_holds"]
        assert record["violations"] == []
        assert isinstance(record["near_pencil"], bool)


def test_random_configurations_have_no_violations():
    rng = random.Random(404)
    for _ in range(40):
        n = rng.randint(2, 7)
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(-10, 10), rng.randint(-10, 10)))
        record = analyze_config(point_config(sorted(pts)))
        assert record["violations"] == [], (sorted(pts), record["violations"])


def test_forty_eight_points_have_no_violations():
    # the pure reference at a size the compiled kernel also takes; the
    # kernel's own agreement tests compare the two up to 128 points
    rng = random.Random(48)
    pts = set()
    while len(pts) < 48:
        pts.add((rng.randint(-1000, 1000), rng.randint(-1000, 1000)))
    record = analyze_config(point_config(sorted(pts)))
    assert record["violations"] == []
    counts = Counts(
        n=48, t=record["t"], triangles=record["triangles"],
        b=record["b"], k=record["k"], h=record["h"],
    )
    assert verify_count_identities(counts) == []
    assert record["bound_holds"] and record["b"] > 48


def test_near_pencil_violation_wording(monkeypatch):
    # force the shape test to lie, no triangle touching the boundary, so
    # the equality case trips the suite
    monkeypatch.setattr(analysis, "boundary_edge_count", lambda cell, n: 0)
    record = analyze_config(point_config([(0, 0), (0, -2), (-2, 0), (2, 2)]))
    assert record["consistent"] is False
    assert ["near_pencil", "b=v-3=1 but subdivision is not a near-pencil"] in (
        record["violations"]
    )


def test_each_vertex_is_classified_once_per_analysis(monkeypatch):
    # the analysis builds each vertex's dual cell once, and the counts and
    # the subdivision both read it: a second classification pass over the
    # vertices shows up as a repeated point
    classify = arrangement.classify_cell
    calls = []

    def spy(vd):
        calls.append(vd.point)
        return classify(vd)

    monkeypatch.setattr(arrangement, "classify_cell", spy)
    monkeypatch.setattr(analysis, "classify_cell", spy, raising=False)
    rng = random.Random(3)
    for _ in range(20):
        pts = set()
        while len(pts) < 7:
            pts.add((rng.randint(-20, 20), rng.randint(-20, 20)))
        calls.clear()
        result = analysis.analyze_arrangement(dualize_points(point_config(sorted(pts))))
        assert result.sub is not None
        assert sorted(calls) == [vd.point for vd in result.vertex_data]


def test_each_triangle_is_read_once_per_analysis(monkeypatch):
    # the triangle loop reads a triangle's edge owners and its boundary
    # count once, and takes the near-pencil shape, the determined faces and
    # the parallelogram tally from them
    calls = {"triangle_neighbours": 0, "boundary_edge_count": 0}
    for name in calls:
        real = getattr(subdivision, name)

        def spy(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(subdivision, name, spy)
        monkeypatch.setattr(analysis, name, spy)
    rng = random.Random(1)
    triangles = 0
    for _ in range(60):
        pts = set()
        while len(pts) < 7:
            pts.add((rng.randint(-20, 20), rng.randint(-20, 20)))
        for name in calls:
            calls[name] = 0
        record = analyze_config(point_config(sorted(pts)))
        assert calls == dict.fromkeys(calls, record["triangles"]), sorted(pts)
        triangles += record["triangles"]
    assert triangles > 60
