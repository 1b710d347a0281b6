"""The per-configuration analysis record and its violation suites."""

import random

import pytest

import troplines.analysis as analysis
from troplines.analysis import analyze_config
from troplines.arrangement import Counts, verify_count_identities
from troplines.incidence import point_config

RECORD_KEYS = {
    "v",
    "t",
    "triangles",
    "b",
    "k",
    "h",
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
    for key in ("v", "t", "triangles", "b", "k", "h", "excess"):
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
    # force the shape test to lie so the equality case trips the suite
    monkeypatch.setattr(analysis, "is_near_pencil", lambda sub: False)
    record = analyze_config(point_config([(0, 0), (0, -2), (-2, 0), (2, 2)]))
    assert record["consistent"] is False
    assert ["near_pencil", "b=v-3=1 but subdivision is not a near-pencil"] in (
        record["violations"]
    )
