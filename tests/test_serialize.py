"""JSON input parsing, error wording, and report shapes."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from troplines.errors import DuplicateLine, EqualPoints, InputFormatError
from troplines import analysis, incidence, subdivision
from troplines.incidence import dbe_check, point_config
from troplines.lines import Point2
from troplines.serialize import (
    analyze_report,
    dualize_points,
    load_input,
    parse_input,
    parse_rational,
    point_to_json,
    rational_to_json,
    subdivision_to_json,
    sweep_line_json,
)
from troplines.subdivision import dual_subdivision

from oracles import SUITES, sweep_line_spec


@pytest.mark.parametrize(
    "value,expected",
    [
        (7, 7),
        (-3, -3),
        ("1/2", Fraction(1, 2)),
        ("-9/6", Fraction(-3, 2)),
        ("4/2", 2),
        ("0/5", 0),
        (" 1/2", Fraction(1, 2)),
        ("+3/4", Fraction(3, 4)),
        ("1/-2", Fraction(-1, 2)),
    ],
)
def test_parse_rational_accepts(value, expected):
    got = parse_rational(value, "here")
    assert got == expected
    assert type(got) is type(expected)


@pytest.mark.parametrize(
    "value,fragment",
    [
        (True, "expected a number, got a boolean"),
        (1.5, "floats are not exact"),
        ("3", 'rational strings look like "p/q"'),
        ("a/b", "integer"),
        ("1/0", "zero denominator"),
        (None, "expected a number, got NoneType"),
        # int() alone takes digit separators and any Unicode decimal digit
        ("1_0/3", 'rational strings look like "p/q" with integer parts'),
        ("\u0661/\u0662", 'rational strings look like "p/q" with integer parts'),
    ],
)
def test_parse_rational_rejects_with_named_field(value, fragment):
    with pytest.raises(InputFormatError) as err:
        parse_rational(value, "points[3][1]")
    assert str(err.value).startswith("points[3][1]: ")
    assert fragment in str(err.value)


def test_rational_round_trip():
    for r in (0, -12, Fraction(5, 3), Fraction(-7, 2)):
        assert parse_rational(rational_to_json(r), "x") == r
    assert point_to_json(Point2(Fraction(1, 2), -3)) == ["1/2", -3]


def test_parse_points_input():
    kind, cfg = parse_input({"points": [[0, 0], ["1/2", 3]]})
    assert kind == "points"
    assert cfg.points == (Point2(0, 0), Point2(Fraction(1, 2), 3))


def test_parse_lines_input():
    kind, arr = parse_input({"lines": [{"vertex": [2, -1]}, {"vertex": [0, 0]}]})
    assert kind == "lines"
    assert [l.vertex for l in arr.lines] == [Point2(2, -1), Point2(0, 0)]


@pytest.mark.parametrize(
    "data,fragment",
    [
        ([1, 2], "top level: expected an object"),
        ({}, 'exactly one of the keys "lines" and "points"'),
        ({"lines": [], "points": []}, 'exactly one of the keys'),
        ({"points": []}, "points: expected a non-empty list"),
        ({"lines": "x"}, "lines: expected a non-empty list"),
        ({"lines": [{"apex": [0, 0]}]}, 'lines[0]: expected an object with a "vertex" field'),
        ({"lines": [{"vertex": [0]}]}, "lines[0].vertex: expected a pair [x, y]"),
        ({"points": [[0, 0], [1, 2, 3]]}, "points[1]: expected a pair [x, y]"),
        ({"points": [[0, "1/0"]]}, "points[0][1]: zero denominator"),
        ({"points": [["1_0/3", 2]]}, "points[0][0]: rational strings look like"),
        ({"points": [["\u0661/\u0662", 0]]}, "points[0][0]: rational strings look like"),
    ],
)
def test_parse_input_errors_name_the_field(data, fragment):
    with pytest.raises(InputFormatError) as err:
        parse_input(data)
    assert fragment in str(err.value)


def test_parse_input_surfaces_duplicates():
    with pytest.raises(EqualPoints):
        parse_input({"points": [[0, 0], [1, 1], [0, 0]]})
    with pytest.raises(DuplicateLine):
        parse_input({"lines": [{"vertex": [0, 0]}, {"vertex": [0, 0]}]})


def test_load_input(tmp_path):
    good = tmp_path / "pts.json"
    good.write_text('{"points": [[0, 0], [2, 1]]}')
    kind, cfg = load_input(str(good))
    assert (kind, cfg.v) == ("points", 2)

    empty = tmp_path / "empty.json"
    empty.write_text("  \n")
    with pytest.raises(InputFormatError, match="empty input file"):
        load_input(str(empty))

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(InputFormatError, match="invalid JSON"):
        load_input(str(broken))


def test_subdivision_json_shape():
    arr = dualize_points(point_config([(0, 0), (0, -2), (-2, 0), (2, 2)]))
    payload = subdivision_to_json(dual_subdivision(arr))
    assert payload["n"] == 4
    assert {c["class"] for c in payload["cells"]} >= {"Triangle"}
    for cell in payload["cells"]:
        assert len(cell["dual_point"]) == 2
        assert all(len(v) == 2 for v in cell["vertices"])
    # lift entries are sorted lattice points with their heights
    lattice = [tuple(entry[:2]) for entry in payload["lift"]]
    assert lattice == sorted(lattice)
    assert len(lattice) == (4 + 1) * (4 + 2) // 2
    json.dumps(payload)  # must already be JSON-ready


def test_analyze_report_for_points():
    report = analyze_report("points", point_config([(0, 0), (0, -2), (-2, 0), (2, 2)]))
    assert report["input"] == "points"
    assert report["counts"] == {"n": 4, "t": 4, "triangles": 3, "b": 1, "k": 0, "h": 1}
    assert report["near_pencil"] is True
    assert report["dbe"] == {
        "v": 4,
        "b": 1,
        "bound_holds": True,
        "equality": True,
        "near_pencil": True,
        "consistent": True,
    }
    assert len(report["vertices"]) == 4
    for vd in report["vertices"]:
        assert vd["c"] + vd["s_a"] + vd["s_b"] + vd["s_c"] <= 4
        assert len(vd["type"]) == 4


def test_points_report_builds_the_subdivision_once(monkeypatch):
    cfg = point_config([(0, 0), (0, -2), (-2, 0), (2, 2), (3, 7), (-4, 1)])
    expected = dbe_check(cfg)
    built = []

    def spy(*args, **kwargs):
        built.append(args)
        return subdivision.dual_subdivision(*args, **kwargs)

    for module in (analysis, incidence):
        monkeypatch.setattr(module, "dual_subdivision", spy)
    report = analyze_report("points", cfg)
    assert len(built) == 1
    assert report["dbe"] == {
        "v": expected.v,
        "b": expected.b,
        "bound_holds": expected.bound_holds,
        "equality": expected.equality,
        "near_pencil": expected.near_pencil,
        "consistent": expected.consistent,
    }


def test_analyze_report_small_points_has_no_verdict():
    report = analyze_report("points", point_config([(0, 0), (3, 1)]))
    assert report["dbe"] is None
    assert report["points"] == [[0, 0], [3, 1]]


def test_analyze_report_for_lines():
    _, arr = parse_input({"lines": [{"vertex": [0, 0]}, {"vertex": [2, 1]}]})
    report = analyze_report("lines", arr)
    assert report["input"] == "lines"
    assert "dbe" not in report and "points" not in report
    assert report["counts"]["n"] == 2
    assert report["subdivision"]["n"] == 2


def _report_corpus():
    """Seeded analyze inputs in a fixed order: points and lines files of 1
    to 12 entries, integer and "p/q" coordinates, a sixth of them points
    files below 4 points, whose reports have a null verdict."""
    rng = random.Random(22)
    corpus = []
    for k in range(240):
        kind = ("points", "lines")[k % 2]
        seen, entries = [], []
        while len(entries) < 1 + k % 12:
            pair = []
            for _ in range(2):
                num = rng.randint(-6, 6)
                den = rng.choice((1, 1, 2, 3)) if k % 3 else 1
                pair.append(num if den == 1 and rng.random() < 0.7 else f"{num}/{den}")
            value = tuple(Fraction(c) for c in pair)
            if value not in seen:
                seen.append(value)
                entries.append(pair if kind == "points" else {"vertex": pair})
        corpus.append({kind: entries})
    return corpus


# sha256 of the reports below, computed with the analyze_report that
# rebuilt the pipeline itself before it read analysis.analyze_arrangement
REPORT_CORPUS_SHA256 = "96ca76f2cd5279c0bbf8b7b83a2cb363c768bec719498ea0856fbc03a9f815b3"


def test_analyze_reports_keep_their_bytes():
    digest = hashlib.sha256()
    nulls = 0
    for data in _report_corpus():
        report = analyze_report(*parse_input(data))
        nulls += report.get("dbe", 0) is None
        digest.update((json.dumps(report, indent=2) + "\n").encode())
    assert nulls == 40
    assert digest.hexdigest() == REPORT_CORPUS_SHA256


def test_sweep_line_json_is_compact_and_deterministic():
    line = sweep_line_json(3, ((0, 0), (1, 2)), 1, [["bound", "b=0 < v-3=1"]])
    assert line == (
        '{"config":[[0,0],[1,2]],"excess":1,"index":3,'
        '"violations":[["bound","b=0 < v-3=1"]]}'
    )
    assert line == sweep_line_json(3, ((0, 0), (1, 2)), 1, [["bound", "b=0 < v-3=1"]])
    assert " " not in sweep_line_json(0, ((0, 0), (1, 2)), 2, [])


coordinate = st.integers(-(2**70), 2**70)


@given(
    index=st.integers(0, 2**64),
    config=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=16),
    excess=st.integers(-(2**40), 2**40),
    violations=st.lists(st.tuples(st.sampled_from(sorted(SUITES)), st.text())),
)
@example(index=0, config=[(0, 0)], excess=0, violations=[])
@example(
    index=12,
    config=[(-(2**20), 2**20), (-1, 0)],
    excess=-3,
    violations=[
        ("bound", 'quoted "b=0" and a \\ backslash'),
        ("tiling", "two\nlines\tand a tab"),
        ("regularity", "non-ASCII: \u00e9 \u2264 \U0001f600"),
    ],
)
def test_sweep_line_json_matches_the_json_dumps_spec(index, config, excess, violations):
    line = sweep_line_json(index, tuple(config), excess, violations)
    assert line == sweep_line_spec(index, tuple(config), excess, violations)
    assert json.loads(line)["config"] == [list(p) for p in config]
