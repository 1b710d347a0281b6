"""Acceptance gate: eight criteria, one printed verdict line each.

Run with -s to see the PASS lines as they happen; without -s pytest
shows them for failing criteria only. The shared corpus is swept once
per test session: every four-point configuration on the 4x4 grid, and
ten thousand random configurations each for five, six, and seven points
drawn from the box [-20, 20]^2 with fixed seeds.
"""

import json
import random
import time

import pytest

from troplines.analysis import analyze_config
from troplines.cli import main
from troplines.incidence import (
    StableLineKind,
    cramer_stable_line,
    dbe_check,
    point_config,
    stable_lines_through,
)
from troplines.kernel import backend_name
from troplines.lines import Point2, contains
from troplines.sweep import (
    Exhaustive,
    Random,
    SweepParams,
    run_sweep,
    sg_failure_search,
)

STRUCTURAL_SUITES = {
    "cross_oracle",
    "count_identities",
    "tiling",
    "regularity",
    "cell_edges",
    "max_triangles",
    "determined_union",
    "determined_minimum",
    "unit_parallelogram",
}


def _verdict(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    reports = {4: run_sweep(SweepParams(n=4, mode=Exhaustive(4)), jobs=2)}
    for n, seed in ((5, 105), (6, 106), (7, 107)):
        reports[n] = run_sweep(
            SweepParams(n=n, mode=Random(samples=10000, coord_range=20, seed=seed)),
            jobs=4,
        )
    return reports


def _rows(report, suites):
    return [v for v in report.violations if v[1] in suites]


def test_criterion_1_worked_pencil_example():
    start = time.perf_counter()
    cfg = point_config([(0, 0), (0, -2), (-2, 0), (2, 2)])
    record = analyze_config(cfg)
    ok = record == {
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
    lines = stable_lines_through(cfg)
    ok = ok and len(lines) == 1
    ok = ok and lines[0].line.vertex == Point2(0, 0)
    ok = ok and lines[0].incident == frozenset({0, 1, 2, 3})
    ok = ok and lines[0].kind is StableLineKind.VERTEX_WITNESSED
    verdict = dbe_check(cfg)
    ok = ok and verdict.equality and verdict.near_pencil and verdict.consistent
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict("criterion 1 (pencil example, budget 1s)", ok, f"{elapsed:.3f}s")


def test_criterion_2_exhaustive_grid_sweep(corpus):
    report = corpus[4]
    ok = (
        report.passed
        and report.configs_tested == 1820
        and report.histogram == {0: 10, 1: 65, 2: 305, 3: 500, 4: 594, 5: 346}
        and report.elapsed < 60.0
    )
    _verdict(
        "criterion 2 (exhaustive 4x4 sweep, budget 1min)",
        ok,
        f"{report.configs_tested} configs, {len(report.violations)} violations, "
        f"{report.elapsed:.1f}s, backend {backend_name()}",
    )


def test_criterion_3_randomized_bound_sweeps(corpus):
    bad = []
    tested = 0
    elapsed = 0.0
    for n in (5, 6, 7):
        report = corpus[n]
        bad += _rows(report, {"bound"})
        tested += report.configs_tested
        elapsed += report.elapsed
        assert min(report.histogram) >= 0
    ok = not bad and tested == 30000 and elapsed < 600.0
    _verdict(
        "criterion 3 (randomized bound sweeps, budget 10min)",
        ok,
        f"{tested} configs, {len(bad)} bound violations, {elapsed:.1f}s",
    )


def test_criterion_4_equality_forces_near_pencils(corpus):
    bad = []
    equality_cases = 0
    for n, report in corpus.items():
        bad += _rows(report, {"near_pencil"})
        equality_cases += report.histogram.get(0, 0)
    # the implication was genuinely exercised: the exhaustive grid holds
    # equality configurations
    ok = not bad and corpus[4].histogram.get(0, 0) == 10
    # and the converse genuinely fails: a near-pencil with excess 3
    slack = analyze_config(
        point_config([(0, 0), (2, 2), (2, 6), (-4, 6), (-10, 4), (-8, 0)])
    )
    ok = ok and slack["near_pencil"] and not slack["equality"]
    elapsed = sum(r.elapsed for r in corpus.values())
    ok = ok and elapsed < 600.0
    _verdict(
        "criterion 4 (equality cases are near-pencils, budget 10min)",
        ok,
        f"{equality_cases} equality cases, {len(bad)} violations, {elapsed:.1f}s",
    )


def test_criterion_5_two_point_stable_lines():
    rng = random.Random(515)
    by_kind = {"generic": 0, "horizontal": 0, "vertical": 0, "diagonal": 0}
    cases = 0
    ok = True
    while cases < 10000:
        p1 = Point2(rng.randint(-20, 20), rng.randint(-20, 20))
        roll = rng.randrange(4)
        if roll == 0:
            p2, kind = Point2(rng.randint(-20, 20), p1.y), "horizontal"
        elif roll == 1:
            p2, kind = Point2(p1.x, rng.randint(-20, 20)), "vertical"
        elif roll == 2:
            d = rng.randint(-20, 20)
            p2, kind = Point2(p1.x + d, p1.y + d), "diagonal"
        else:
            p2, kind = Point2(rng.randint(-20, 20), rng.randint(-20, 20)), "generic"
        if p1 == p2:
            continue
        cases += 1
        by_kind[kind] += 1
        records = stable_lines_through(point_config([p1, p2]))
        line = cramer_stable_line(p1, p2)[1]
        ok = ok and len(records) == 1 and records[0].line == line
        ok = ok and contains(line, p1) and contains(line, p2)
        if not ok:
            break
    ok = ok and all(count >= 1000 for count in by_kind.values())
    worked = cramer_stable_line(Point2(-3, 2), Point2(-1, 2))[1]
    ok = ok and worked.vertex == Point2(-1, 2)
    # canonical form of the projective class (2 : -1 : 1)
    ok = ok and worked.coefficients == (1, -2, 0)
    _verdict(
        "criterion 5 (two-point stable lines agree with the dual route)",
        ok,
        f"{cases} pairs, axis-aligned splits {by_kind}",
    )


def test_criterion_6_structural_invariants(corpus):
    bad = []
    for report in corpus.values():
        bad += _rows(report, STRUCTURAL_SUITES)
    ok = not bad
    _verdict(
        "criterion 6 (tilings, regularity, count identities, determined faces)",
        ok,
        f"{sum(r.configs_tested for r in corpus.values())} configs, "
        f"{len(bad)} structural violations",
    )


def test_criterion_7_ordinary_line_failures_exist():
    start = time.perf_counter()
    found4 = sg_failure_search(SweepParams(n=4, mode=Exhaustive(6)))
    found5 = sg_failure_search(SweepParams(n=5, mode=Exhaustive(6)))
    elapsed = time.perf_counter() - start
    ok = len(found4) == 1 and len(found5) == 1 and elapsed < 60.0
    from troplines.incidence import ordinary_stable_lines

    for cfg in found4 + found5:
        ok = ok and ordinary_stable_lines(cfg) == []
        ok = ok and all(
            len(r.incident) >= 3 for r in stable_lines_through(cfg)
        )
    _verdict(
        "criterion 7 (no-ordinary-line configurations, budget 1min)",
        ok,
        f"witnesses {[tuple(map(tuple, c.points)) for c in found4 + found5]}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_sweeps_are_reproducible(tmp_path, capsys):
    args = ["verify", "--n", "4", "--mode", "exhaustive", "--grid", "4"]
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    code1 = main(args + ["--jsonl", str(first), "--jobs", "1"])
    code2 = main(args + ["--jsonl", str(second), "--jobs", "4"])
    out = capsys.readouterr().out
    summaries = [json.loads(chunk) for chunk in _split_json_objects(out)]
    ok = code1 == code2 == 0
    ok = ok and first.read_bytes() == second.read_bytes()
    ok = ok and len(first.read_text().splitlines()) == 1820
    ok = ok and summaries[0]["histogram"] == summaries[1]["histogram"]
    with capsys.disabled():
        _verdict(
            "criterion 8 (verify runs byte-identical across worker counts)",
            ok,
            f"{len(first.read_bytes())} bytes per stream",
        )


def _split_json_objects(text):
    """Split concatenated pretty-printed JSON objects on their braces."""
    chunks, depth, start = [], 0, None
    for i, ch in enumerate(text):
        if ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                chunks.append(text[start : i + 1])
    return chunks
