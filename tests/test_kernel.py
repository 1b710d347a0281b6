"""Backend selection and pure/compiled agreement."""

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import pickle
import random
import re
import subprocess
import sys
import types
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from troplines import analysis, arrangement, kernel, subdivision
from troplines.analysis import analyze_config
from troplines.incidence import ordinary_stable_lines, point_config
from troplines.kernel import COORD_LIMIT, MAX_KERNEL_POINTS, backend_name, stream_eligible
from troplines.subdivision import product_coefficients
from troplines.sweep import Exhaustive, SweepParams, run_sweep

from conftest import SOURCE
from oracles import SUITES, sweep_line_spec

compiled_only = pytest.mark.skipif(
    backend_name() != "compiled", reason="compiled extension not active"
)


def test_backend_name_is_one_of_the_two():
    assert backend_name() in ("pure", "compiled")


int_configs = st.lists(
    st.tuples(st.integers(-15, 15), st.integers(-15, 15)),
    min_size=2,
    max_size=7,
    unique=True,
)


# (n, reach, eligible): the boundaries of the one eligibility rule
ELIGIBILITY_CASES = [
    (3, 5, True),
    (MAX_KERNEL_POINTS, COORD_LIMIT, True),
    (MAX_KERNEL_POINTS + 1, 5, False),
    (3, COORD_LIMIT + 1, False),
]

# (points, None or what the extension raises, its message): its own
# checks at the coordinate bound, and on coordinates no sweep generates
# (test_kernel_limit_is_the_extension_limit covers the point count)
EXTENSION_CASES = [
    ([(0, 0), (COORD_LIMIT, -COORD_LIMIT)], None, ""),
    ([(0, 0), (COORD_LIMIT + 1, 1)], ValueError, "kernel coordinate bound exceeded"),
    ([(0, 0), (1, -COORD_LIMIT - 1)], ValueError, "kernel coordinate bound exceeded"),
    ([(0, 0), (Fraction(1, 2), 3)], TypeError, "integer"),
    ([(0, 0), (Fraction(4, 1), 3)], TypeError, "integer"),
]


def test_eligibility_fallbacks(built_kernel, in_child, monkeypatch):
    monkeypatch.setattr(kernel, "_COMPILED", built_kernel)
    for n, reach, eligible in ELIGIBILITY_CASES:
        assert stream_eligible(n, reach) is eligible, (n, reach)
    monkeypatch.setattr(kernel, "_COMPILED", None)
    for n, reach, _ in ELIGIBILITY_CASES:
        assert stream_eligible(n, reach) is False, (n, reach)

    def at_the_boundaries():
        for points, error, message in EXTENSION_CASES:
            if error is None:
                assert built_kernel.analyze_ints(points)["v"] == len(points)
                continue
            with pytest.raises(error, match=message):
                built_kernel.analyze_ints(points)

    in_child(at_the_boundaries)


@compiled_only
def test_both_backends_serialize_identically():
    points = [(0, 0), (3, 1), (1, 4), (-2, 2), (5, 5)]
    fast = json.dumps(kernel._COMPILED.analyze_ints(points), sort_keys=True)
    assert fast == json.dumps(analyze_config(point_config(points)), sort_keys=True)
    assert json.loads(fast)["v"] == 5


# sizes past 16 points, up to the kernel's limit
LARGE_SIZES = (17, 24, 32, 48, 64, 96, 128)
CORNERS = [(COORD_LIMIT, COORD_LIMIT), (-COORD_LIMIT, -COORD_LIMIT),
           (COORD_LIMIT, -COORD_LIMIT), (-COORD_LIMIT, COORD_LIMIT)]


def _crowded_range(n):
    """The smallest range, at least 4, whose box [-r, r]^2 holds n points."""
    r = 4
    while (2 * r + 1) ** 2 < n:
        r += 1
    return r


def _seeded_points(rng, n, spread, fixed=()):
    points = set(fixed)
    while len(points) < n:
        points.add((rng.randint(-spread, spread), rng.randint(-spread, spread)))
    return sorted(points)


def _agreement_sample():
    """Fixed configurations of n = 12-16 points and of each of
    LARGE_SIZES: wide ones reaching +-2**20, ones with corner points
    exactly at the bound, and crowded small-range ones full of coaxial
    pairs."""
    rng = random.Random(416)
    return [_seeded_points(rng, n, spread, fixed)
            for n in (*range(12, 17), *LARGE_SIZES)
            for spread, fixed in ((COORD_LIMIT, CORNERS), (COORD_LIMIT, []),
                                  (_crowded_range(n), []))]


@settings(max_examples=50, deadline=None)
@given(points=int_configs)
def test_analyze_matches_the_pure_reference(built_kernel, in_child, points):
    points = sorted(points)
    cfg = point_config(points)
    reference = analyze_config(cfg)
    assert in_child(lambda: built_kernel.analyze_ints(points)) == reference


@settings(max_examples=50, deadline=None)
@given(points=int_configs)
def test_ordinary_count_matches_the_pure_reference(built_kernel, points):
    # the count read off the arrangement vertices against the stable lines
    # found pair by pair
    points = sorted(points)
    reference = len(ordinary_stable_lines(point_config(points)))
    assert built_kernel.analyze_ints(points)["ordinary"] == reference


def test_kernel_limit_is_the_extension_limit(built_kernel, in_child):
    assert MAX_KERNEL_POINTS == built_kernel.MAX_POINTS
    too_many = [(i, i * i % 1000) for i in range(MAX_KERNEL_POINTS + 1)]
    message = f"at most {MAX_KERNEL_POINTS} points, got {MAX_KERNEL_POINTS + 1}"
    for function in (built_kernel.analyze_ints,
                     lambda points: built_kernel.analyze_chunk((points,), 0, True)):
        with pytest.raises(ValueError, match=message):
            function(too_many)
        in_child(lambda: function(too_many[:-1]))


def test_built_kernel_agrees_with_the_pure_reference(built_kernel, in_child):
    # the kernel's own pairwise tiling and global regularity scans audit
    # the pure route
    sample = _agreement_sample()
    records = in_child(lambda: [built_kernel.analyze_ints(points) for points in sample])
    for points, record in zip(sample, records, strict=True):
        assert record == analyze_config(point_config(points)), points


NOT_A_PAIR = "is not a tuple or list of two coordinates"

# (points, exception, message): malformed input the extension must refuse
MALFORMED_POINTS = [
    ([(0,), (1, 2)], ValueError, f"point at index 0 {NOT_A_PAIR}"),
    ([(5,), (1, 2), (3, 4)], ValueError, f"point at index 0 {NOT_A_PAIR}"),
    ([(0, 0, 5), (1, 2)], ValueError, f"point at index 0 {NOT_A_PAIR}"),
    ([(0, 0), 7], ValueError, f"point at index 1 {NOT_A_PAIR}"),
    ([(0, 0), "ab"], ValueError, f"point at index 1 {NOT_A_PAIR}"),
    ([(0.5, 1), (1, 2)], TypeError, "integer"),
    ([(Fraction(1, 2), 1), (1, 2)], TypeError, "integer"),
    ([(Fraction(4, 1), 1), (1, 2)], TypeError, "integer"),
    ([(0, 0), (1, "2")], TypeError, "integer"),
    ([(0, 0), (2**70, 1)], ValueError, "kernel coordinate bound exceeded"),
    ([(1, 1), (1, 1)], ValueError, "duplicate point at index 1"),
    ([(0, 0), (1, 1), (0, 0)], ValueError, "duplicate point at index 2"),
]


def test_kernel_rejects_malformed_points(built_kernel, in_child):
    def last_in_chunk(points):
        # after two valid configurations, which the chunk analyzes first
        return built_kernel.analyze_chunk(
            ([(0, 0), (1, 2)], [(3, 1), (0, 0), (2, 2)], points), 0, True)

    def reject_all():
        for points, error, message in MALFORMED_POINTS:
            for function in (built_kernel.analyze_ints, last_in_chunk):
                with pytest.raises(error, match=message):
                    function(points)

    in_child(reject_all)
    # ints, bools and lists pass; they agree with the tuple form
    lists, tuples = in_child(lambda: [built_kernel.analyze_ints(points) for points in (
        [[True, False], [0, 1], [3, 5]], [(1, 0), (0, 1), (3, 5)])])
    assert lists == tuples


# sha256 of the kernel's records as json.dumps(record, sort_keys=True), one
# a line, for every subset of 3 to 6 points of the 4 x 4 grid in
# itertools.combinations order (14,756 configurations)
GRID_RECORDS_SHA256 = "0075b257fd2f54613a141af10827758f0f69b055981f34dc4dc0ad9c7f5d71b1"


def test_kernel_records_are_pinned(built_kernel, in_child):
    grid = [(x, y) for x in range(4) for y in range(4)]

    def records_digest():
        digest = hashlib.sha256()
        for n in range(3, 7):
            for points in itertools.combinations(grid, n):
                record = built_kernel.analyze_ints(points)
                digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        return digest.hexdigest()

    assert in_child(records_digest) == GRID_RECORDS_SHA256


class _HashingStream:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())


def test_grid_stream_matches_the_benchmark_digest(built_kernel, in_child, monkeypatch):
    # the sweep-grid benchmark's JSONL stream, every 5-subset of the 6 x 6
    # grid through run_sweep at one job, against the digest its gate checks
    digests = json.loads((SOURCE.parent.parent / "perfbench" / "digests.json").read_text())
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return built_kernel.analyze_chunk(*args)

    monkeypatch.setattr(kernel, "_COMPILED", types.SimpleNamespace(analyze_chunk=counted))

    def stream_digest():
        stream = _HashingStream()
        report = run_sweep(SweepParams(5, Exhaustive(6)), jobs=1, sink=stream)
        return (stream.digest.hexdigest(), report.configs_tested, report.route,
                report.no_ordinary_line, len(calls))

    digest, configs, route, no_ordinary, chunks = in_child(stream_digest)
    assert (digest, configs, route) == (digests["sweep-grid"], 376992, "compiled")
    assert no_ordinary == 3302
    # chunks of 1, 2, 4, ..., 512, then 1024: 378 calls for 376,992
    # configurations
    assert chunks <= 400


# the directions of a line's three rays, W, S and NE
RAYS = ((-1, 0), (0, -1), (1, 1))


def _raw_key_count(points):
    """The kernel's candidate points before repeats are dropped: one per
    line vertex (the point negated) and one per pair of non-parallel rays
    of two lines that meet off both vertices, solved as a 2 x 2 system by
    Cramer's rule."""
    vertices = [(-x, -y) for x, y in points]
    count = len(vertices)
    for (ax, ay), (bx, by) in itertools.combinations(vertices, 2):
        dx, dy = bx - ax, by - ay
        for (ux, uy), (wx, wy) in itertools.product(RAYS, RAYS):
            # a + t u = b + s w
            det = ux * wy - uy * wx
            if det:
                t, s = Fraction(dx * wy - dy * wx, det), Fraction(uy * dx - ux * dy, det)
                count += t > 0 and s > 0
    return count


def _small_sort():
    [threshold] = re.findall(r"#define SMALL_SORT (\d+)", (SOURCE / "_fastsweep.c").read_text())
    return int(threshold)


def _configs_with_raw_key_counts(counts):
    """For each raw key count, the first seeded configuration that has it,
    drawn crowded into small boxes so that coaxial pairs add crossings."""
    rng = random.Random(96)
    found = {}
    while len(found) < len(counts):
        points = _seeded_points(rng, rng.randint(8, 16), rng.randint(2, 8))
        if (count := _raw_key_count(points)) in counts:
            found.setdefault(count, points)
    return [found[count] for count in counts]


def test_every_ray_crossing_sector_and_sort_size_matches_the_pure_reference(
    built_kernel, in_child
):
    # two lines at every offset in [-3, 3]^2: each sector and each axis
    # between sectors of the closed-form crossings
    pairs = [[(0, 0), (dx, dy)] for dx in range(-3, 4) for dy in range(-3, 4) if dx or dy]
    assert {_raw_key_count(points) for points in pairs} == {2, 3}
    # raw key counts just below, at and just above the small-sort threshold
    threshold = _small_sort()
    sizes = _configs_with_raw_key_counts([threshold - 1, threshold, threshold + 1])
    sample = pairs + [[(x + 5, y - 2) for x, y in points] for points in pairs] + sizes
    records = in_child(lambda: [built_kernel.analyze_ints(points) for points in sample])
    for points, record in zip(sample, records, strict=True):
        cfg = point_config(points)
        assert record == analyze_config(cfg), points
        assert record["ordinary"] == len(ordinary_stable_lines(cfg)), points


# the coaxial pairs, each with one interior edge, horizontal, vertical and
# diagonal in turn
COAXIAL_PAIRS = ([(0, 0), (1, 0)], [(0, 0), (0, 1)], [(0, 0), (1, 1)])


def test_regularity_rejects_a_lift_convex_across_each_edge_direction(
    built_kernel, negated_lift_kernel, in_child
):
    faulty = negated_lift_kernel
    for points in COAXIAL_PAIRS:
        sound, broken = in_child(lambda: (built_kernel.analyze_ints(points)["violations"],
                                          faulty.analyze_ints(points)["violations"]))
        assert sound == []
        [[suite, detail]] = broken
        assert suite == "regularity" and "fails to dominate the lift" in detail, points


def _assert_chunk_matches_records(configs, start, chunk, records):
    """The chunk entry's (excesses, flagged, offsets with no ordinary line,
    JSONL text) for configs from index start on are those of the full
    records of the same configurations."""
    raw, flagged, bare, text = chunk
    assert text == "".join(
        sweep_line_spec(start + offset, points, record["excess"], record["violations"]) + "\n"
        for offset, (points, record) in enumerate(zip(configs, records, strict=True)))
    assert list(array("i", raw)) == [record["excess"] for record in records]
    assert flagged == [(offset, record["violations"])
                       for offset, record in enumerate(records) if record["violations"]]
    assert bare == [offset for offset, record in enumerate(records) if record["ordinary"] == 0]


def test_chunk_lines_match_the_spec_on_records_with_violations(negated_lift_kernel, in_child):
    faulty = negated_lift_kernel
    rng = random.Random(11)
    configs = tuple([*COAXIAL_PAIRS, *(_seeded_points(rng, 2 + k % 9, 4) for k in range(60)),
                     [(0, 0)], [(-COORD_LIMIT, COORD_LIMIT), (COORD_LIMIT, -COORD_LIMIT)]])
    start = 2**40
    (raw, flagged, bare, text), records = in_child(lambda: (
        faulty.analyze_chunk(configs, start, True),
        [faulty.analyze_ints(points) for points in configs]))
    _assert_chunk_matches_records(configs, start, (raw, flagged, bare, text), records)
    assert 3 <= len(flagged) < len(configs)
    assert in_child(lambda: faulty.analyze_chunk(configs, start, False)) == (
        raw, flagged, bare, None)


def _negated_lift(arr):
    return {point: -h for point, h in product_coefficients(arr).items()}


def _bent_lift(arr):
    return {(i, j): h + (i * j) % 3 for (i, j), h in product_coefficients(arr).items()}


def _raised_lift(arr):
    lift = product_coefficients(arr)
    if arr.n >= 4:
        lift[0, 3] += 40
        lift[1, 3] += 80
    return lift


def _b_off_by_one(n, classes):
    counts = arrangement.counts_from_classes(n, classes)
    return dataclasses.replace(counts, b=counts.b + 1)


@functools.lru_cache(maxsize=1)
def _first_vertex(arr):
    """The arrangement's first vertex in (x, y) order: the kernel's cell 0."""
    return arrangement.arrangement_vertices(arr)[0]


def _first_cell_walked(count):
    """analysis.dual_cell with the named count of the first vertex one
    more for its walk, as the walk mutants raise cell 0's; the cell keeps
    its class."""
    def walk(arr, vd):
        cell = arrangement.dual_cell(arr, vd)
        if vd != _first_vertex(arr):
            return cell
        raised = dataclasses.replace(vd, **{count: getattr(vd, count) + 1})
        return dataclasses.replace(cell, vertices=arrangement.dual_cell(arr, raised).vertices)
    return walk


def _fault_corpus(fault):
    """Every 3- and 4-subset of the 3 x 3 grid for the negated lift, 500
    seeded configurations of 4 to 9 points in range 6 for the others."""
    if fault == "negated-lift":
        grid = [(x, y) for x in range(3) for y in range(3)]
        return [list(c) for n in (3, 4) for c in itertools.combinations(grid, n)]
    rng = random.Random(19)
    return [_seeded_points(rng, 4 + k % 6, 6) for k in range(500)]


# fault -> (the faulty kernel's fixture, the same fault in the pure route
# as (module, name, replacement), the suites it fires)
FAULTS = {
    "negated-lift": ("negated_lift_kernel",
                     (subdivision, "product_coefficients", _negated_lift), {"regularity"}),
    "bent-lift": ("bent_lift_kernel",
                  (subdivision, "product_coefficients", _bent_lift), {"regularity"}),
    "raised-lift": ("raised_lift_kernel",
                    (subdivision, "product_coefficients", _raised_lift), {"regularity"}),
    "no-determined-faces": ("no_determined_faces_kernel",
                            (analysis, "determined_faces", lambda sub, T, neighbours: []),
                            {"determined_minimum", "determined_union"}),
    "corner-slots-only": ("corner_slots_only_kernel",
                          (analysis, "determined_faces",
                           lambda sub, T, neighbours: subdivision.determined_faces(sub, T, [])),
                          {"determined_minimum", "determined_union"}),
    "long-unit-edge": ("long_unit_edge_kernel",
                       (analysis, "_UNIT_EDGE_VECTORS", {(0, 1), (-1, 0), (0, -1), (-1, 1)}),
                       {"unit_parallelogram"}),
    "b-off-by-one": ("b_off_by_one_kernel", (analysis, "counts_from_classes", _b_off_by_one),
                     {"count_identities", "cross_oracle"}),
    "shifted-first-cell": ("shifted_first_cell_kernel",
                           (analysis, "dual_cell", _first_cell_walked("only_x")), {"tiling"}),
    "grown-first-cell": ("grown_first_cell_kernel",
                         (analysis, "dual_cell", _first_cell_walked("s_a")), {"tiling"}),
}

# fault -> words that some violation of the corpus has: between them, the
# two walk faults reach each tiling text
FAULT_TEXTS = {
    "shifted-first-cell": ("leaves", "overlap"),
    "grown-first-cell": ("leaves", "cell areas sum"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_both_routes_report_a_fault_alike(fault, request, in_child, monkeypatch):
    # the same fault in either route gives the same records, violations
    # included, in the same order and words
    fixture, patch, suites = FAULTS[fault]
    faulty = request.getfixturevalue(fixture)
    monkeypatch.setattr(*patch)
    corpus = _fault_corpus(fault)
    pure, compiled = in_child(lambda: (
        [analyze_config(point_config(points)) for points in corpus],
        [faulty.analyze_ints(points) for points in corpus]))
    for points, expected, record in zip(corpus, pure, compiled, strict=True):
        assert record == expected, points
    fired = [{suite for suite, _ in record["violations"]} for record in pure]
    assert set().union(*fired) == suites
    assert suites in fired
    details = [detail for record in pure for _, detail in record["violations"]]
    for words in FAULT_TEXTS.get(fault, ()):
        assert any(words in detail for detail in details), words


def _kernel_messages():
    """(suite, format string) of every VIOLATE call in the kernel's source,
    with the COUNTS macro expanded; the number of calls."""
    source = (SOURCE / "_fastsweep.c").read_text()
    literal = r'"(?:[^"\\\n]|\\.)*"'
    [counts] = re.findall(rf"#define COUNTS ({literal})", source)
    calls = re.findall(
        rf"VIOLATE\(\s*({literal})\s*,\s*((?:(?:{literal}|COUNTS)\s*)+)", source)
    messages = [(suite[1:-1], "".join(part[1:-1] for part in re.findall(
                     literal, fmt.replace("COUNTS", counts))))
                for suite, fmt in calls]
    return messages, source.count("VIOLATE(") - 1  # less the macro itself


def test_kernel_violation_texts_need_no_json_escaping():
    # the chunk entry writes suite names and messages into JSONL unescaped:
    # that equals json.dumps only for printable ASCII without " or \, and
    # with integer conversions only, whose digits and signs are safe too
    messages, calls = _kernel_messages()
    assert len(messages) == calls >= 17
    for suite, fmt in messages:
        assert suite in SUITES, suite
        for text in (suite, fmt):
            assert all(" " <= c <= "~" and c not in '"\\' for c in text), text
        assert re.fullmatch(r"(?:[^%]|%d|%lld)*", fmt), fmt


def test_suites_are_the_ones_both_routes_report():
    # every suite name is reported by the kernel or the pure analysis, and
    # nothing they report is missing from the vocabulary
    kernel_suites = {suite for suite, _ in _kernel_messages()[0]}
    pure_suites = set(re.findall(r'violations\.append\(\s*\(\s*"(\w+)"',
                                 (SOURCE / "analysis.py").read_text()))
    assert len(pure_suites) >= 10
    assert SUITES == kernel_suites | pure_suites


def _lines(n):
    """A row, a column, a diagonal and a long antidiagonal of n points."""
    return [[(i, 0) for i in range(n)], [(0, i) for i in range(n)],
            [(i, i) for i in range(n)],
            [(i * COORD_LIMIT // n, -i * COORD_LIMIT // n) for i in range(n)]]


def _sanitizer_corpus():
    """About 3,000 seeded configurations of 1 to 16 points: spread to the
    coordinate bound, in range 1000, and crowded into range 3 with many
    coaxial pairs; then whole rows, columns and diagonals. Then for each
    of LARGE_SIZES, configurations with corners at the bound, spread to
    it, in range 1000 and crowded, and rows, columns and diagonals at the
    kernel's limit."""
    rng = random.Random(2020)
    corpus = []
    for index in range(3000):
        n = 1 + index % 16
        spread = (COORD_LIMIT, 1000, 3)[index % 3]
        corpus.append(_seeded_points(rng, n, spread))
    for n in range(2, 17):
        corpus += _lines(n)
    for n in LARGE_SIZES:
        corpus += [_seeded_points(rng, n, COORD_LIMIT, CORNERS),
                   _seeded_points(rng, n, COORD_LIMIT), _seeded_points(rng, n, 1000),
                   _seeded_points(rng, n, _crowded_range(n))]
    return corpus + _lines(MAX_KERNEL_POINTS)


# runs in a child process, so that a sanitizer abort fails one test
_SANITIZER_CHILD = """
import gc, itertools, pickle, sys, tracemalloc
from array import array
sys.path.insert(0, sys.argv[1])
from conftest import load_kernel
kernel = load_kernel(sys.argv[2])
corpus, malformed = pickle.load(sys.stdin.buffer)
excesses, ordinary = [], []
for points in corpus:
    record = kernel.analyze_ints(points)
    assert record["violations"] == [], points
    excesses.append(record["excess"])
    ordinary.append(record["ordinary"])

def chunk(configs):
    return kernel.analyze_chunk(tuple(configs), 0, True)

# the chunk entry: one chunk per n, then one of a single configuration and
# one whose sizes go up and down, so that its scratch memory grows
by_n = sorted(range(len(corpus)), key=lambda i: len(corpus[i]))
for n, group in itertools.groupby(by_n, key=lambda i: len(corpus[i])):
    group = list(group)
    raw, flagged, bare, text = chunk(corpus[i] for i in group)
    assert raw == array("i", [excesses[i] for i in group]).tobytes() and flagged == [], n
    assert bare == [k for k, i in enumerate(group) if ordinary[i] == 0], n
    assert text.count("\\n") == len(group), n
for size in (1, 300):
    assert chunk(corpus[:size])[0] == array("i", excesses[:size]).tobytes(), size
for points, error in malformed:
    for function in (kernel.analyze_ints,
                     lambda points: chunk([corpus[17], corpus[18], points])):
        try:
            function(points)
        except error:
            continue
        raise AssertionError(f"{points} passed")

# a leak on either way out of the chunk entry grows the traced memory; the
# one point of corpus[16] has no ordinary line, so the list of such offsets
# holds an entry on the error exit too
last, error = malformed[-1]
assert error is ValueError and ordinary[16] == 0

def both_ways():
    assert chunk(corpus[16:19])[2] == [0]
    try:
        chunk([corpus[16], corpus[17], last])
    except ValueError:
        return
    raise AssertionError(f"{last} passed")

for _ in range(100):
    both_ways()
gc.collect()
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
for _ in range(1000):
    both_ways()
gc.collect()
grown = tracemalloc.get_traced_memory()[0] - before
assert grown < 16384, f"the chunk entry leaks: {grown} bytes more after 1000 round trips"
"""


def _run_child(script, payload, kernel_path, env=None):
    """(stdout, stderr) of a child interpreter running script with the
    tests' directory and kernel_path as arguments, payload pickled on its
    stdin and env added to its environment; fails the test when the child
    fails."""
    done = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).parent), str(kernel_path)],
        input=pickle.dumps(payload),
        capture_output=True, timeout=600, env={**os.environ, **(env or {})},
    )
    stderr = done.stderr.decode(errors="replace")
    assert done.returncode == 0, stderr[-3000:]
    return done.stdout, stderr


def _run_sanitized(kernel_path, env=None):
    """The stderr of a child interpreter running the sanitizer corpus and
    the malformed inputs through the kernel at kernel_path, one
    configuration at a time and in chunks, with env added to its
    environment; fails the test when the child fails."""
    malformed = [(points, error) for points, error, _ in MALFORMED_POINTS]
    return _run_child(_SANITIZER_CHILD, (_sanitizer_corpus(), malformed), kernel_path, env)[1]


# runs in a child process: the configurations on stdin through the chunk
# entry, JSONL on, and through the full-record entry, both pickled to stdout
_RECORDS_CHILD = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from conftest import load_kernel
kernel = load_kernel(sys.argv[2])
configs = pickle.load(sys.stdin.buffer)
pickle.dump((kernel.analyze_chunk(configs, 0, True),
             [kernel.analyze_ints(points) for points in configs]), sys.stdout.buffer)
"""


def _run_sanitized_violations(kernel_path, env=None):
    """The stderr of a child interpreter running every 3-subset of the
    3 x 3 grid through the negated-lift kernel at kernel_path, with env
    added to its environment; fails the test unless the chunk entry's
    flagged records, excesses and lines are those of the full records,
    with some violations among them."""
    grid = [(x, y) for x in range(3) for y in range(3)]
    configs = tuple(itertools.combinations(grid, 3))
    stdout, stderr = _run_child(_RECORDS_CHILD, configs, kernel_path, env)
    chunk, records = pickle.loads(stdout)
    _assert_chunk_matches_records(configs, 0, chunk, records)
    assert chunk[1], "no record with violations"
    return stderr


def test_kernel_has_no_undefined_behaviour(ubsan_kernel):
    stderr = _run_sanitized(ubsan_kernel)
    assert "runtime error" not in stderr, stderr[-3000:]


def test_kernel_stays_inside_its_memory(asan_kernel):
    # heap overruns of the scratch block, which UBSan cannot see
    path, env = asan_kernel
    stderr = _run_sanitized(path, env)
    assert "AddressSanitizer" not in stderr, stderr[-3000:]


# the same two builds of the negated-lift kernel, so that records with
# violations go through the chunk entry's flagged hand-off and the
# violation loop of its JSONL writer
def test_violations_have_no_undefined_behaviour(ubsan_negated_lift_kernel):
    stderr = _run_sanitized_violations(ubsan_negated_lift_kernel)
    assert "runtime error" not in stderr, stderr[-3000:]


def test_violations_stay_inside_the_kernels_memory(asan_negated_lift_kernel):
    path, env = asan_negated_lift_kernel
    stderr = _run_sanitized_violations(path, env)
    assert "AddressSanitizer" not in stderr, stderr[-3000:]


# Maps of Z^2 that carry tropical lines to tropical lines: each permutes or
# shifts the homogeneous coordinates of TP^2 or scales all of them, so it
# keeps every stable line and the combinatorics of the dual subdivision.
def _translate(points, rng):
    dx, dy = rng.randint(-20, 20), rng.randint(-20, 20)
    return [(x + dx, y + dy) for x, y in points]


def _swap(points, rng):
    return [(y, x) for x, y in points]


def _rotate(points, rng):
    return [(y - x, -x) for x, y in points]


def _scale(points, rng):
    factor = rng.randint(2, 4)
    return [(factor * x, factor * y) for x, y in points]


def _shuffle(points, rng):
    return rng.sample(points, len(points))


def _negate(points, rng):
    return [(-x, -y) for x, y in points]


SYMMETRIES = [_translate, _swap, _rotate, _scale, _shuffle]
INVARIANT_FIELDS = ("v", "t", "triangles", "b", "k", "h", "ordinary", "near_pencil", "excess")


def _invariants(record):
    return (tuple(record[f] for f in INVARIANT_FIELDS),
            {suite for suite, _ in record["violations"]})


def _backends(kernel, in_child):
    """Per backend, a function from a list of configurations to their
    invariants; the compiled one runs the kernel in a child process."""
    return {"pure": lambda batch: [_invariants(analyze_config(point_config(p))) for p in batch],
            "compiled": lambda batch: in_child(
                lambda: [_invariants(kernel.analyze_ints(p)) for p in batch])}


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                    min_size=3, max_size=9, unique=True),
    rng=st.randoms(use_true_random=False),
)
def test_tropical_symmetries_keep_the_record(built_kernel, in_child, points, rng):
    for name, invariants in _backends(built_kernel, in_child).items():
        images = [symmetry(points, rng) for symmetry in SYMMETRIES]
        expected, *seen = invariants([points, *images])
        for symmetry, got in zip(SYMMETRIES, seen, strict=True):
            assert got == expected, (name, symmetry.__name__, points)


def test_negation_is_not_a_symmetry(built_kernel, in_child):
    # the control: max-plus becomes min-plus, so the record changes
    rng = random.Random(7)
    sample = [list({(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(7)})
              for _ in range(30)]
    for name, invariants in _backends(built_kernel, in_child).items():
        both = invariants(sample + [_negate(p, rng) for p in sample])
        changed = sum(a != b for a, b in zip(both[:len(sample)], both[len(sample):]))
        assert changed >= len(sample) // 2, name
