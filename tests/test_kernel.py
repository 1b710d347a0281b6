"""Backend selection and pure/compiled agreement."""

import hashlib
import itertools
import json
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from troplines.analysis import analyze_config
from troplines.incidence import ordinary_stable_lines, point_config
from troplines.kernel import (
    COORD_LIMIT,
    MAX_KERNEL_POINTS,
    analyze,
    backend_name,
    has_ordinary_line,
    kernel_pairs,
)

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


# (points, eligible): the boundaries of the one eligibility rule
ELIGIBILITY_CASES = [
    ([(0, 0), (3, 1), (-2, 5)], True),
    ([(0, 0), (Fraction(1, 2), 3)], False),
    ([(0, 0), (Fraction(4, 1), 3)], True),
    ([(0, 0), (COORD_LIMIT, -COORD_LIMIT)], True),
    ([(0, 0), (COORD_LIMIT + 1, 1)], False),
    ([(0, 0), (1, -COORD_LIMIT - 1)], False),
    ([(i, i * i) for i in range(MAX_KERNEL_POINTS)], True),
    ([(i, i * i) for i in range(MAX_KERNEL_POINTS + 1)], False),
]


def test_eligibility_fallbacks():
    for points, eligible in ELIGIBILITY_CASES:
        cfg = point_config(points)
        pairs = kernel_pairs(cfg)
        if eligible:
            assert pairs == [(int(x), int(y)) for x, y in points], points
            assert all(type(c) is int for pair in pairs for c in pair)
        else:
            assert pairs is None, points
        # eligible or not, the dispatcher's record is the reference record
        assert analyze(cfg) == analyze_config(cfg), points


@compiled_only
def test_both_backends_serialize_identically():
    cfg = point_config([(0, 0), (3, 1), (1, 4), (-2, 2), (5, 5)])
    fast = json.dumps(analyze(cfg), sort_keys=True)
    assert fast == json.dumps(analyze_config(cfg), sort_keys=True)
    assert json.loads(fast)["v"] == 5


def _agreement_sample():
    """Fixed n = 12-16 configurations: wide ones reaching +-2**20, corner
    points exactly at the bound, and crowded small-range ones full of
    coaxial pairs."""
    rng = random.Random(416)
    corners = [(COORD_LIMIT, COORD_LIMIT), (-COORD_LIMIT, -COORD_LIMIT),
               (COORD_LIMIT, -COORD_LIMIT), (-COORD_LIMIT, COORD_LIMIT)]
    sample = []
    for n in range(12, MAX_KERNEL_POINTS + 1):
        for spread, fixed in ((COORD_LIMIT, corners), (COORD_LIMIT, []), (4, [])):
            points = set(fixed)
            while len(points) < n:
                points.add((rng.randint(-spread, spread), rng.randint(-spread, spread)))
            sample.append(sorted(points))
    return sample


@settings(max_examples=50, deadline=None)
@given(points=int_configs)
def test_analyze_matches_the_pure_reference(built_kernel, points):
    points = sorted(points)
    cfg = point_config(points)
    reference = analyze_config(cfg)
    assert built_kernel.analyze_ints(points) == reference
    assert analyze(cfg) == reference


@settings(max_examples=50, deadline=None)
@given(points=int_configs)
def test_has_ordinary_line_matches_the_pure_reference(built_kernel, points):
    points = sorted(points)
    cfg = point_config(points)
    reference = len(ordinary_stable_lines(cfg)) > 0
    assert built_kernel.has_ordinary_line(points) == reference
    assert has_ordinary_line(cfg) == reference


def test_built_kernel_agrees_with_the_pure_reference(built_kernel):
    # the kernel's own pairwise tiling and global regularity scans audit
    # the pure route
    for points in _agreement_sample():
        assert built_kernel.analyze_ints(points) == analyze_config(point_config(points)), points


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


def test_kernel_rejects_malformed_points(built_kernel):
    for points, error, message in MALFORMED_POINTS:
        for function in (built_kernel.analyze_ints, built_kernel.has_ordinary_line):
            with pytest.raises(error, match=message):
                function(points)
    # ints, bools and lists pass; they agree with the tuple form
    assert built_kernel.analyze_ints([[True, False], [0, 1], [3, 5]]) == \
        built_kernel.analyze_ints([(1, 0), (0, 1), (3, 5)])
    assert built_kernel.has_ordinary_line([[1, 0], (0, 1)]) is True


# sha256 of the kernel's records as json.dumps(record, sort_keys=True), one
# a line, for every subset of 3 to 6 points of the 4 x 4 grid in
# itertools.combinations order (14,756 configurations)
GRID_RECORDS_SHA256 = "562eaab1995bac04609e5ab62ae47384c857dfcce2703970a617c5e62448ccce"


def test_kernel_records_are_pinned(built_kernel):
    grid = [(x, y) for x in range(4) for y in range(4)]
    digest = hashlib.sha256()
    for n in range(3, 7):
        for points in itertools.combinations(grid, n):
            record = built_kernel.analyze_ints(points)
            digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == GRID_RECORDS_SHA256


def test_regularity_rejects_a_lift_convex_across_each_edge_direction(
    built_kernel, kernel_variant
):
    # negating the lift after it is computed keeps it affine on every cell,
    # so only the dominance test across cell edges can reject it; the three
    # coaxial pairs each have one interior edge, horizontal, vertical and
    # diagonal in turn
    anchor = "    _lift(n, px, py, lift);\n"

    def negate_lift(source):
        assert source.count(anchor) == 1
        return source.replace(anchor, anchor + (
            "    for (i = 0; i <= n; i++)\n"
            "        for (j = 0; i + j <= n; j++)\n"
            "            LIFT(i, j) = -LIFT(i, j);\n"))

    faulty = kernel_variant(negate_lift)
    for points in ([(0, 0), (1, 0)], [(0, 0), (0, 1)], [(0, 0), (1, 1)]):
        assert built_kernel.analyze_ints(points)["violations"] == []
        [[suite, detail]] = faulty.analyze_ints(points)["violations"]
        assert suite == "regularity" and "fails to dominate the lift" in detail, points


def _ubsan_corpus():
    """About 3,000 seeded configurations of 1 to 16 points: spread to the
    coordinate bound, in range 1000, and crowded into range 3 with many
    coaxial pairs; then whole rows, columns and diagonals."""
    rng = random.Random(2020)
    corpus = []
    for index in range(3000):
        n = 1 + index % MAX_KERNEL_POINTS
        spread = (COORD_LIMIT, 1000, 3)[index % 3]
        points = set()
        while len(points) < n:
            points.add((rng.randint(-spread, spread), rng.randint(-spread, spread)))
        corpus.append(sorted(points))
    for n in range(2, MAX_KERNEL_POINTS + 1):
        corpus += [[(i, 0) for i in range(n)], [(0, i) for i in range(n)],
                   [(i, i) for i in range(n)],
                   [(i * COORD_LIMIT // n, -i * COORD_LIMIT // n) for i in range(n)]]
    return corpus


# runs in a child process, so that a sanitizer abort fails one test
_UBSAN_CHILD = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from conftest import load_kernel
kernel = load_kernel(sys.argv[2])
corpus, malformed = pickle.load(sys.stdin.buffer)
for points in corpus:
    assert kernel.analyze_ints(points)["violations"] == [], points
    if len(points) >= 2:
        kernel.has_ordinary_line(points)
for points, error in malformed:
    for function in (kernel.analyze_ints, kernel.has_ordinary_line):
        try:
            function(points)
        except error:
            continue
        raise AssertionError(f"{points} passed")
"""


def test_kernel_has_no_undefined_behaviour(ubsan_kernel):
    malformed = [(points, error) for points, error, _ in MALFORMED_POINTS]
    done = subprocess.run(
        [sys.executable, "-c", _UBSAN_CHILD, str(Path(__file__).parent), str(ubsan_kernel)],
        input=pickle.dumps((_ubsan_corpus(), malformed)),
        capture_output=True, timeout=600,
    )
    stderr = done.stderr.decode(errors="replace")
    assert done.returncode == 0, stderr[-3000:]
    assert "runtime error" not in stderr, stderr[-3000:]


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
INVARIANT_FIELDS = ("v", "t", "triangles", "b", "k", "h", "near_pencil", "excess")


def _invariants(record):
    return (tuple(record[f] for f in INVARIANT_FIELDS),
            {suite for suite, _ in record["violations"]})


def _backends(kernel):
    return {"pure": lambda points: analyze_config(point_config(points)),
            "compiled": kernel.analyze_ints}


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                    min_size=3, max_size=9, unique=True),
    rng=st.randoms(use_true_random=False),
)
def test_tropical_symmetries_keep_the_record(built_kernel, points, rng):
    for name, analyze_points in _backends(built_kernel).items():
        expected = _invariants(analyze_points(points))
        for symmetry in SYMMETRIES:
            image = symmetry(points, rng)
            assert _invariants(analyze_points(image)) == expected, (name, symmetry.__name__, points)


def test_negation_is_not_a_symmetry(built_kernel):
    # the control: max-plus becomes min-plus, so the record changes
    rng = random.Random(7)
    sample = [list({(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(7)})
              for _ in range(30)]
    for name, analyze_points in _backends(built_kernel).items():
        changed = sum(_invariants(analyze_points(p)) != _invariants(analyze_points(_negate(p, rng)))
                      for p in sample)
        assert changed >= len(sample) // 2, name
