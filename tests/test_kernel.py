"""Backend selection and pure/compiled agreement."""

import json
import random
import re
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


SOURCE = Path(__file__).resolve().parent.parent / "src" / "troplines"


def test_shipped_c_echoes_the_current_pyx():
    # Cython copies each source line it translates into a comment of the
    # generated C, marked with "# <<<<<<<<<<<<<<" under the header
    # /* "troplines/_fastsweep.pyx":N. A .pyx edited without regenerating
    # the shipped C shows up as an echoed line that no longer matches.
    pyx = (SOURCE / "_fastsweep.pyx").read_text(encoding="utf-8").splitlines()
    header = re.compile(r'/\* "troplines/_fastsweep\.pyx":(\d+)$')
    marker = "             # <<<<<<<<<<<<<<"
    line_no = None
    matched, drifted = 0, []
    for text in (SOURCE / "_fastsweep.c").read_text(encoding="utf-8").splitlines():
        found = header.search(text)
        if found:
            line_no = int(found.group(1))
        elif line_no is not None and text.endswith(marker):
            echoed = text[len(" * "):-len(marker)]
            if line_no <= len(pyx) and echoed == pyx[line_no - 1]:
                matched += 1
            else:
                drifted.append(line_no)
            line_no = None
    assert drifted == []
    # every translated statement is echoed; far fewer would mean the
    # format was misread and the check proved nothing
    assert matched > 700


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
