"""Max-plus arithmetic of the two-point Cramer rule.

The Cramer triple (|O1| : |O2| : |O3|) of two points is made of tropical
permanents of the rows (x, y, 0): |Oi| is the permanent of the 2x2 minor
without column i, the larger of its two diagonal products. It is checked
here through `incidence.cramer_stable_line`, its one implementation.
"""

from hypothesis import assume, given
from hypothesis import strategies as st

from troplines.incidence import cramer_stable_line
from troplines.lines import Point2

scalars = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)
points = st.builds(Point2, scalars, scalars)


def test_permanent_examples():
    # |O3| is the permanent of the (x, y) block; here both diagonals tie
    assert cramer_stable_line(Point2(2, 0), Point2(3, 1))[0][2] == 3
    assert cramer_stable_line(Point2(-3, 0), Point2(-1, 0))[0] == (0, -1, -1)


@given(points, points)
def test_permanent_is_max_of_diagonal_products(p1, p2):
    assume(p1 != p2)
    triple = cramer_stable_line(p1, p2)[0]
    assert triple[2] == max(p1.x + p2.y, p1.y + p2.x)
    # a permanent has no sign: the order of the rows does not matter
    assert cramer_stable_line(p2, p1)[0] == triple


def _brute_force_triple(row1, row2):
    """Each coordinate as an explicit max over the two diagonal products."""
    out = []
    for drop in range(3):
        a, b = (c for c in range(3) if c != drop)
        out.append(max(row1[a] + row2[b], row1[b] + row2[a]))
    return tuple(out)


def test_cramer_examples():
    assert cramer_stable_line(Point2(-3, 2), Point2(-1, 2))[0] == (2, -1, 1)
    assert cramer_stable_line(Point2(-5, 1), Point2(-2, 1))[0] == (1, -2, -1)


@given(points, points)
def test_cramer_matches_brute_force(p1, p2):
    assume(p1 != p2)
    rows = ((p1.x, p1.y, 0), (p2.x, p2.y, 0))
    assert cramer_stable_line(p1, p2)[0] == _brute_force_triple(*rows)
