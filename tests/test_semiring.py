"""Max-plus semiring algebra, checked as laws over random exact scalars."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from troplines.semiring import (
    TropMatrix2x3,
    cramer_stable_solution,
    trop_add,
    trop_mul,
    trop_permanent_2x2,
)

scalars = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@given(scalars, scalars)
def test_add_is_commutative(a, b):
    assert trop_add(a, b) == trop_add(b, a)


@given(scalars, scalars, scalars)
def test_add_is_associative(a, b, c):
    assert trop_add(trop_add(a, b), c) == trop_add(a, trop_add(b, c))


@given(scalars)
def test_add_is_idempotent(a):
    assert trop_add(a, a) == a


@given(scalars, scalars, scalars)
def test_mul_distributes_over_add(a, b, c):
    left = trop_mul(a, trop_add(b, c))
    right = trop_add(trop_mul(a, b), trop_mul(a, c))
    assert left == right


@given(scalars, scalars)
def test_mul_is_commutative(a, b):
    assert trop_mul(a, b) == trop_mul(b, a)


@given(scalars)
def test_mul_identity_is_zero(a):
    assert trop_mul(a, 0) == a


def test_add_examples():
    assert trop_add(3, 5) == 5
    assert trop_add(-1, Fraction(7, 2)) == Fraction(7, 2)
    assert trop_add(-2, -2) == -2


def test_mul_examples():
    assert trop_mul(3, 5) == 8
    assert trop_mul(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_permanent_examples():
    # both diagonals tie
    assert trop_permanent_2x2(2, 0, 2, 0) == 2
    assert trop_permanent_2x2(-3, 0, -1, 0) == -1


@given(scalars, scalars, scalars, scalars)
def test_permanent_is_max_of_diagonal_products(m11, m12, m21, m22):
    assert trop_permanent_2x2(m11, m12, m21, m22) == max(m11 + m22, m12 + m21)


def test_minor_drops_the_right_column():
    M = TropMatrix2x3((1, 2, 3), (4, 5, 6))
    assert M.minor(1) == (2, 3, 5, 6)
    assert M.minor(2) == (1, 3, 4, 6)
    assert M.minor(3) == (1, 2, 4, 5)


def test_matrix_needs_rows_of_three():
    with pytest.raises(ValueError):
        TropMatrix2x3((1, 2), (3, 4, 5))


def _brute_force_triple(row1, row2):
    """Each coordinate as an explicit max over the two diagonal products."""
    out = []
    for drop in range(3):
        keep = [c for c in range(3) if c != drop]
        out.append(
            max(
                row1[keep[0]] + row2[keep[1]],
                row1[keep[1]] + row2[keep[0]],
            )
        )
    return tuple(out)


def test_cramer_examples():
    assert cramer_stable_solution(TropMatrix2x3((-3, 2, 0), (-1, 2, 0))) == (2, -1, 1)
    assert cramer_stable_solution(TropMatrix2x3((0, 0, 0), (0, 0, 0))) == (0, 0, 0)
    assert cramer_stable_solution(TropMatrix2x3((-5, 1, 0), (-2, 1, 0))) == (1, -2, -1)


@given(st.lists(scalars, min_size=6, max_size=6))
def test_cramer_matches_brute_force(entries):
    row1, row2 = tuple(entries[:3]), tuple(entries[3:])
    assert cramer_stable_solution(TropMatrix2x3(row1, row2)) == _brute_force_triple(
        row1, row2
    )


@given(st.lists(scalars, min_size=6, max_size=6), scalars, scalars)
def test_cramer_is_projective_under_row_scaling(entries, s, t):
    """Tropically scaling a row shifts every output coordinate equally."""
    row1, row2 = tuple(entries[:3]), tuple(entries[3:])
    base = cramer_stable_solution(TropMatrix2x3(row1, row2))
    scaled = cramer_stable_solution(
        TropMatrix2x3(tuple(e + s for e in row1), tuple(e + t for e in row2))
    )
    assert tuple(v + s + t for v in base) == scaled
