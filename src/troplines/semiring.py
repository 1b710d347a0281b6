"""Max-plus (tropical) arithmetic on exact finite scalars.

Tropical addition is max, tropical multiplication is ordinary addition.
Scalars are exact (int or Fraction) and always finite: tropical lines
have full support, so no entry the library builds is -inf, and the
semiring carries no tropical zero.

The only linear algebra needed downstream is the 2x2 tropical permanent
and the stable solution of a 2x3 system, which is the projective triple of
the three 2x2 permanent minors. General n x n permanents are out of scope.
"""

from __future__ import annotations

from typing import Tuple

from .rationals import Rational


def trop_add(a: Rational, b: Rational) -> Rational:
    """Tropical sum a ⊕ b = max(a, b)."""
    return a if a >= b else b


def trop_mul(a: Rational, b: Rational) -> Rational:
    """Tropical product a ⊙ b = a + b."""
    return a + b


def trop_permanent_2x2(
    m11: Rational, m12: Rational, m21: Rational, m22: Rational
) -> Rational:
    """max(m11 + m22, m12 + m21): the tropical 2x2 permanent."""
    return trop_add(trop_mul(m11, m22), trop_mul(m12, m21))


class TropMatrix2x3:
    """A 2x3 tropical coefficient matrix, the shape of the two-point system."""

    __slots__ = ("rows",)

    def __init__(self, row1, row2):
        row1 = tuple(row1)
        row2 = tuple(row2)
        if len(row1) != 3 or len(row2) != 3:
            raise ValueError("TropMatrix2x3 needs two rows of three entries")
        self.rows = (row1, row2)

    def minor(self, drop_col: int) -> Tuple[Rational, Rational, Rational, Rational]:
        """The 2x2 matrix with column drop_col (1-based) deleted, row-major."""
        keep = [c for c in range(3) if c != drop_col - 1]
        (r1, r2) = self.rows
        return (r1[keep[0]], r1[keep[1]], r2[keep[0]], r2[keep[1]])

    def __repr__(self):
        return f"TropMatrix2x3({self.rows[0]!r}, {self.rows[1]!r})"


def cramer_stable_solution(C: TropMatrix2x3) -> Tuple[Rational, Rational, Rational]:
    """Stable solution (|O1| : |O2| : |O3|) of the 2x3 system C.

    |Oi| is the tropical permanent of the minor obtained by deleting
    column i. The result is projective: only pairwise differences carry
    meaning.
    """
    return (
        trop_permanent_2x2(*C.minor(1)),
        trop_permanent_2x2(*C.minor(2)),
        trop_permanent_2x2(*C.minor(3)),
    )
