"""The exact scalar type.

All geometry in this package is exact. Scalars are plain ``int`` or
``fractions.Fraction``; no floats enter the pipeline. Fraction already
maintains the invariants the rest of the code relies on (lowest terms,
positive denominator), so there is no wrapper class. The one JSON codec
for scalars (an int, or a "p/q" string) is serialize.parse_rational and
serialize.rational_to_json.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]
