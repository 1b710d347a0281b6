"""Reading a JSON value as an exact rational scalar rejects inexact or malformed input."""

import pytest

from troplines.errors import InputFormatError
from troplines.serialize import parse_rational


@pytest.mark.parametrize(
    "bad", [True, False, 1.5, "x", "1/0", "3", "", "3.5.2", None, [1]]
)
def test_as_rational_rejects_inexact_or_malformed(bad):
    with pytest.raises(InputFormatError):
        parse_rational(bad, "x")
