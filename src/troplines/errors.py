"""Exception types shared across the package.

Geometric preconditions raise subclasses of TroplinesError so callers (and
the CLI, which maps them to exit code 2) can distinguish bad input from
genuine bugs. TilingFailure (an inconsistency in the subdivision pipeline)
and InvariantViolation (a configuration failing an analysis suite) are the
exceptions: neither should be caught as "bad input".
"""


class TroplinesError(Exception):
    """Base class for all package-specific errors."""


class EqualPoints(TroplinesError):
    """Two points that must be distinct coincide."""

    def __init__(self, message: str, index: int = None, earlier: int = None):
        self.index = index
        self.earlier = earlier
        super().__init__(message)


class IdenticalLines(TroplinesError):
    """Two tropical lines that must be distinct have the same vertex."""


class DuplicateLine(TroplinesError):
    """An arrangement was given the same line twice."""

    def __init__(self, first_index: int, second_index: int):
        self.first_index = first_index
        self.second_index = second_index
        super().__init__(
            f"duplicate line: index {second_index} repeats index {first_index}"
        )


class EmptyArrangement(TroplinesError):
    """An arrangement needs at least one line."""


class NotAVertex(TroplinesError):
    """The queried point is not an arrangement vertex (no 2D dual cell)."""


class TilingFailure(TroplinesError):
    """The dual cells fail to tile n * Delta_2. Indicates a bug, not bad input."""


class InvariantViolation(TroplinesError):
    """A configuration failed an analysis suite; the message is "suite: detail"."""


class NotATriangle(TroplinesError):
    """determined_faces was called on a cell that is not a triangle."""


class TooFewPoints(TroplinesError):
    """A point configuration is below the operation's minimum size."""


class InvalidSweep(TroplinesError):
    """Sweep parameters violate a precondition (sizes, modes)."""


class GridTooSmall(InvalidSweep):
    """grid_size**2 < n: the lattice cannot host the configuration."""


class RangeTooSmall(InvalidSweep):
    """(2*coord_range+1)**2 < n: the sample box cannot host n distinct points."""


class InputFormatError(TroplinesError):
    """An input file failed to parse; the message names the offending field."""


class BudgetExhausted(UserWarning):
    """A witness search ran out of configurations before finding enough.

    Issued through warnings.warn: the search still returns whatever it
    found, so running dry is reported without being fatal.
    """
