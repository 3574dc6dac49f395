"""Exception types shared across the package."""


class LocrepError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LocrepError, ValueError):
    """A parameter lies outside the domain an operation is defined on."""


class SearchCapExceeded(DomainError):
    """An exhaustive search was refused because the instance is too large."""


class InvariantError(LocrepError):
    """An internal consistency check failed: a defect in the package.

    Raised instead of ``assert``, which ``python -O`` strips.
    """


class PhiUndefinedError(LocrepError):
    """No chain of regenerating sets of the requested length exists."""


class RepairError(LocrepError):
    """A failure pattern cannot be repaired within the locality cap."""

    def __init__(self, stuck: int, residual: frozenset[int]):
        self.stuck = stuck
        self.residual = residual
        super().__init__(
            f"coordinate {stuck} is unrepairable within the locality cap; "
            f"residual failures: {sorted(residual)}"
        )
