"""Exception types shared across the package."""


class FrobsieveError(Exception):
    """Base class for all package errors."""


class DegreeNotCompatible(FrobsieveError):
    """The requested extension degree does not fit the representation kind."""


class NotFound(FrobsieveError):
    """A deterministic search exhausted its space without a hit."""


class SearchFailed(FrobsieveError):
    """A randomized search ran out of budget."""


class SieveTimeout(FrobsieveError):
    """A sieve loop exceeded its trial budget.

    Carries whatever relations were found so the caller can top up rather
    than restart.
    """

    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial or []


class RankDeficient(FrobsieveError):
    """The log system does not determine all columns."""

    def __init__(self, msg, columns=None):
        super().__init__(msg)
        self.columns = columns or []


class InconsistentFrobenius(FrobsieveError):
    """Structural Frobenius data disagrees with p-th powering."""


class InvalidPoint(FrobsieveError):
    """Coordinates do not satisfy the defining equation of the group."""


class InsufficientPoints(FrobsieveError):
    """Not enough rational structure to run the requested computation."""


class NonInvertible(FrobsieveError):
    """An element expected to be a unit was not."""
