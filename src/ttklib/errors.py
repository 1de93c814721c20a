"""Exception types shared across the package."""


class TTKError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TTKError):
    """A parameter violates a documented precondition."""


class NotAKnotError(DomainError):
    """An operation that requires a one-component closure was given a
    multi-component link."""


class BudgetError(TTKError):
    """A computation exceeded a configured work limit.

    ``kind`` names the limit ("tl-ops" for the Temperley-Lieb transfer,
    "crossings" for the state-sum oracle) and ``count`` records the
    offending size.
    """

    def __init__(self, message, kind, count):
        super().__init__(message)
        self.kind = kind
        self.count = count
