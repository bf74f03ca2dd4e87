"""Exception types shared across the package."""

from __future__ import annotations

# the budget of a search given none, and the largest size a computation
# takes on without one; modules read it at call time
DEFAULT_BUDGET = 10_000_000


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class BudgetExceededError(RuntimeError):
    """A search or product was aborted because it outgrew its budget.

    `seen` holds the number of candidates processed before the abort, so
    callers can report a lower bound on the true size of the computation.
    """

    def __init__(self, message: str, seen: int = 0):
        super().__init__(message)
        self.seen = seen
