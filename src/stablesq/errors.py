"""Exception types shared across the package, and its size policy: check_size, capped_comb."""

from __future__ import annotations

# the budget of a search given none, and the largest size a computation
# takes on without one; check_size reads it at call time
DEFAULT_BUDGET = 10_000_000
# Python's default limit on the digits of an int read from or printed as a
# string: the longest decimal exponent of a coefficient, and of a count
MAX_DIGITS = 4300


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


def check_size(size: int, what: str, budget: int | None = None, seen: int = 0) -> None:
    """Refuse `size` units of `what` over the budget (DEFAULT_BUDGET when None);
    a size may be a lower bound, such as a capped count, hence "at least"."""
    if budget is None:
        budget = DEFAULT_BUDGET
    if size > budget:
        raise BudgetExceededError(f"at least {size} {what}, over the budget {budget}", seen)


def capped_comb(n: int, k: int, cap: int) -> int:
    """min(C(n, k), cap + 1) for n, k, cap >= 0, so never longer to print than
    cap + 1.  C(n, j) >= 2^j for j <= n / 2, so the count passes the cap
    within log2(cap) + 1 steps, however large n and k are."""
    total = int(0 <= k <= n)
    for j in range(min(k, n - k)):
        total = total * (n - j) // (j + 1)
        if total > cap:
            return cap + 1
    return total
