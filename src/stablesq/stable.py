"""Strongly stable subspaces: predicate, enumeration, extremal witness.

A subspace U is strongly stable when its complement is closed under every
move x_j * M / x_i with j < i, that is, moving one factor to a smaller
variable never leaves the complement.  Adjacent moves (i to i-1) generate
all such moves, which keeps both the predicate and the enumeration cheap.
Every nonempty complement of this kind contains x_1^d.
"""

from __future__ import annotations

from typing import Iterator

from . import errors
from .errors import InvalidInputError
from .monomial import capped_dim
from .subspace import MonomialSubspace


def _adjacent_down_moves(t: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Moves x_{i-1} * t / x_i, one factor shifted to the next smaller variable."""
    for i in range(1, len(t)):
        if t[i] > 0:
            yield t[: i - 1] + (t[i - 1] + 1, t[i] - 1) + t[i + 1 :]


def _adjacent_up_moves(t: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    for i in range(len(t) - 1):
        if t[i] > 0:
            yield t[:i] + (t[i] - 1, t[i + 1] + 1) + t[i + 2 :]


def is_strongly_stable(U: MonomialSubspace) -> bool:
    """Check closure of the complement under moves to smaller variables.

    Only adjacent moves are tested, which is equivalent to testing every
    move x_j * M / x_i, j < i, because a general move is a chain of
    adjacent ones.
    """
    comp = U.complement
    for t in comp:
        for moved in _adjacent_down_moves(t):
            if moved not in comp:
                return False
    return True


def _stable_complements(
    n: int, d: int, k: int, budget: int | None = None
) -> Iterator[list[tuple[int, ...]]]:
    """The complements of the strongly stable subspaces of codimension k in
    degree d, each a new list in ascending lex order.

    Complements are grown one monomial at a time in ascending lex order.
    Every prefix of a complement listed this way is itself closed under
    down moves, and conversely the lex-smallest missing element of any
    larger complement is reachable by one adjacent up move from the
    prefix, so the search tree hits each complement exactly once.

    The candidates of a node are the down-closed adjacent up moves of its
    members that come after its last member.  A child's are its parent's
    that come after the new member c, plus the down-closed up moves of c:
    an up move of another member that only c closes has c as a down move,
    so it is an up move of c.  The search runs on reversed exponent tuples,
    whose tuple order is the lex order; an up move of t is a down move of
    its reversal, and the other way round.

    Out-of-range k yields nothing.  The budget (errors.DEFAULT_BUDGET when None)
    bounds the number of search nodes; exceeding it raises
    BudgetExceededError, as does n over errors.DEFAULT_BUDGET.
    """
    # the root is a tuple of n exponents; capped_dim checks n and d
    errors.check_size(n, "variables")
    if k > capped_dim(n, d, k) or k < 0:
        return
    if k == 0:
        yield []
        return
    if d == 0:  # so k == 1: the zero space, found without a search
        yield [(0,) * n]
        return

    chosen, members = [], set()
    nodes = 0
    what = f"nodes in the strongly stable search for n={n}, d={d}, k={k}"

    def grow(candidates: list[tuple[int, ...]]):
        nonlocal nodes
        for i, c in enumerate(candidates):
            nodes += 1
            errors.check_size(nodes, what, budget, seen=nodes)
            chosen.append(c)
            if len(chosen) == k:
                yield [r[::-1] for r in chosen]
            else:
                members.add(c)
                ups = [
                    u
                    for u in _adjacent_down_moves(c)
                    if all(v in members for v in _adjacent_up_moves(u))
                ]
                yield from grow(sorted(candidates[i + 1 :] + ups))
                members.discard(c)
            chosen.pop()

    root = (0,) * (n - 1) + (d,)
    yield from grow([root])


def enumerate_strongly_stable(
    n: int, d: int, k: int, budget: int | None = None
) -> list[MonomialSubspace]:
    """All strongly stable subspaces of codimension k in degree d, in the
    order of `_stable_complements`, which also bounds the search by the
    budget."""
    return [MonomialSubspace._built(n, d, C) for C in _stable_complements(n, d, k, budget)]


def extremal_complement(n: int, d: int, k: int) -> list[tuple[int, ...]]:
    """Complement {x_1^d} plus {x_1^{d-1} x_j : 2 <= j <= k}; needs k <= n."""
    if not (1 <= k <= n):
        raise InvalidInputError(f"need 1 <= k <= n={n}, got k={k}")
    if d < 1:
        raise InvalidInputError(f"need d >= 1, got d={d}")
    comp = [(d,) + (0,) * (n - 1)]
    for j in range(2, k + 1):
        exps = [0] * n
        exps[0] = d - 1
        exps[j - 1] += 1
        comp.append(tuple(exps))
    return comp


def extend_stable(U: MonomialSubspace) -> MonomialSubspace:
    """Grow a strongly stable U by one dimension, staying strongly stable.

    Starting from x_1^d, factors are pushed toward larger variables while
    the result stays in the complement.  The walk stops at a monomial
    with no up move left inside the complement, which is exactly the
    condition for removing it to leave a valid complement.  The zero
    subspace extends to span(x_n^d).
    """
    if not is_strongly_stable(U):
        raise InvalidInputError("extend_stable needs a strongly stable subspace")
    comp = U.complement
    if not comp:
        raise InvalidInputError("the full space cannot be extended")
    cur = (U.d,) + (0,) * (U.n - 1)
    while True:
        step = next((up for up in _adjacent_up_moves(cur) if up in comp), None)
        if step is None:
            return MonomialSubspace._built(U.n, U.d, comp - {cur})
        cur = step
