"""Monomials of fixed degree, listed and sorted in lex order.

A monomial in n variables is an exponent tuple (a_1, ..., a_n).  The
convention is ascending: x_1 < x_2 < ... < x_n, so x_n^d is the largest
monomial of its degree under lex, and the lex sort key of M is M[::-1].
Lex is the one monomial order: no answer depends on an order, and it only
sorts what the commands print and the columns of a rational subspace.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from itertools import accumulate
from math import comb
from typing import Iterator

from . import errors
from .errors import InvalidInputError


def exponents(M) -> tuple[int, ...]:
    """M as a plain tuple, checked to hold nonnegative ints (not bools or floats)."""
    t = M if type(M) is tuple else tuple(M)
    if not {int}.issuperset(map(type, t)) or min(t, default=0) < 0:
        raise InvalidInputError(f"exponents must be nonnegative integers: {t!r}")
    return t


def exponent_tuple(M, n: int, d: int) -> tuple[int, ...]:
    """`exponents(M)`, checked to be a degree-d monomial in n variables."""
    t = exponents(M)
    if len(t) != n:
        raise InvalidInputError(f"{monomial_to_text(t)} does not live in {n} variables")
    if sum(t) != d:
        raise InvalidInputError(f"{monomial_to_text(t)} does not have degree {d}")
    return t


def monomial_to_text(exps) -> str:
    """Render an exponent tuple as x-notation, e.g. (2, 0, 1) -> 'x1^2*x3'."""
    parts = []
    for i, e in enumerate(exps, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


_SHORT = 3 * errors.MAX_DIGITS  # n + d up to this gives a dimension below 8^MAX_DIGITS


def dim_component(n: int, d: int) -> int:
    """Dimension of the space of degree-d forms in n variables.  One too
    long for Python to print is refused before math.comb computes it; it
    is below 2^(n + d), so only n + d over _SHORT needs the count."""
    if n < 1 or d < 0 or n + d > _SHORT:  # capped_dim checks n and d
        digits = len(str(capped_dim(n, d, 10 ** (errors.MAX_DIGITS - 1))))
        errors.check_size(digits, f"digits in dim A({n})_{d}", errors.MAX_DIGITS - 1)
    return comb(n - 1 + d, n - 1)


def capped_dim(n: int, d: int, cap: int) -> int:
    """min(dim A(n)_d, cap + 1), by `errors.capped_comb`: the dimension to
    compare with a bound, however large n and d are."""
    if n < 1 or d < 0:
        raise InvalidInputError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    return errors.capped_comb(n - 1 + d, d, cap)


@lru_cache(maxsize=None)
def _basis_tuples(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All degree-d exponent tuples in n variables, ascending lex order; a
    basis of more than errors.DEFAULT_BUDGET exponents in all is refused
    before it is built."""
    size = n * capped_dim(n, d, errors.DEFAULT_BUDGET)
    errors.check_size(size, f"exponents in the monomials of degree {d} in {n} variables")
    # every monomial of degree d divides (d, ..., d); reversing the divisors,
    # listed by the exponent of x_1 first, puts x_n first
    return tuple(p[::-1] for p in divisors_of_degree((d,) * n, d))


def _power_free(n: int, d: int) -> list[tuple[int, ...]]:
    """The degree-d exponent tuples other than the powers x_i^d, lex ascending."""
    return [t for t in _basis_tuples(n, d) if max(t) < d]


def enumerate_monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """Degree-d monomials in n variables, descending in lex order."""
    return list(reversed(_basis_tuples(n, d)))


def multiply(M, T) -> tuple[int, ...]:
    if len(M) != len(T):
        raise InvalidInputError("cannot multiply monomials in different variable counts")
    return tuple(a + b for a, b in zip(M, T))


def divisors_of_degree(T, d: int) -> list[tuple[int, ...]]:
    """The degree-d monomials dividing T, as raw exponent tuples, in
    ascending tuple order (by the exponent of x_1 first)."""
    if not 0 <= d <= sum(T):
        return []
    # after[i]: the degree left in T past position i, which bounds from
    # below what position i must take
    after = list(accumulate(reversed(T)))[-2::-1] + [0]
    level = [((), d)]
    for t, a in zip(T, after):
        level = [(p + (e,), r - e) for p, r in level for e in range(max(0, r - a), min(t, r) + 1)]
    return [p for p, _ in level]


def ranked_classes(n: int, total: int, d: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The exponent classes of degree `total` in n variables, the partitions
    of `total` into at most n parts as ascending n-tuples (zeros first), each
    with its number of degree-d divisors, in ascending divisor count.

    Each class stands for the degree-`total` monomials whose sorted
    exponents it is, which permuting the variables leaves fixed.  The walk
    is lazy: taking the classes up to some count computes the counts of
    those classes and of their neighbours one move on, and no others.

    The walk starts from x_n^total and moves one unit from an exponent a to
    an exponent b <= a - 2.  Such a move never lowers the count: with
    P_t = 1 + z + ... + z^t the count is the coefficient of z^d in
    prod_i P_{t_i}, and P_{a-1} P_{b+1} = P_a P_b + z^{b+1} + ... + z^{a-1},
    so the product only gains terms with nonnegative coefficients.  Every
    partition arises from (total) by such moves (Muirhead's lemma), along a
    chain of nondecreasing counts, so a heap keyed by count yields every
    class, in ascending count.
    """
    start = (0,) * (n - 1) + (total,)
    seen = {start}
    heap = [(count_divisors(start, d), start)]
    while heap:
        count, lam = heappop(heap)
        yield count, lam
        # the receiver is the last exponent of its value and the giver the
        # first of its value, so the moved tuple stays ascending
        for i in range(n - 1):
            if lam[i] == lam[i + 1]:
                continue
            for j in range(i + 1, n):
                if lam[j] - lam[i] >= 2 and lam[j] != lam[j - 1]:
                    child = list(lam)
                    child[i] += 1
                    child[j] -= 1
                    child = tuple(child)
                    if child not in seen:
                        seen.add(child)
                        heappush(heap, (count_divisors(child, d), child))


def arrangements(exps) -> Iterator[tuple[int, ...]]:
    """One index map s per distinct rearrangement T of `exps`, with
    T[i] = exps[s[i]], in ascending lex order of T; a map carries the
    divisors of `exps` to those of T.

    Each step is the next-permutation step on T (x_n most significant),
    from the smallest arrangement, with its swap and reversal also
    applied to the map.
    """
    s = sorted(range(len(exps)), key=exps.__getitem__, reverse=True)
    t = [exps[j] for j in s]
    while True:
        yield tuple(s)
        i = 1
        while i < len(t) and t[i] >= t[i - 1]:
            i += 1
        if i == len(t):
            return
        j = 0
        while t[j] <= t[i]:
            j += 1
        t[i], t[j] = t[j], t[i]
        s[i], s[j] = s[j], s[i]
        t[:i] = t[i - 1 :: -1]
        s[:i] = s[i - 1 :: -1]


@lru_cache(maxsize=None)
def _count_divisors_sorted(sorted_exps: tuple[int, ...], d: int) -> int:
    # coefficient of z^d in prod_i (1 + z + ... + z^{t_i})
    coeffs = [0] * (d + 1)
    coeffs[0] = 1
    for t in sorted_exps:
        new = [0] * (d + 1)
        running = 0
        for j in range(d + 1):
            running += coeffs[j]
            if j - t - 1 >= 0:
                running -= coeffs[j - t - 1]
            new[j] = running
        coeffs = new
    return coeffs[d]


def count_divisors(T, d: int) -> int:
    """Number of degree-d monomial divisors of T; symmetric in the exponents."""
    if d < 0 or d > sum(T):
        return 0
    return _count_divisors_sorted(tuple(sorted(e for e in T if e > 0)), d)


def pivot(M) -> int:
    """Index of the smallest variable other than x_1 dividing M.

    For a pure power of x_1 the pivot is declared to be 1, making it the
    unique fixed point of `reduce`.
    """
    if sum(M) == 0:
        raise InvalidInputError("pivot needs a monomial of positive degree")
    for j in range(1, len(M)):
        if M[j] > 0:
            return j + 1
    return 1


def reduce(M) -> tuple[int, ...]:
    """One step toward x_1^d: replace one factor x_p(M) by x_1."""
    p = pivot(M)
    if p == 1:
        return tuple(M)
    exps = list(M)
    exps[0] += 1
    exps[p - 1] -= 1
    return tuple(exps)


def expand(M) -> frozenset[tuple[int, ...]]:
    """The monomials that `reduce` maps onto M.

    Empty when x_1 does not divide M.  For M = x_1^d the set has n elements
    (including M itself); otherwise it has pivot(M) - 1 elements.
    """
    if sum(M) == 0:
        raise InvalidInputError("expand needs a monomial of positive degree")
    n = len(M)
    if M[0] == 0:
        return frozenset()
    p = pivot(M)
    # one factor x_1 moves to x_2 .. x_n when M = x_1^d, else to x_2 .. x_p
    out = [tuple(M)] if p == 1 else []
    for j in range(1, n if p == 1 else p):
        exps = list(M)
        exps[0] -= 1
        exps[j] += 1
        out.append(tuple(exps))
    return frozenset(out)
