"""Monomials of fixed degree and the orders used to sort them.

A monomial in n variables is an exponent tuple (a_1, ..., a_n).  The
ambient convention is ascending: x_1 < x_2 < ... < x_n, so x_n^d is the
largest monomial of its degree under lex.  Block orders are the one
exception, see `MonomialOrder.block`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator

from .errors import InvalidInputError


class Monomial(tuple):
    """Exponent tuple with a degree; hashable and usable as a plain tuple."""

    __slots__ = ()

    def __new__(cls, exponents) -> "Monomial":
        exps = tuple(exponents)
        if not exps:
            raise InvalidInputError("monomial needs at least one variable")
        if any(type(e) is not int or e < 0 for e in exps):
            raise InvalidInputError(f"exponents must be nonnegative integers: {exps!r}")
        return super().__new__(cls, exps)

    @property
    def n(self) -> int:
        return len(self)

    @property
    def degree(self) -> int:
        return sum(self)

    def to_text(self) -> str:
        return monomial_to_text(self)

    def to_json(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"Monomial({monomial_to_text(self)!r}, n={len(self)})"


def monomial_to_text(exps) -> str:
    """Render an exponent tuple as x-notation, e.g. (2, 0, 1) -> 'x1^2*x3'."""
    parts = []
    for i, e in enumerate(exps, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def monomial_from_text(text: str, n: int) -> Monomial:
    """Parse x-notation back into a Monomial in n variables."""
    stripped = text.strip()
    exps = [0] * n
    if stripped == "1":
        return Monomial(exps)
    for factor in stripped.split("*"):
        factor = factor.strip()
        if "^" in factor:
            var, _, power = factor.partition("^")
        else:
            var, power = factor, "1"
        if not var.startswith("x"):
            raise InvalidInputError(f"bad factor {factor!r} in {text!r}")
        try:
            idx = int(var[1:])
            e = int(power)
        except ValueError as exc:
            raise InvalidInputError(f"bad factor {factor!r} in {text!r}") from exc
        if not (1 <= idx <= n):
            raise InvalidInputError(f"variable x{idx} out of range for n={n}")
        if e < 1:
            raise InvalidInputError(f"exponent must be positive in {factor!r}")
        exps[idx - 1] += e
    return Monomial(exps)


@dataclass(frozen=True)
class MonomialOrder:
    """A comparison rule for monomials of equal degree.

    lex and grlex follow the ascending convention (x_n largest).  block(m)
    splits the variables into x_1..x_m and the rest and applies grlex to
    each block under the opposite convention x_1 > x_2 > ... > x_n, so a
    monomial heavy in early variables sorts high.
    """

    kind: str
    split: int = 0

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def grlex() -> "MonomialOrder":
        return MonomialOrder("grlex")

    @staticmethod
    def block(split: int) -> "MonomialOrder":
        if split < 1:
            raise InvalidInputError(f"block split must be >= 1, got {split}")
        return MonomialOrder("block", split)

    @staticmethod
    def parse(name: str) -> "MonomialOrder":
        if not isinstance(name, str):
            raise InvalidInputError(f"order must be a name, got {name!r}")
        name = name.strip()
        if name == "lex":
            return MonomialOrder.lex()
        if name == "grlex":
            return MonomialOrder.grlex()
        if name.startswith("block:"):
            try:
                return MonomialOrder.block(int(name.split(":", 1)[1]))
            except ValueError as exc:
                raise InvalidInputError(f"bad block split in {name!r}") from exc
        raise InvalidInputError(f"unknown order {name!r}; use lex, grlex, or block:m")

    @property
    def name(self) -> str:
        return f"block:{self.split}" if self.kind == "block" else self.kind

    def key(self, M) -> tuple:
        """Sort key; larger key means larger monomial.

        Valid for comparing monomials of equal total degree (grlex keys are
        also total across degrees).
        """
        if self.kind == "lex":
            return tuple(reversed(M))
        if self.kind == "grlex":
            return (sum(M), *reversed(M))
        if self.kind == "block":
            if self.split >= len(M):
                raise InvalidInputError(
                    f"block split {self.split} needs at least {self.split + 1} variables"
                )
            head, tail = M[: self.split], M[self.split :]
            return (sum(head), *head, sum(tail), *tail)
        raise InvalidInputError(f"unknown order kind {self.kind!r}")

    def compare(self, M, T) -> int:
        """-1, 0, or 1 as M <, =, > T.  Requires equal n and equal degree."""
        if len(M) != len(T):
            raise InvalidInputError(
                f"cannot compare monomials in {len(M)} and {len(T)} variables"
            )
        if sum(M) != sum(T):
            raise InvalidInputError(
                f"cannot compare monomials of degrees {sum(M)} and {sum(T)}"
            )
        a, b = self.key(M), self.key(T)
        return (a > b) - (a < b)


LEX = MonomialOrder.lex()
GRLEX = MonomialOrder.grlex()


def dim_component(n: int, d: int) -> int:
    """Dimension of the space of degree-d forms in n variables."""
    if n < 1 or d < 0:
        raise InvalidInputError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    return comb(n - 1 + d, n - 1)


@lru_cache(maxsize=None)
def _basis_tuples(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All degree-d exponent tuples in n variables, ascending lex order."""
    if n == 1:
        return ((d,),)
    out = []
    for last in range(d + 1):
        for rest in _basis_tuples(n - 1, d - last):
            out.append(rest + (last,))
    out.sort(key=lambda t: tuple(reversed(t)))
    return tuple(out)


def _power_free(n: int, d: int) -> list[tuple[int, ...]]:
    """The degree-d exponent tuples other than the powers x_i^d, lex ascending."""
    return [t for t in _basis_tuples(n, d) if max(t) < d]


def enumerate_monomials(n: int, d: int, order: MonomialOrder = LEX) -> list[Monomial]:
    """Degree-d monomials in n variables, sorted descending under the order."""
    if n < 1 or d < 0:
        raise InvalidInputError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    return sorted(
        (Monomial(t) for t in _basis_tuples(n, d)), key=order.key, reverse=True
    )


def multiply(M, T) -> Monomial:
    if len(M) != len(T):
        raise InvalidInputError("cannot multiply monomials in different variable counts")
    return Monomial(tuple(a + b for a, b in zip(M, T)))


def divides(M, T) -> bool:
    return len(M) == len(T) and all(a <= b for a, b in zip(M, T))


def quotient(T, M) -> Monomial:
    if not divides(M, T):
        raise InvalidInputError(f"{monomial_to_text(M)} does not divide {monomial_to_text(T)}")
    return Monomial(tuple(b - a for a, b in zip(M, T)))


def divisors_of_degree(T, d: int) -> Iterator[tuple[int, ...]]:
    """Yield the degree-d monomials dividing T, as raw exponent tuples."""
    n = len(T)

    def rec(pos: int, remaining: int, acc: list[int]):
        if pos == n:
            if remaining == 0:
                yield tuple(acc)
            return
        tail_cap = sum(T[pos:])
        if remaining > tail_cap:
            return
        for e in range(min(T[pos], remaining) + 1):
            acc.append(e)
            yield from rec(pos + 1, remaining - e, acc)
            acc.pop()

    if 0 <= d <= sum(T):
        yield from rec(0, d, [])


def exponent_classes(n: int, total: int) -> Iterator[tuple[int, ...]]:
    """The partitions of `total` into at most n parts, each as an ascending
    exponent tuple of length n (zeros first).

    Each stands for the class of degree-`total` monomials whose sorted
    exponents it is, which permuting the variables leaves fixed.
    """

    def rec(left: int, slots: int, cap: int):
        # descending parts, at most `slots` of them, each at most `cap`
        if left == 0:
            yield ()
            return
        for p in range(min(left, cap), 0, -1):
            if p * slots < left:
                return
            for rest in rec(left - p, slots - 1, p):
                yield (p, *rest)

    for parts in rec(total, n, total):
        yield (0,) * (n - len(parts)) + parts[::-1]


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


def reduce(M) -> Monomial:
    """One step toward x_1^d: replace one factor x_p(M) by x_1."""
    p = pivot(M)
    if p == 1:
        return Monomial(M)
    exps = list(M)
    exps[0] += 1
    exps[p - 1] -= 1
    return Monomial(exps)


def expand(M) -> frozenset[Monomial]:
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
    if p == 1:
        out = [Monomial(M)]
        for j in range(1, n):
            exps = list(M)
            exps[0] -= 1
            exps[j] += 1
            out.append(Monomial(exps))
        return frozenset(out)
    out = []
    for j in range(2, p + 1):
        exps = list(M)
        exps[0] -= 1
        exps[j - 1] += 1
        out.append(Monomial(exps))
    return frozenset(out)
