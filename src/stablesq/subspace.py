"""Monomial subspaces of a graded component and their squares.

A subspace is stored by its complement: the set of degree-d monomials NOT
in the space.  Codimension, squares, and Hilbert functions all read off
the complement, which stays small in the regimes of interest.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from heapq import merge
from operator import itemgetter
from typing import Iterable

from .errors import BudgetExceededError, InvalidInputError
from .macaulay import HilbertFunction
from .monomial import (
    LEX,
    Monomial,
    MonomialOrder,
    _basis_tuples,
    arrangements,
    count_divisors,
    dim_component,
    divisors_of_degree,
    exponent_classes,
)


class MonomialSubspace:
    """Span of a set of degree-d monomials in n variables."""

    __slots__ = ("n", "d", "complement", "_members")

    def __init__(self, n: int, d: int, complement: Iterable):
        if n < 1 or d < 0:
            raise InvalidInputError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
        comp = frozenset(Monomial(M) for M in complement)
        for M in comp:
            if len(M) != n:
                raise InvalidInputError(f"{M!r} does not live in {n} variables")
            if M.degree != d:
                raise InvalidInputError(f"{M!r} does not have degree {d}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "complement", comp)
        object.__setattr__(self, "_members", None)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialSubspace is immutable")

    @classmethod
    def from_members(cls, n: int, d: int, members: Iterable) -> "MonomialSubspace":
        mem = frozenset(Monomial(M) for M in members)
        comp = [t for t in _basis_tuples(n, d) if t not in mem]
        if len(mem) + len(comp) != dim_component(n, d):
            raise InvalidInputError("members are not degree-d monomials in n variables")
        return cls(n, d, comp)

    @classmethod
    def full(cls, n: int, d: int) -> "MonomialSubspace":
        return cls(n, d, ())

    @classmethod
    def zero(cls, n: int, d: int) -> "MonomialSubspace":
        return cls(n, d, _basis_tuples(n, d))

    @property
    def codim(self) -> int:
        return len(self.complement)

    @property
    def dim(self) -> int:
        return dim_component(self.n, self.d) - len(self.complement)

    @property
    def members(self) -> tuple[Monomial, ...]:
        cached = self._members
        if cached is None:
            cached = tuple(
                Monomial(t)
                for t in sorted(
                    (t for t in _basis_tuples(self.n, self.d) if t not in self.complement),
                    key=LEX.key,
                    reverse=True,
                )
            )
            object.__setattr__(self, "_members", cached)
        return cached

    def is_member(self, M) -> bool:
        M = Monomial(M)
        if len(M) != self.n or M.degree != self.d:
            return False
        return M not in self.complement

    def sorted_complement(self, order: MonomialOrder = LEX) -> list[Monomial]:
        return sorted(self.complement, key=order.key, reverse=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialSubspace)
            and self.n == other.n
            and self.d == other.d
            and self.complement == other.complement
        )

    def __hash__(self) -> int:
        return hash((self.n, self.d, self.complement))

    def __repr__(self) -> str:
        comp = ", ".join(M.to_text() for M in self.sorted_complement())
        return f"MonomialSubspace(n={self.n}, d={self.d}, codim={self.codim}, complement=[{comp}])"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "complement": [list(M) for M in self.sorted_complement()],
        }

    def to_text(self) -> str:
        lines = [f"{self.n} {self.d} {self.codim}"]
        for M in self.sorted_complement():
            lines.append(" ".join(str(e) for e in M))
        return "\n".join(lines) + "\n"


def _distinct(complement: list) -> list:
    if len(set(complement)) != len(complement):
        raise InvalidInputError("complement lists a monomial more than once")
    return complement


def json_int(data: dict, key: str) -> int:
    """The field `key` of a JSON record, which must be a JSON integer."""
    if type(data[key]) is not int:
        raise InvalidInputError(f"{key!r} must be an integer, got {data[key]!r}")
    return data[key]


def subspace_from_json(data: dict) -> MonomialSubspace:
    try:
        comp = _distinct([tuple(M) for M in data["complement"]])
        return MonomialSubspace(json_int(data, "n"), json_int(data, "d"), comp)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad subspace record: {exc}") from exc


def subspace_from_text(text: str) -> MonomialSubspace:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise InvalidInputError("empty subspace text")
    header = lines[0].split()
    if len(header) != 3:
        raise InvalidInputError(f"bad header {lines[0]!r}, expected 'n d codim'")
    try:
        n, d, k = (int(x) for x in header)
        comp = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
    except ValueError as exc:
        raise InvalidInputError(f"non-integer entry in subspace text: {exc}") from exc
    if len(comp) != k:
        raise InvalidInputError(f"header announces codim {k} but {len(comp)} rows follow")
    return MonomialSubspace(n, d, _distinct(comp))


def is_base_point_free(U: MonomialSubspace) -> bool:
    """True when the common zero locus of the members is empty.

    For a monomial subspace this happens exactly when every pure power
    x_i^d is a member: a missing power makes the coordinate point with
    x_i = 1 a base point, and a present power keeps any point with
    x_i != 0 out of the zero locus.
    """
    if U.d == 0:
        return U.codim == 0
    for M in U.complement:
        if max(M) == U.d:
            return False
    return True


def product_naive(U: MonomialSubspace, V: MonomialSubspace) -> MonomialSubspace:
    """Product by expanding all member pairs.  Slow; kept as a cross-check."""
    if U.n != V.n:
        raise InvalidInputError(f"mixed variable counts {U.n} and {V.n}")
    members = {
        tuple(a + b for a, b in zip(M, N)) for M in U.members for N in V.members
    }
    return MonomialSubspace.from_members(U.n, U.d + V.d, members)


def square(U: MonomialSubspace, budget: int | None = None) -> MonomialSubspace:
    """The subspace U * U of degree 2d, read off the SquareIndex of (n, d).

    Every degree-2d monomial is a candidate for the complement, so the
    budget bounds their number: the square raises BudgetExceededError
    exactly when dim A(n)_2d exceeds it.
    """
    candidates = dim_component(U.n, 2 * U.d)
    if budget is not None and candidates > budget:
        raise BudgetExceededError(
            f"square in degree {2 * U.d} has {candidates} candidate monomials, "
            f"over the budget {budget}",
            seen=candidates,
        )
    return MonomialSubspace(U.n, 2 * U.d, square_index(U.n, U.d).missing(U.complement))


def ideal_hilbert_function(U: MonomialSubspace, max_degree: int) -> HilbertFunction:
    """Hilbert function of the quotient by the ideal generated by U.

    Entry i counts the degree-i monomials outside A_{i-d} * U.  Below the
    generating degree the ideal is zero, so h_i = dim A_i there.
    """
    if max_degree < 0:
        raise InvalidInputError(f"need max_degree >= 0, got {max_degree}")
    n, d = U.n, U.d
    values = []
    for i in range(min(d, max_degree + 1)):
        values.append(dim_component(n, i))
    if max_degree >= d:
        comp = {tuple(M) for M in U.complement}
        values.append(len(comp))
        for i in range(d, max_degree):
            nxt = set()
            for t in comp:
                for j in range(n):
                    cand = t[:j] + (t[j] + 1,) + t[j + 1 :]
                    if cand in nxt:
                        continue
                    ok = True
                    for l in range(n):
                        if cand[l] > 0:
                            below = cand[:l] + (cand[l] - 1,) + cand[l + 1 :]
                            if below not in comp:
                                ok = False
                                break
                    if ok:
                        nxt.add(cand)
            comp = nxt
            values.append(len(comp))
    return HilbertFunction(tuple(values), generated_in_degree=d, n=n)


def variable_quotient(U: MonomialSubspace, i: int) -> MonomialSubspace:
    """The colon space (U : x_i) in degree d - 1."""
    if U.d == 0:
        raise InvalidInputError("cannot divide a degree-0 subspace")
    if not (1 <= i <= U.n):
        raise InvalidInputError(f"variable index {i} out of range for n={U.n}")
    comp = []
    for M in U.complement:
        if M[i - 1] > 0:
            comp.append(M[: i - 1] + (M[i - 1] - 1,) + M[i:])
    return MonomialSubspace(U.n, U.d - 1, comp)


def lift(U: MonomialSubspace, extra: int) -> MonomialSubspace:
    """Reinterpret U inside a ring with `extra` additional larger variables.

    The complement is unchanged (padded with zero exponents), so the
    codimension is preserved while the ambient dimension grows.
    """
    if extra < 0:
        raise InvalidInputError(f"need extra >= 0, got {extra}")
    pad = (0,) * extra
    return MonomialSubspace(U.n + extra, U.d, [tuple(M) + pad for M in U.complement])


def restrict_vars(U: MonomialSubspace, m: int) -> MonomialSubspace:
    """Image of U after setting the variables beyond x_m to zero."""
    if not (2 <= m <= U.n):
        raise InvalidInputError(f"need 2 <= m <= n={U.n}, got {m}")
    comp = [M[:m] for M in U.complement if sum(M[m:]) == 0]
    return MonomialSubspace(m, U.d, comp)


class SquareIndex:
    """Cover structure that reads off U^2 for every U of degree d in n variables.

    For T of degree 2d the degree-d divisors split into pairs {M, T/M}
    (a pair may be a single self-paired monomial).  T lies outside U^2
    exactly when every pair meets the complement of U, so T can only be
    missing when its divisor count is at most twice the codimension.

    The divisor count of T depends only on its sorted exponents, so the
    index ranks the exponent classes of degree 2d (the partitions of 2d
    into at most n parts), not the monomials.  `entries` holds (T, pairs)
    sorted by divisor count, then by T in ascending lex order, and grows
    a whole count at a time whenever a query needs a larger count, so an
    answer never depends on the queries asked before it.  A class is
    grown by splitting the divisors of its sorted representative into
    pairs once and permuting those pairs onto each arrangement T; the
    pairs point at one shared tuple per divisor, which keeps the index
    small.
    """

    __slots__ = ("n", "d", "entries", "_classes", "_ends", "_canon")

    def __init__(self, n: int, d: int):
        if n < 1 or d < 0:
            raise InvalidInputError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
        self.n = n
        self.d = d
        self.entries: list[tuple[tuple[int, ...], tuple]] = []
        ranked: dict[int, list[tuple[int, ...]]] = {}
        for lam in exponent_classes(n, 2 * d):
            ranked.setdefault(count_divisors(lam, d), []).append(lam)
        # (count, classes of that count), ascending; _ends[i] is the end
        # in `entries` of the i-th count, for the counts grown so far
        self._classes = sorted(ranked.items())
        self._ends: list[int] = []
        self._canon: dict[tuple[int, ...], tuple[int, ...]] = {}

    def _arranged(self, lam: tuple[int, ...]):
        """The entries (T, pairs) of every rearrangement T of the class lam,
        in ascending lex order of T."""
        divisors = list(divisors_of_degree(lam, self.d))
        # M -> lam/M reverses the lex order of the divisors, so the i-th
        # divisor pairs with the i-th from the end
        last = len(divisors) - 1
        columns = list(zip(*divisors))
        intern = self._canon.setdefault
        for s in arrangements(lam):
            moved = [intern(M, M) for M in zip(*map(columns.__getitem__, s))]
            T = tuple(map(lam.__getitem__, s))
            yield T, tuple((moved[i], moved[last - i]) for i in range(last // 2 + 1))

    def entries_upto(self, count: int) -> list:
        """The entries (T, pairs) of every T with at most `count` degree-d
        divisors, after growing the index to hold them."""
        classes, ends, entries = self._classes, self._ends, self.entries
        while len(ends) < len(classes) and classes[len(ends)][0] <= count:
            grown = map(self._arranged, classes[len(ends)][1])
            entries.extend(merge(*grown, key=lambda e: e[0][::-1]))
            ends.append(len(entries))
        counts = bisect_right(classes, count, hi=len(ends), key=itemgetter(0))
        return entries[: ends[counts - 1]] if counts else []

    def missing(self, complement) -> list[tuple[int, ...]]:
        """The degree-2d monomials outside U^2, for U with this complement."""
        out = []
        for T, pairs in self.entries_upto(2 * len(complement)):
            for M, N in pairs:
                if M not in complement and N not in complement:
                    break
            else:
                out.append(T)
        return out

    def codim_square(self, complement) -> int:
        """Number of degree-2d monomials outside U^2, for U with this complement."""
        return len(self.missing(complement))


@lru_cache(maxsize=4)
def square_index(n: int, d: int) -> SquareIndex:
    """The shared SquareIndex of (n, d).  A few shapes stay cached, since
    callers such as the lifting checks alternate between several."""
    return SquareIndex(n, d)
