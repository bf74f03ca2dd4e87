"""Monomial subspaces of a graded component and their squares.

A subspace is stored by its complement: the set of degree-d monomials NOT
in the space.  Codimension, squares, and Hilbert functions all read off
the complement, which stays small in the regimes of interest.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import (
    accumulate,
    chain,
    combinations,
    combinations_with_replacement,
    islice,
    starmap,
    takewhile,
)
from math import comb, inf, prod
from operator import add, mul
from typing import Iterable, Iterator

from . import errors
from .errors import InvalidInputError
from .macaulay import HilbertFunction
from .monomial import (
    _basis_tuples,
    arrangements,
    count_divisors,
    dim_component,
    divisors_of_degree,
    exponent_tuple,
    monomial_to_text,
    ranked_classes,
)


class MonomialSubspace:
    """Span of a set of degree-d monomials in n variables.

    The complement is a frozenset of plain exponent tuples, each checked
    once here.
    """

    __slots__ = ("n", "d", "complement", "_members")

    def __init__(self, n: int, d: int, complement: Iterable):
        if n < 1 or d < 0:
            raise InvalidInputError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
        self._set(n, d, frozenset(exponent_tuple(M, n, d) for M in complement))

    @classmethod
    def _built(cls, n: int, d: int, complement: Iterable) -> "MonomialSubspace":
        """The subspace on a complement of degree-d exponent tuples in n
        variables that the library built; the tuples are not checked."""
        U = object.__new__(cls)
        U._set(n, d, frozenset(complement))
        return U

    def _set(self, n: int, d: int, comp: frozenset) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "complement", comp)
        object.__setattr__(self, "_members", None)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialSubspace is immutable")

    @classmethod
    def from_members(cls, n: int, d: int, members: Iterable) -> "MonomialSubspace":
        mem = frozenset(exponent_tuple(M, n, d) for M in members)
        return cls._built(n, d, [t for t in _basis_tuples(n, d) if t not in mem])

    @classmethod
    def zero(cls, n: int, d: int) -> "MonomialSubspace":
        return cls._built(n, d, _basis_tuples(n, d))

    @property
    def codim(self) -> int:
        return len(self.complement)

    @property
    def dim(self) -> int:
        return dim_component(self.n, self.d) - len(self.complement)

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """The member exponent tuples, descending in lex order."""
        cached = self._members
        if cached is None:
            basis, comp = _basis_tuples(self.n, self.d), self.complement
            cached = tuple(t for t in reversed(basis) if t not in comp)
            object.__setattr__(self, "_members", cached)
        return cached

    def sorted_complement(self) -> list[tuple[int, ...]]:
        """The complement's exponent tuples, descending in lex order."""
        return sorted(self.complement, key=lambda M: M[::-1], reverse=True)

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
        comp = ", ".join(map(monomial_to_text, self.sorted_complement()))
        return f"MonomialSubspace(n={self.n}, d={self.d}, codim={self.codim}, complement=[{comp}])"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "complement": [list(M) for M in self.sorted_complement()],
        }


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

    Only a degree-2d monomial with at most 2 codim U divisors of degree d
    can be missing from U^2, so the budget bounds the number of those
    candidates: the square raises BudgetExceededError exactly when it is
    exceeded, before any of them is built, whichever kernel then runs.
    Counting them ranks only the exponent classes with at most 2 codim U
    divisors, and takes the divisor count of the classes one move past
    them (`ranked_classes`), so a refusal costs no more than counting its
    candidates, however large n and d are.

    With m = dim U and k = codim U, the sums of member codes
    (`SquareIndex.sumset_missing`) visit m(m + 1)/2 pairs, and the class
    walk (`SquareIndex.missing`) checks at most k pairs for each of at most
    dim A_2d candidates.  The square takes the sumset when the first count
    is at most the second, and the walk otherwise: a U with few members
    goes by its members, and a U of small codimension by its complement.
    The sumset, which lists all of A_2d, runs only when its n dim A_2d
    exponents are within the default budget; the walk refuses a class that
    would take its listing past that many.
    """
    index = square_index(U.n, U.d)
    if budget is not None:
        candidates = index.size_upto(2 * U.codim)
        errors.check_size(candidates, f"candidates in degree {2 * U.d}", budget, seen=candidates)
    m, k, q = U.dim, U.codim, dim_component(U.n, 2 * U.d)
    if m * (m + 1) // 2 <= k * q and U.n * q <= errors.DEFAULT_BUDGET:
        missing = index.sumset_missing(U.complement)
    else:
        missing = index.missing(U.complement)
    return MonomialSubspace._built(U.n, 2 * U.d, missing)


def _hilbert_function(n: int, d: int, max_degree: int, codims: Iterator[int]) -> HilbertFunction:
    """The Hilbert function up to max_degree of the quotient by an ideal
    generated in degree d, from its codimensions in degree d, d + 1, ...,
    which `codims` yields up to the first 0: A_1 * A_i = A_(i+1), so once a
    degree is filled, so is every later one.  Below d the ideal is zero.
    No degree past max_degree is computed, and max_degree times the digits
    of the largest value below d, which bounds the list and the binomials
    in it, is checked against the default budget before any is."""
    if max_degree < 0:
        raise InvalidInputError(f"need max_degree >= 0, got {max_degree}")
    top = min(d, max_degree + 1)
    digits = len(str(dim_component(n, max(top - 1, 0))))
    errors.check_size(max_degree * digits, "digits in a Hilbert function")
    # dim A_i = C(n - 1 + i, i), each from the one before
    values = list(accumulate(range(1, top), lambda v, i: v * (n - 1 + i) // i, initial=1))[:top]
    values += islice(codims, max_degree + 1 - len(values))
    values += [0] * (max_degree + 1 - len(values))
    return HilbertFunction(tuple(values), generated_in_degree=d)


def _complement_sizes(U: MonomialSubspace) -> Iterator[int]:
    """The number of monomials outside the ideal of U in degree d, d + 1,
    ..., up to the first 0.  A monomial c of the next degree is outside
    exactly when every c / x_j is: when c arises as t * x_j from as many
    outside monomials t as c has variables.  The exponents listed in all
    degrees so far are checked against the default budget before each."""
    n, comp = U.n, U.complement
    listed = 0
    yield len(comp)
    while comp:
        listed += n * n * len(comp)
        errors.check_size(listed, "exponents in the degrees of a Hilbert function", seen=listed)
        made = Counter([t[:j] + (t[j] + 1,) + t[j + 1 :] for t in comp for j in range(n)])
        comp = [c for c, k in made.items() if k == n - c.count(0)]
        yield len(comp)


def ideal_hilbert_function(U: MonomialSubspace, max_degree: int) -> HilbertFunction:
    """Hilbert function of the quotient by the ideal generated by U.

    Entry i counts the degree-i monomials outside A_{i-d} * U."""
    return _hilbert_function(U.n, U.d, max_degree, _complement_sizes(U))


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
    return MonomialSubspace._built(U.n, U.d - 1, comp)


def lift(U: MonomialSubspace, extra: int) -> MonomialSubspace:
    """Reinterpret U inside a ring with `extra` additional larger variables.

    The complement is unchanged (padded with zero exponents), so the
    codimension is preserved while the ambient dimension grows.
    """
    if extra < 0:
        raise InvalidInputError(f"need extra >= 0, got {extra}")
    pad = (0,) * extra
    return MonomialSubspace._built(U.n + extra, U.d, [M + pad for M in U.complement])


def restrict_vars(U: MonomialSubspace, m: int) -> MonomialSubspace:
    """Image of U after setting the variables beyond x_m to zero."""
    if not (2 <= m <= U.n):
        raise InvalidInputError(f"need 2 <= m <= n={U.n}, got {m}")
    comp = [M[:m] for M in U.complement if sum(M[m:]) == 0]
    return MonomialSubspace._built(m, U.d, comp)


def _arrangement_count(lam: tuple[int, ...]) -> int:
    """The number of distinct rearrangements of the exponent tuple lam."""
    sizes = Counter(lam).values()
    return prod(map(comb, accumulate(sizes), sizes))


def _divisor_plan(lam: tuple[int, ...], d: int) -> tuple[list, list[int]]:
    """The columns of the degree-d divisors of the exponent class lam, in
    ascending tuple order, and the slot of each divisor's pair."""
    divisors = divisors_of_degree(lam, d)
    # M -> lam/M reverses the order of the divisors, so the i-th pairs
    # with the i-th from the end, in slot min(i, last - i)
    last = len(divisors) - 1
    return list(zip(*divisors)), [min(i, last - i) for i in range(last + 1)]


class SquareIndex:
    """Cover structure that reads off U^2 for every U of degree d in n variables.

    For T of degree 2d the degree-d divisors split into pairs {M, T/M}
    (a pair may be a single self-paired monomial).  T lies outside U^2
    exactly when every pair meets the complement C of U, so T can only be
    missing when its divisor count is at most twice the codimension.  Any
    one pair of a missing T meets C, so a query needs only the T with a
    chosen pair meeting C and at most 2|C| divisors.  `missing` and
    `codim_square` choose that pair differently; `sumset_missing` reads
    the members instead.

    Both listings pair divisors by one plan per exponent class
    (`_divisor_plan`).  The divisor count of T depends only on its sorted
    exponents, its class (a partition of 2d into at most n parts).  The
    plan holds the columns of the class's degree-d divisors in ascending
    order and the slot min(i, last - i) of the i-th: M -> lam/M reverses
    that order, so the i-th divisor pairs with the i-th from the end.  An
    arrangement T of the class carries the plan to T by permuting the
    columns.  `_enter` keeps the plans it reads, since it meets a class
    once per T; the class walk meets each class once and keeps none
    (keeping them added 0.4-0.6 MB to the peak RSS of the whole walk of
    (6, 8)).

    `missing` serves from `entries`, grown by the class walk: it reads
    `ranked_classes` one class at a time, in ascending divisor count, and
    appends the entries (T, pairs) of that class's arrangements in
    `arrangements` order, stopping before the first class with more
    divisors than a query needs.  So `entries` is always a prefix of one
    fixed sequence, and an answer never depends on the queries asked
    before it.  The pairs point at one shared tuple per divisor, which
    keeps the index small.  The first pair of an entry is its divisors in
    the class's first and last place (not, in general, the lex-extreme
    divisors of T itself), and `_owners` lists, for each degree-d monomial
    M, the positions of the entries whose first pair holds M.

    `codim_square` grows no entries.  It lists T under its balanced pair
    {M, T/M}, with |M_i - (T/M)_i| <= 1 for every i: at the odd exponents
    of T the extra unit goes to M at the first half of them, in index
    order, and to T/M at the rest.  The T listed under a monomial are
    found on its first query (`_balanced_owners`).  A T listed for the
    first time gets the next bit of the index (`_enter`).  For each
    degree-d divisor M of T the bit goes into the plan's slot j of M, the
    number of the pair {M, T/M}, and into `_bypairs[p]`, p the number of
    pairs of T.  A query for C, with k = |C|, then reads
        hit_j = OR of slot j over c in C, for j < k,
        S_j = OR of `_bypairs[p]` over p <= j, the T with no slot j,
        codim U^2 = number of bits of (AND over j < k of (hit_j | S_j)) & S_k.
    This is exact whatever earlier queries listed.  A T outside U^2 has its
    balanced pair hit, so it is listed and has a bit, and it needs every
    pair hit; a T with more than 2k divisors has more than k pairs and
    drops out through S_k.  The divisors of T are not kept once its bits
    are set.

    `sumset_missing` packs each monomial M of degree d or 2d as one int,
    code(M) = sum of M_i (2d + 1)^(i - 1): its exponents are the digits in
    base 2d + 1 (Kronecker substitution).  An exponent of a product of two
    degree-d monomials is at most 2d, a single digit, so code(MN) =
    code(M) + code(N) with no carry, and two monomials of degree 2d with
    one code are equal.  So T lies in U^2 exactly when its code is the sum
    of the codes of two members, and the T outside U^2 are those whose
    code is not among the m(m + 1)/2 sums of the m = dim U members, taken
    with repetition.  The codes of A_d, and the T of A_2d with theirs, are
    listed on the first such query; no shared cache holds them, so they go
    when `square_index` drops the index.

    The selection is by operation, and for `square` by size.
    `codim_square` serves `compute_m`, whose complements are strongly
    stable: they sit at the top of the Borel order and rarely meet a
    balanced pair.  Over the reference table its 1,511 queries give bits to
    3,605 T, where the class walk lists 225,104 and pairs 19,335.  Listing
    them under balanced pairs took the `table` benchmark's wall_s from 0.61
    to 0.32 s (BENCH_balanced-owners.json).  Reading each answer off the
    bits instead of checking the pairs of every listed T, 85,790 listings
    of which 70% are outside U^2, took it on to 0.182 s
    (BENCH_square-bits.json); feeding `codim_square` from the class walk
    instead took it to 0.38 s.  `square` takes arbitrary complements, which
    touch almost every T: there the lazy build lands on many operations
    instead of a few, and sending `square` through the balanced listing
    moved the `mono-squares` benchmark's op_p50_ms from 0.03 to 0.10-0.11
    ms and its wall_s from 0.120 to 0.146-0.161 s.  Entries holding divisor
    lists in place of pair tuples raised its op_p50_ms by 23-33%.  Of its
    two kernels, `square` takes the sumset when its m(m + 1)/2 pair sums
    are at most k dim A_2d, the bound on the walk's pair checks (k = codim
    U), and the walk otherwise.  So a square of small codimension stays on
    the walk, about 0.03 ms at (6, 4), where the sumset would add up to
    7,875 pairs, and a complement of a third of A_d or more goes by the
    sumset, which spares the walk's whole listing of (n, d): on
    `mono-squares` that took wall_s from 0.108 to 0.066 s, and
    `square(MonomialSubspace.zero(6, 8))` went from 0.74 s and 82 MB of
    peak RSS to 0.07 s and 24 MB (BENCH_sumset-squares.json).
    """

    __slots__ = (
        "n", "d", "entries", "_walk", "_next", "_ends", "_canon", "_owners",
        "_balanced", "_plans", "_bits", "_slots", "_bypairs", "_codes", "_targets",
    )

    def __init__(self, n: int, d: int):
        if n < 1 or d < 0:
            raise InvalidInputError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
        # ranking the first class counts divisors over a list of d + 1
        # entries, and builds a tuple of n
        errors.check_size(2 * d, "degrees of a square")
        errors.check_size(n, "variables")
        self.n = n
        self.d = d
        self.entries: list[tuple[tuple[int, ...], tuple]] = []
        # the class walk: _next is the (count, class) to enter next, and
        # _ends holds (count, end in `entries`) after each class entered
        self._walk = ranked_classes(n, 2 * d, d)
        self._next = next(self._walk)
        self._ends: list[tuple[int, int]] = []
        self._canon: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._owners: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
        # the lazy side of codim_square: per monomial its balanced owners;
        # per exponent class its plan; the T with a bit, the i-th entered
        # having bit 1 << i; per monomial M, by slot j, the bits of the T
        # with M in slot j; and per pair count, the bits of the T with that
        # many pairs
        self._balanced: dict[tuple[int, ...], list] = {}
        self._plans: dict[tuple[int, ...], tuple[list, list[int]]] = {}
        self._bits: set[tuple[int, ...]] = set()
        self._slots: dict[tuple[int, ...], list[int]] = {}
        self._bypairs: list[int] = []
        # the sumset side of square, built on its first query: the code of
        # each degree-d monomial, and each degree-2d T with its code
        self._codes: list[tuple[tuple[int, ...], int]] | None = None
        self._targets: list[tuple[tuple[int, ...], int]] = []

    def _grow(self, count: int) -> int:
        """Grow the index to hold every T with at most `count` degree-d
        divisors; the end of their block in `entries`.  A class whose
        arrangements would take the entries past errors.DEFAULT_BUDGET
        exponents in all is refused before any of them is entered."""
        entries, owners, ends = self.entries, self._owners, self._ends
        intern = self._canon.setdefault
        # a spent walk leaves the sentinel (inf, None), which count = inf passes
        while self._next[0] <= count and self._next[1] is not None:
            c, lam = self._next
            size = self.n * (len(entries) + _arrangement_count(lam))
            errors.check_size(size, "exponents in the square index", seen=len(entries))
            columns, slot_of = _divisor_plan(lam, self.d)
            last = len(slot_of) - 1
            half = range(last // 2 + 1)
            # s[i] is the place of T[i] in lam, so the divisors of T are
            # those of lam, permuted by s; they point at one shared tuple
            # per divisor
            for s in arrangements(lam):
                moved = [intern(M, M) for M in zip(*map(columns.__getitem__, s))]
                pairs = tuple((moved[i], moved[last - i]) for i in half)
                # two of these alive at once leave holes among the pair
                # tuples: +0.7 MB peak RSS on the whole walk of (6, 8)
                del moved
                M, N = pairs[0]
                owners[M].append(len(entries))
                if N is not M:
                    owners[N].append(len(entries))
                entries.append((tuple(map(lam.__getitem__, s)), pairs))
            ends.append((c, len(entries)))
            self._next = next(self._walk, (inf, None))
        i = bisect_right(ends, (count, inf))
        return ends[i - 1][1] if i else 0

    def entries_upto(self, count: int) -> list:
        """The entries (T, pairs) of every T with at most `count` degree-d
        divisors, after growing the index to hold them."""
        return self.entries[: self._grow(count)]

    def size_upto(self, count: int) -> int:
        """Number of T with at most `count` divisors; the index does not
        grow.  Once its walk has passed `count` it holds the answer, and
        before that a fresh walk of the classes counts it, ranking only the
        classes it counts and their neighbours."""
        if self._next[0] > count:
            return self._grow(count)
        classes = ranked_classes(self.n, 2 * self.d, self.d)
        ranked = takewhile(lambda ranked: ranked[0] <= count, classes)
        return sum(_arrangement_count(lam) for _, lam in ranked)

    def _hits(self, complement) -> Iterator[int]:
        """The positions in `entries` of the T outside U^2, for U with this
        complement, in no particular order."""
        end = self._grow(2 * len(complement))
        entries, owners = self.entries, self._owners
        # an entry whose first pair lies in C is listed under both of its
        # members, so the positions are gathered into a set and read once
        listed = set()
        for c in complement:
            owned = owners.get(c)
            if owned:
                listed.update(owned[: bisect_left(owned, end)])
        for p in listed:
            for M, N in entries[p][1]:
                if M not in complement and N not in complement:
                    break
            else:
                yield p

    def missing(self, complement) -> list[tuple[int, ...]]:
        """The degree-2d monomials outside U^2, for U with this complement,
        in the order of `entries`."""
        entries = self.entries
        return [entries[p][0] for p in sorted(self._hits(complement))]

    def sumset_missing(self, complement) -> list[tuple[int, ...]]:
        """The degree-2d monomials outside U^2, for U with this complement,
        in ascending tuple order: the T whose code is no sum of the codes
        of two members."""
        if self._codes is None:
            n, d = self.n, self.d
            weights = [(2 * d + 1) ** i for i in range(n)]

            def coded(e):
                # every monomial of degree e divides (e, ..., e)
                return [(M, sum(map(mul, M, weights))) for M in divisors_of_degree((e,) * n, e)]

            self._codes, self._targets = coded(d), coded(2 * d)
        members = [code for M, code in self._codes if M not in complement]
        sums = set(starmap(add, combinations_with_replacement(members, 2)))
        return [T for T, code in self._targets if code not in sums]

    def _balanced_owners(self, c: tuple[int, ...]) -> list:
        """[counts, owners, 0]: the T whose balanced pair holds c, in
        ascending divisor count, and their counts; the last place is for
        the number of owners that have a bit.

        Such a T is 2c - 1 on a set `down` inside the support of c, 2c + 1
        on a set `up` of the same size disjoint from it, and 2c elsewhere;
        c is the first member of the pair when `down` precedes `up` in
        index order, and the second when it follows it.  They are counted
        first: by Vandermonde, the T with `up` after (before) a `down` whose
        last (first) member is p, the t-th of s in the support, number
        C(n - 1 - p + t, t + 1) (C(p + s - 1 - t, s - t))."""
        n = self.n
        support = [i for i in range(n) if c[i]]
        s = len(support)
        count = 1 + sum(
            comb(n - 1 - p + t, t + 1) + comb(p + s - 1 - t, s - t) for t, p in enumerate(support)
        )
        errors.check_size(n * count, "exponents in the balanced owners of a member")
        double = [2 * e for e in c]
        owners = [tuple(double)]
        for j in range(1, len(support) + 1):
            for down in combinations(support, j):
                after, before = range(down[-1] + 1, n), range(down[0])
                for up in chain(combinations(after, j), combinations(before, j)):
                    T = double[:]
                    for i in down:
                        T[i] -= 1
                    for i in up:
                        T[i] += 1
                    owners.append(tuple(T))
        ranked = sorted((count_divisors(T, self.d), T) for T in owners)
        return [[k for k, _ in ranked], [T for _, T in ranked], 0]

    def _enter(self, T: tuple[int, ...]) -> None:
        """Give T the next bit, and set it in the slot of each divisor M for
        the pair {M, T/M} and in the mask of T's pair count."""
        bit = 1 << len(self._bits)
        self._bits.add(T)
        lam = tuple(sorted(T))
        plans = self._plans
        columns, slot_of = plans.get(lam) or plans.setdefault(lam, _divisor_plan(lam, self.d))
        # s[i] is the place of T[i] among the sorted exponents, so the
        # divisors of T are those of its class, permuted by s
        order = sorted(range(self.n), key=T.__getitem__)
        s = sorted(range(self.n), key=order.__getitem__)
        rows = self._slots
        for M, j in zip(zip(*map(columns.__getitem__, s)), slot_of):
            row = rows.get(M)
            if row is None:
                row = rows[M] = []
            if len(row) <= j:
                row += [0] * (j + 1 - len(row))
            row[j] |= bit
        bypairs, pairs = self._bypairs, (len(slot_of) + 1) // 2
        if len(bypairs) <= pairs:
            bypairs += [0] * (pairs + 1 - len(bypairs))
        bypairs[pairs] |= bit

    def codim_square(self, complement) -> int:
        """Number of degree-2d monomials outside U^2, for U with this complement.

        An owner T of c is at least 1 on the support of c, so its divisor
        count, the middle and largest of the 2d + 1 coefficients of a
        palindromic unimodal product summing to at least 2^|supp c|, is
        over 2|C| when 2^|supp c| > (2d + 1) 2|C|.  Such a c lists no T,
        and its owners are not built to find that out."""
        k = len(complement)
        top = 2 * k
        wide = (2 * self.d + 1) * top
        balanced, bits = self._balanced, self._bits
        for c in complement:
            owned = balanced.get(c)
            if owned is None:
                if 1 << (self.n - c.count(0)) > wide:
                    continue
                owned = balanced[c] = self._balanced_owners(c)
            counts, owners, entered = owned
            end = bisect_right(counts, top)
            if end > entered:
                for T in owners[entered:end]:
                    if T not in bits:
                        self._enter(T)
                owned[2] = end
        # hit[j]: the T whose pair in slot j meets C
        hit = [0] * k
        slots = self._slots
        for c in complement:
            row = slots.get(c)
            if row:
                for j, mask in enumerate(row[:k]):
                    hit[j] |= mask
        # fewer: the T with at most j pairs, which have no pair in slot j;
        # with bypairs[k] it holds the T with at most 2|C| divisors
        bypairs = self._bypairs
        if len(bypairs) <= k:
            bypairs += [0] * (k + 1 - len(bypairs))
        out, fewer = -1, 0
        for j in range(k):
            fewer |= bypairs[j]
            out &= hit[j] | fewer
        return (out & (fewer | bypairs[k])).bit_count()


@lru_cache(maxsize=4)
def square_index(n: int, d: int) -> SquareIndex:
    """The shared SquareIndex of (n, d).  A few shapes stay cached, since
    callers such as the lifting checks alternate between several."""
    return SquareIndex(n, d)
