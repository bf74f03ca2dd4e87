"""Maximizing the codimension of U^2 over families of subspaces.

m(n, d, k) is the maximum of codim U^2 over all codimension-k subspaces
of degree-d forms; the maximum is attained on a strongly stable subspace,
so the search runs over the canonical enumeration.  The base point free
analogue is searched over monomial subspaces only, which yields a lower
bound for the unrestricted quantity and is labeled as such.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product
from math import comb

from .errors import BudgetExceededError, InvalidInputError
from .monomial import dim_component
from .stable import enumerate_strongly_stable, extremal_complement
from .subspace import MonomialSubspace, square_index
from . import tables

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "STABLESQ_BUDGET"


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InvalidInputError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a maximization over a family of subspaces.

    witness_count is the number of maximizers found; witnesses holds at
    most witness_cap of them.  restricted_to names the family searched.
    """

    n: int
    d: int
    k: int
    value: int
    witness_count: int
    witnesses: tuple[MonomialSubspace, ...]
    restricted_to: str
    searched: int = 0


def compute_m(
    n: int, d: int, k: int, budget: int | None = None, witness_cap: int = 64
) -> SearchResult:
    """Exact m(n, d, k) by exhausting strongly stable subspaces."""
    if d < 1:
        raise InvalidInputError(f"need d >= 1, got d={d}")
    dim = dim_component(n, d)
    if not (1 <= k <= dim):
        raise InvalidInputError(f"need 1 <= k <= dim A({n})_{d} = {dim}, got k={k}")
    if budget is None:
        budget = default_budget()
    idx = square_index(n, d)
    best = -1
    count = 0
    witnesses: list[MonomialSubspace] = []
    searched = 0
    for U in enumerate_strongly_stable(n, d, k, budget=budget):
        searched += 1
        c = idx.codim_square(U.complement)
        if c > best:
            best = c
            count = 1
            witnesses = [U]
        elif c == best:
            count += 1
            if len(witnesses) < witness_cap:
                witnesses.append(U)
    return SearchResult(
        n, d, k, best, count, tuple(witnesses), "strongly-stable", searched
    )


def closed_form_m(n: int, d: int, k: int) -> int:
    """C(k+2, 3) + (n-k)k, valid in the regime n, d >= k."""
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got k={k}")
    if n < k or d < k:
        raise InvalidInputError(
            f"closed form needs n, d >= k; got n={n}, d={d}, k={k}"
        )
    return comb(k + 2, 3) + (n - k) * k


def main_bound(k: int) -> int:
    """k^2 + C(k+2, 3), the general upper bound for codim U^2 at codim k."""
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got k={k}")
    return k * k + comb(k + 2, 3)


def small_subspace_bound(n: int, r: int) -> int:
    """nr - C(n, 2), the least dim U^2 can be for base point free U of dim r."""
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got n={n}")
    if r < n:
        raise InvalidInputError(
            f"bpf forces dim U >= n; got dim U = {r} < n = {n}"
        )
    return n * r - comb(n, 2)


def _is_power(t) -> bool:
    return max(t) == sum(t)


def _nonpower_basis(n: int, d: int) -> list[tuple[int, ...]]:
    from .monomial import _basis_tuples

    return [t for t in _basis_tuples(n, d) if not _is_power(t)]


def _u_y_tables(n: int, d: int):
    """Covered-count decomposition for complements of size at most 2.

    u[M] counts degree-2d monomials whose single divisor pair contains M;
    y[{A, B}] counts monomials with two divisor pairs, one hit by A and
    the other by B.  For a base point free complement S the number of
    monomials outside U^2 is sum of u over S plus the y bonus, because a
    pair both of whose members lie in S would force a pure power into S.
    """
    u: dict = {}
    y: dict = {}
    for _, pairs in square_index(n, d).entries_upto(4):
        if len(pairs) == 1:
            (M, N) = pairs[0]
            for X in {M, N}:
                if not _is_power(X):
                    u[X] = u.get(X, 0) + 1
        elif len(pairs) == 2:
            p1 = {X for X in pairs[0] if not _is_power(X)}
            p2 = {X for X in pairs[1] if not _is_power(X)}
            for A in p1:
                for B in p2:
                    key = frozenset((A, B))
                    y[key] = y.get(key, 0) + 1
    return u, y


def compute_m0_monomial(
    n: int, d: int, k: int, budget: int | None = None, witness_cap: int = 64
) -> SearchResult:
    """Max codim U^2 over base point free MONOMIAL subspaces of codim k.

    Monomial subspaces are a strict subfamily of all base point free
    subspaces, so the value is a lower bound for the unrestricted
    maximum; the result is tagged bpf-monomial to say so.
    """
    if d < 1:
        raise InvalidInputError(f"need d >= 1, got d={d}")
    dim = dim_component(n, d)
    if not (1 <= k <= dim):
        raise InvalidInputError(f"need 1 <= k <= dim A({n})_{d} = {dim}, got k={k}")
    if budget is None:
        budget = default_budget()
    candidates = _nonpower_basis(n, d)
    if k > len(candidates):
        raise InvalidInputError(
            f"no base point free monomial subspace of codimension {k} in "
            f"A({n})_{d}: only {len(candidates)} non-power monomials"
        )

    if k == 1:
        u, _ = _u_y_tables(n, d)
        best = max((u.get(M, 0) for M in candidates), default=0)
        wits = [M for M in candidates if u.get(M, 0) == best]
        return SearchResult(
            n,
            d,
            k,
            best,
            len(wits),
            tuple(MonomialSubspace(n, d, [w]) for w in wits[:witness_cap]),
            "bpf-monomial",
            len(candidates),
        )

    if k == 2:
        u, y = _u_y_tables(n, d)
        positive = [M for M in candidates if u.get(M, 0) > 0]
        support = set(positive)
        for key in y:
            support.update(key)
        if len(positive) >= 2:
            scanned = sorted(support)
            best = -1
            count = 0
            wits: list[frozenset] = []
            for A, B in combinations(scanned, 2):
                c = u.get(A, 0) + u.get(B, 0) + y.get(frozenset((A, B)), 0)
                if c > best:
                    best, count, wits = c, 1, [frozenset((A, B))]
                elif c == best:
                    count += 1
                    if len(wits) < witness_cap:
                        wits.append(frozenset((A, B)))
            return SearchResult(
                n,
                d,
                k,
                best,
                count,
                tuple(MonomialSubspace(n, d, w) for w in wits),
                "bpf-monomial",
                comb(len(scanned), 2),
            )

    total = comb(len(candidates), k)
    if total > budget:
        raise BudgetExceededError(
            f"base point free search for n={n}, d={d}, k={k} needs {total} "
            f"subsets, over the budget {budget}",
            seen=0,
        )
    idx = square_index(n, d)
    best = -1
    count = 0
    wits = []
    for S in combinations(candidates, k):
        comp = frozenset(S)
        c = idx.codim_square(comp)
        if c > best:
            best, count, wits = c, 1, [comp]
        elif c == best:
            count += 1
            if len(wits) < witness_cap:
                wits.append(comp)
    return SearchResult(
        n,
        d,
        k,
        best,
        count,
        tuple(MonomialSubspace(n, d, w) for w in wits),
        "bpf-monomial",
        total,
    )


@dataclass(frozen=True)
class StabilityReport:
    """m(n, d, k) across a range of degrees, with the d = k anchor value."""

    n: int
    k: int
    values: dict
    reference: int
    stable: bool


def verify_degree_stability(
    n: int, k: int, d_values, budget: int | None = None
) -> StabilityReport:
    """Check that m(n, d, k) does not depend on d once d >= k."""
    ds = sorted(set(d_values))
    if not ds:
        raise InvalidInputError("empty degree range")
    for d in ds:
        if d < k:
            raise InvalidInputError(
                f"degree stability concerns d >= k; got d={d} < k={k}"
            )
    reference = compute_m(n, k, k, budget=budget).value
    values = {d: compute_m(n, d, k, budget=budget).value for d in ds}
    stable = all(v == reference for v in values.values())
    return StabilityReport(n, k, values, reference, stable)


@dataclass(frozen=True)
class TableReport:
    """Computed m-values over a grid and the bundled value of each compared cell."""

    cells: dict
    published: dict = field(default_factory=dict)

    @property
    def compared(self) -> int:
        return len(self.published)

    @property
    def mismatches(self) -> list:
        cells = self.cells
        return [(c, cells[c], e) for c, e in self.published.items() if cells[c] != e]

    @property
    def matches(self) -> int:
        return self.compared - len(self.mismatches)

    @property
    def clean(self) -> bool:
        return self.compared > 0 and not self.mismatches


def table_cell(n: int, d: int, k: int, budget: int | None = None) -> int | None:
    """m(n, d, k), or None when k >= dim A(n)_d so the cell is untabulated."""
    if k >= dim_component(n, d):
        return None
    return compute_m(n, d, k, budget=budget).value


def _grid_cell(cell: tuple, budget: int | None) -> int | None:
    return table_cell(*cell, budget=budget)


def verify_table(
    n_range, d_range, k_range, budget: int | None = None, diff: bool = True, map=map
) -> TableReport:
    """Recompute a grid of m-values and compare with the bundled reference;
    `map` runs the cells, so a process pool's map spreads them out."""
    grid = list(product(n_range, d_range, k_range))
    cells = dict(zip(grid, map(partial(_grid_cell, budget=budget), grid)))
    published = {
        c: tables.published_value(*c) for c in grid if diff and tables.covered(*c)
    }
    return TableReport(cells, published)


def extremal_matches_search(n: int, d: int, k: int, budget: int | None = None) -> bool:
    """True when the canonical extremal subspace is the unique maximizer."""
    result = compute_m(n, d, k, budget=budget)
    target = MonomialSubspace(n, d, extremal_complement(n, d, k))
    return (
        result.witness_count == 1
        and result.witnesses[0] == target
        and result.value == closed_form_m(n, d, k)
    )
