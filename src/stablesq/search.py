"""Maximizing the codimension of U^2 over families of subspaces.

m(n, d, k) is the maximum of codim U^2 over all codimension-k subspaces
of degree-d forms; the maximum is attained on a strongly stable subspace,
so the search runs over the canonical enumeration.  The base point free
analogue is searched over monomial subspaces only, which yields a lower
bound for the unrestricted quantity and is labeled as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from math import comb

from . import errors, tables
from .errors import InvalidInputError
from .monomial import _power_free, capped_dim
from .stable import _stable_complements
from .subspace import MonomialSubspace, square_index

# the most maximizers a search keeps as witnesses; it counts them all
WITNESS_CAP = 64


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a maximization over a family of subspaces.

    witness_count is the number of maximizers found; witnesses holds at
    most WITNESS_CAP of them.  restricted_to names the family searched.
    searched is the number of subspaces the search decides: for m, the
    strongly stable subspaces visited; for m0, C(N, k), the k-subsets of
    the N non-power monomials, whether scored one by one or cut off.
    """

    n: int
    d: int
    k: int
    value: int
    witness_count: int
    witnesses: tuple[MonomialSubspace, ...]
    restricted_to: str
    searched: int = 0


def compute_m(n: int, d: int, k: int, budget: int | None = None) -> SearchResult:
    """Exact m(n, d, k) by exhausting strongly stable subspaces.

    The complements come from the enumeration's generator, in its order,
    and are scored by `SquareIndex.codim_square`; a MonomialSubspace is
    built only for a complement kept as a witness.
    """
    if d < 1 or k < 1:
        raise InvalidInputError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    dim = capped_dim(n, d, k)
    if k > dim:
        raise InvalidInputError(f"need 1 <= k <= dim A({n})_{d} = {dim}, got k={k}")
    idx = square_index(n, d)
    best = -1
    count = 0
    witnesses: list[MonomialSubspace] = []
    searched = 0
    for C in _stable_complements(n, d, k, budget):
        searched += 1
        c = idx.codim_square(C)
        if c > best:
            best, count, witnesses = c, 0, []
        if c == best:
            count += 1
            if len(witnesses) < WITNESS_CAP:
                witnesses.append(MonomialSubspace._built(n, d, C))
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


def compute_m0_monomial(n: int, d: int, k: int, budget: int | None = None) -> SearchResult:
    """Max codim U^2 over base point free MONOMIAL subspaces of codim k.

    Monomial subspaces are a strict subfamily of all base point free
    subspaces, so the value is a lower bound for the unrestricted
    maximum; the result is tagged bpf-monomial to say so.

    The k-subsets of the non-power basis are searched depth first in
    `combinations` order, which is the order of the witnesses.  Each T of
    the SquareIndex counts its divisor pairs hit by the chosen monomials;
    T is outside U^2 once all are hit.  gain[c] counts the T that adding
    c would complete, and the last level reads its choices off it.
    The budget (errors.DEFAULT_BUDGET when None) bounds C(N, k), which is
    compared with it before any monomial is listed.
    """
    if d < 1 or k < 1:
        raise InvalidInputError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    if budget is None:
        budget = errors.DEFAULT_BUDGET
    # exact up to n + k + budget; past that, C(N, k) >= N is over the budget
    N = capped_dim(n, d, n + k + budget) - n  # every monomial but the n powers x_i^d
    if k > N:
        raise InvalidInputError(
            f"no base point free monomial subspace of codimension {k} in "
            f"A({n})_{d}: only {N} non-power monomials"
        )
    total = errors.capped_comb(N, k, budget)
    errors.check_size(total, f"base point free subspaces of codim {k} in A({n})_{d}", budget)
    candidates = _power_free(n, d)

    # Positions in `candidates`; N stands for a pure power, which is never
    # chosen, and for the partner of a self-paired monomial.  touches[c]
    # lists (T, partner of c in T) for every T with a pair holding c.
    pos = {M: i for i, M in enumerate(candidates)}
    need: list[int] = []
    pairs: list[list[tuple[int, int]]] = []
    touches: list[list[tuple[int, int]]] = [[] for _ in range(N)]
    for _, T_pairs in square_index(n, d).entries_upto(2 * k):
        ab = [(pos.get(M, N), pos.get(P, N) if P != M else N) for M, P in T_pairs]
        if any(a == b == N for a, b in ab):
            continue  # a pair of two powers is never hit
        t = len(need)
        need.append(len(ab))
        pairs.append(ab)
        for a, b in ab:
            for c, o in ((a, b), (b, a)):
                if c < N:
                    touches[c].append((t, o))
    hit = [0] * len(need)
    chosen = [False] * (N + 1)
    gain = [0] * (N + 1)

    def nudge(t: int, step: int) -> None:
        """Credit the members of the one unhit pair of T, which T now lacks."""
        for a, b in pairs[t]:
            if not (chosen[a] or chosen[b]):
                gain[a] += step
                gain[b] += step
                return

    for t, p in enumerate(need):
        if p == 1:
            nudge(t, 1)

    def add(c: int) -> int:
        chosen[c] = True
        done = 0
        for t, o in touches[c]:
            if not chosen[o]:
                h = hit[t] = hit[t] + 1
                if h == need[t]:
                    done += 1
                    gain[c] -= 1
                    gain[o] -= 1
                elif h == need[t] - 1:
                    nudge(t, 1)
        return done

    def remove(c: int) -> None:
        for t, o in touches[c]:
            if not chosen[o]:
                h = hit[t]
                if h == need[t]:
                    gain[c] += 1
                    gain[o] += 1
                elif h == need[t] - 1:
                    nudge(t, -1)
                hit[t] = h - 1
        chosen[c] = False

    best, count, wits, prefix = -1, 0, [], []

    def descend(start: int, left: int, value: int) -> None:
        nonlocal best, count, wits
        if left > 1:
            for c in range(start, N - left + 1):
                prefix.append(c)
                descend(c + 1, left - 1, value + add(c))
                remove(c)
                prefix.pop()
            return
        tail = gain[start:N]
        top = max(tail)
        if value + top < best:
            return
        if value + top > best:
            best, count, wits = value + top, 0, []
        ties = tail.count(top)
        count += ties
        c = start
        for _ in range(min(ties, WITNESS_CAP - len(wits))):
            c = gain.index(top, c, N)
            wits.append((*prefix, c))
            c += 1

    descend(0, k, 0)
    witnesses = tuple(MonomialSubspace._built(n, d, [candidates[i] for i in w]) for w in wits)
    return SearchResult(n, d, k, best, count, witnesses, "bpf-monomial", total)


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
    def clean(self) -> bool:
        return self.compared > 0 and not self.mismatches


def table_cell(n: int, d: int, k: int, budget: int | None = None) -> int | None:
    """m(n, d, k), or None when k >= dim A(n)_d so the cell is untabulated."""
    if k >= capped_dim(n, d, k):
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
