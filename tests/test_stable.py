from itertools import combinations

import pytest

from stablesq.errors import BudgetExceededError, InvalidInputError
from stablesq.monomial import _basis_tuples, dim_component
from stablesq.stable import (
    _adjacent_down_moves,
    _adjacent_up_moves,
    _stable_complements,
    enumerate_strongly_stable,
    extend_stable,
    extremal_complement,
    is_strongly_stable,
)
from stablesq.subspace import MonomialSubspace, square


def _brute_force(n, d, k):
    """Oracle: filter all k-subsets of the basis through the stability test."""
    out = set()
    for comp in combinations(_basis_tuples(n, d), k):
        U = MonomialSubspace(n, d, comp)
        if is_strongly_stable(U):
            out.add(U.complement)
    return out


def test_enumeration_matches_brute_force():
    grids = [(2, d, k) for d in (2, 3, 4) for k in range(1, 6)]
    grids += [(3, d, k) for d in (2, 3) for k in range(1, 6)]
    grids += [(4, 2, k) for k in range(1, 5)]
    for n, d, k in grids:
        if k > dim_component(n, d):
            continue
        found = enumerate_strongly_stable(n, d, k)
        got = {U.complement for U in found}
        assert got == _brute_force(n, d, k), (n, d, k)
        assert len(found) == len(got)


def grow_complements(n, d, k, budget=10_000_000):
    """The former enumeration, kept as an oracle: each node rebuilds its
    candidates from every member's up moves.  Returns the complements as
    lists in the order found and the number of the node that found each,
    or raises BudgetExceededError."""
    if k < 0 or k > dim_component(n, d):
        return [], []
    if k == 0:
        return [[]], []
    if d == 0:
        return ([[(0,) * n]], []) if k == 1 else ([], [])
    results, leaves = [], []
    nodes = 0

    def lexkey(t):
        return tuple(reversed(t))

    def grow(chosen, members):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"at least {nodes} nodes in the strongly stable search for n={n}, d={d}, "
                f"k={k}, over the budget {budget}",
                seen=nodes,
            )
        if len(chosen) == k:
            results.append(list(chosen))
            leaves.append(nodes)
            return
        last = lexkey(chosen[-1])
        candidates = set()
        for t in chosen:
            for up in _adjacent_up_moves(t):
                if up in members or lexkey(up) <= last:
                    continue
                if all(down in members for down in _adjacent_down_moves(up)):
                    candidates.add(up)
        for cand in sorted(candidates, key=lexkey):
            members.add(cand)
            chosen.append(cand)
            grow(chosen, members)
            chosen.pop()
            members.discard(cand)

    root = (d,) + (0,) * (n - 1)
    grow([root], {root})
    return results, leaves


def _refusal(search, *args):
    with pytest.raises(BudgetExceededError) as err:
        search(*args)
    return err.value.seen, str(err.value)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumeration_matches_the_rebuilding_oracle(n):
    # same complements in the same order, and the same refusal for a budget
    # that trips at the root, in the middle of the search and at a leaf
    for d in range(7):
        for k in range(10):
            want, leaves = grow_complements(n, d, k)
            assert list(_stable_complements(n, d, k)) == want, (n, d, k)
            if not leaves:
                continue
            # a budget one short of a leaf's node number trips at that leaf
            for budget in (0, leaves[-1] // 2, leaves[len(leaves) // 2] - 1):
                got = _refusal(lambda *a: list(_stable_complements(*a)), n, d, k, budget)
                assert got == _refusal(grow_complements, n, d, k, budget), (n, d, k, budget)


def test_enumerated_subspaces_equal_their_validated_rebuilds():
    # the enumeration builds its subspaces without checking the tuples; the
    # public constructor checks each one again
    for n, d, k in ((1, 3, 1), (2, 3, 3), (3, 3, 4), (4, 2, 3), (3, 4, 6)):
        found = enumerate_strongly_stable(n, d, k)
        assert found
        for U in found:
            rebuilt = MonomialSubspace(n, d, U.complement)
            assert (U.n, U.d, U.codim) == (n, d, k)
            assert U == rebuilt and hash(U) == hash(rebuilt)
            assert U.members == rebuilt.members


def _closed_under_all_moves(U):
    """Oracle: closure of the complement under every move x_j * M / x_i, j < i."""
    comp = {tuple(M) for M in U.complement}
    for t in comp:
        for i in range(1, len(t)):
            if t[i] == 0:
                continue
            for j in range(i):
                moved = list(t)
                moved[i] -= 1
                moved[j] += 1
                if tuple(moved) not in comp:
                    return False
    return True


def test_adjacent_moves_suffice():
    # checking only adjacent variable swaps equals checking all of them
    for n, d in ((2, 3), (3, 2), (3, 3), (4, 2)):
        for k in range(1, 5):
            if k > dim_component(n, d):
                continue
            for comp in combinations(_basis_tuples(n, d), k):
                U = MonomialSubspace(n, d, comp)
                assert is_strongly_stable(U) == _closed_under_all_moves(U)


def test_every_nonempty_complement_contains_x1_power():
    for n, d in ((2, 3), (3, 2), (3, 3)):
        top = tuple(d if i == 0 else 0 for i in range(n))
        for k in range(1, 5):
            for U in enumerate_strongly_stable(n, d, k):
                assert top in U.complement


def test_extremal_complement_values():
    assert set(extremal_complement(2, 2, 1)) == {(2, 0)}
    assert set(extremal_complement(3, 3, 2)) == {(3, 0, 0), (2, 1, 0)}
    assert set(extremal_complement(3, 3, 3)) == {(3, 0, 0), (2, 1, 0), (2, 0, 1)}
    with pytest.raises(InvalidInputError):
        extremal_complement(2, 2, 3)  # k > n


def test_extremal_subspace_is_strongly_stable():
    for n in (2, 3, 4):
        for d in (2, 3, 4):
            for k in range(1, min(n, d) + 1):
                U = MonomialSubspace(n, d, extremal_complement(n, d, k))
                assert is_strongly_stable(U)
                assert U.codim == k


def test_extremal_subspace_attains_closed_form():
    from stablesq.search import closed_form_m

    for n in (2, 3, 4):
        for k in range(1, min(n, 3) + 1):
            for d in range(k, 5):
                U = MonomialSubspace(n, d, extremal_complement(n, d, k))
                assert square(U).codim == closed_form_m(n, d, k)


def test_extend_stable_walks_up():
    for n, d in ((2, 2), (3, 2), (3, 3)):
        for k in range(1, 5):
            for U in enumerate_strongly_stable(n, d, k):
                V = extend_stable(U)
                assert is_strongly_stable(V)
                assert V.codim == k - 1
                assert V.complement <= U.complement
    Z = extend_stable(MonomialSubspace.zero(2, 2))
    assert Z.complement == frozenset({(2, 0), (1, 1)})  # only x2^2 joins the subspace
    with pytest.raises(InvalidInputError):
        extend_stable(MonomialSubspace(2, 2, ()))


def test_enumeration_budget(monkeypatch):
    with pytest.raises(BudgetExceededError):
        list(enumerate_strongly_stable(3, 3, 4, budget=2))
    # with no budget given, the default budget, read at call time, bounds
    # the search
    monkeypatch.setattr("stablesq.errors.DEFAULT_BUDGET", 5)
    with pytest.raises(BudgetExceededError):
        enumerate_strongly_stable(4, 4, 6)
