import random
from itertools import accumulate, combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stablesq.errors import MAX_DIGITS, BudgetExceededError, InvalidInputError
from stablesq.monomial import (
    _basis_tuples,
    arrangements,
    capped_dim,
    count_divisors,
    dim_component,
    divisors_of_degree,
    enumerate_monomials,
    expand,
    monomial_to_text,
    multiply,
    pivot,
    ranked_classes,
    reduce,
)


def monomials(n_max=4, d_max=5):
    return st.tuples(
        st.integers(2, n_max), st.integers(1, d_max)
    ).flatmap(lambda nd: st.sampled_from(_basis_tuples(*nd)))


def test_dim_component_matches_binomial():
    for n in range(1, 6):
        for d in range(0, 7):
            assert dim_component(n, d) == comb(n - 1 + d, n - 1)
            assert len(_basis_tuples(n, d)) == dim_component(n, d)


def recursive_basis(n: int, d: int) -> list[tuple[int, ...]]:
    """The basis by recursion over the last exponent, sorted with x_n first."""
    if n == 1:
        return [(d,)]
    out = [rest + (e,) for e in range(d + 1) for rest in recursive_basis(n - 1, d - e)]
    return sorted(out, key=lambda t: t[::-1])


@pytest.mark.parametrize("n, d", [(1, 0), (1, 4), (2, 0), (2, 5), (3, 4), (4, 3), (5, 5), (6, 2)])
def test_basis_is_listed_in_ascending_lex_order(n, d):
    assert _basis_tuples(n, d) == tuple(recursive_basis(n, d))


def test_dimension_too_long_to_print_is_refused():
    # dim A(2)_d = d + 1; one of MAX_DIGITS digits or more is refused by a
    # capped count, before math.comb would compute it
    top = 10 ** (MAX_DIGITS - 1)
    assert dim_component(2, top - 2) == top - 1
    with pytest.raises(BudgetExceededError, match=f"digits in dim A\\(2\\)_{top - 1}"):
        dim_component(2, top - 1)
    # math.comb(2 * 10**6 - 1, 10**6) alone takes about half a minute
    with pytest.raises(BudgetExceededError):
        dim_component(10**6, 10**6)
    assert capped_dim(10**6, 10**6, 100) == 101
    assert capped_dim(4, 3, 20) == 20
    with pytest.raises(InvalidInputError):
        capped_dim(0, 2, 5)


def test_basis_of_more_exponents_than_the_budget_is_refused(monkeypatch):
    # the uncached listing: (3, 3) holds 10 * 3 exponents, (4, 3) 20 * 4
    monkeypatch.setattr("stablesq.errors.DEFAULT_BUDGET", 30)
    assert len(_basis_tuples.__wrapped__(3, 3)) == 10
    with pytest.raises(BudgetExceededError, match="80 exponents"):
        _basis_tuples.__wrapped__(4, 3)


def test_text_examples():
    assert monomial_to_text((2, 0, 1)) == "x1^2*x3"
    assert monomial_to_text((1, 0, 3)) == "x1*x3^3"
    assert monomial_to_text((0, 1, 0)) == "x2"
    assert monomial_to_text((0, 0)) == "1"


def test_lex_largest_is_last_variable():
    # ascending variable convention: x_n beats everything of equal degree
    ms = enumerate_monomials(2, 2)
    assert ms[0] == (0, 2)
    assert ms[-1] == (2, 0)
    for n in (2, 3):
        for d in (2, 3):
            ms = enumerate_monomials(n, d)
            assert ms == sorted(_basis_tuples(n, d), key=lambda M: M[::-1], reverse=True)


@given(monomials(), st.data())
def test_multiply_quotient_inverse(M, data):
    N = data.draw(st.sampled_from(_basis_tuples(len(M), 2)))
    P = multiply(M, N)
    assert sum(P) == sum(M) + sum(N)
    assert all(a <= b for a, b in zip(N, P))
    assert tuple(b - a for a, b in zip(N, P)) == M


def test_divisors_of_degree_against_brute_force():
    for n in range(1, 5):
        for D in range(7):
            for T in _basis_tuples(n, D):
                for d in range(D + 1):
                    got = divisors_of_degree(T, d)
                    brute = sorted(
                        m for m in _basis_tuples(n, d) if all(a <= b for a, b in zip(m, T))
                    )
                    assert got == brute  # in ascending tuple order
                    assert count_divisors(T, d) == len(brute)
                assert divisors_of_degree(T, -1) == divisors_of_degree(T, D + 1) == []


def divisors_with_builtin_bounds(T, d):
    """The level walk of `divisors_of_degree` with its bounds taken by
    max and min, kept as the oracle of the conditional-expression form."""
    if not 0 <= d <= sum(T):
        return []
    after = list(accumulate(reversed(T)))[-2::-1] + [0]
    level = [((), d)]
    for t, a in zip(T, after):
        level = [(p + (e,), r - e) for p, r in level for e in range(max(0, r - a), min(t, r) + 1)]
    return [p for p, _ in level]


def test_divisors_of_degree_matches_the_walk_with_builtin_bounds():
    # every T of degree <= 10 in at most 5 variables, 300 of those in 6, and
    # every d from -1 to deg T + 1, in the same order
    every = [T for n in range(1, 6) for D in range(11) for T in _basis_tuples(n, D)]
    sample = random.Random(6).sample([T for D in range(11) for T in _basis_tuples(6, D)], 300)
    for T in every + sample:
        for d in range(-1, sum(T) + 2):
            assert divisors_of_degree(T, d) == divisors_with_builtin_bounds(T, d)


def test_ranked_classes_and_arrangements_cover_the_basis():
    for n in range(1, 6):
        for total in range(0, 8):
            ranked = list(ranked_classes(n, total, total // 2))
            counts = [c for c, _ in ranked]
            assert counts == sorted(counts)
            assert counts == [count_divisors(lam, total // 2) for _, lam in ranked]
            classes = [lam for _, lam in ranked]
            assert sorted(classes) == sorted({tuple(sorted(t)) for t in _basis_tuples(n, total)})
            arranged = []
            for lam in classes:
                mine = []
                for s in arrangements(lam):
                    T = tuple(lam[j] for j in s)
                    assert sorted(s) == list(range(n))
                    assert sorted(divisors_of_degree(T, 2)) == sorted(
                        tuple(M[j] for j in s) for M in divisors_of_degree(lam, 2)
                    )
                    mine.append(T)
                assert mine == sorted(mine, key=lambda M: M[::-1])  # ascending lex order
                arranged += mine
            assert sorted(arranged) == sorted(_basis_tuples(n, total))


def partitions(total, cap=None):
    """The partitions of `total` as descending tuples, by plain recursion."""
    if total == 0:
        yield ()
        return
    for p in range(min(total, cap or total), 0, -1):
        for rest in partitions(total - p, p):
            yield (p, *rest)


def test_moving_a_unit_to_a_smaller_exponent_never_lowers_the_divisor_count():
    # the fact ranked_classes walks by, on every partition of 2d for d <= 10
    for d in range(11):
        every = list(partitions(2 * d))
        for lam in every:
            lam = lam + (0,)
            for i, j in combinations(range(len(lam)), 2):
                if lam[i] - lam[j] >= 2:
                    moved = list(lam)
                    moved[i] -= 1
                    moved[j] += 1
                    assert count_divisors(moved, d) >= count_divisors(lam, d)
        walked = [lam for _, lam in ranked_classes(2 * d or 1, 2 * d, d)]
        assert len(walked) == len(set(walked)) == len(every)


def test_pivot_reduce_expand_relations():
    assert pivot((3, 0, 0)) == 1
    assert pivot((2, 0, 1)) == 3
    assert pivot((0, 1, 1)) == 2
    with pytest.raises(InvalidInputError):
        pivot((0, 0, 0))
    # reduction moves the pivot variable down to x1
    assert reduce((1, 0, 1)) == (2, 0, 0)
    assert reduce((3, 0, 0)) == (3, 0, 0)


def test_expand_is_reduce_preimage():
    for n in (2, 3, 4):
        for d in (2, 3, 4):
            for M in _basis_tuples(n, d):
                up = expand(M)
                for T in up:
                    assert reduce(T) == M
                # completeness: everything reducing to M is in expand(M)
                for T in _basis_tuples(n, d):
                    if reduce(T) == M:
                        assert T in up


def test_expand_sizes():
    # pure power of x1 expands to one monomial per variable
    assert len(expand((3, 0, 0, 0))) == 4
    # x1-divisible with pivot p expands to p - 1 monomials
    M = (2, 0, 1, 1)
    assert pivot(M) == 3
    assert len(expand(M)) == 2
    # not divisible by x1: empty
    assert expand((0, 2, 1)) == frozenset()
