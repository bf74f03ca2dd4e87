from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stablesq.errors import InvalidInputError
from stablesq.monomial import (
    GRLEX,
    LEX,
    Monomial,
    MonomialOrder,
    _basis_tuples,
    arrangements,
    count_divisors,
    dim_component,
    divides,
    divisors_of_degree,
    enumerate_monomials,
    expand,
    exponent_classes,
    monomial_from_text,
    monomial_to_text,
    multiply,
    pivot,
    quotient,
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


def test_text_round_trip_exhaustive():
    for n in (2, 3, 4):
        for d in (1, 2, 3):
            for t in _basis_tuples(n, d):
                M = Monomial(t)
                assert monomial_from_text(monomial_to_text(M), n) == M


def test_text_examples():
    assert monomial_to_text(Monomial((2, 0, 1))) == "x1^2*x3"
    assert monomial_from_text("x1^2*x3", 3) == Monomial((2, 0, 1))
    assert monomial_from_text("1", 2) == Monomial((0, 0))
    with pytest.raises(InvalidInputError):
        monomial_from_text("x0", 2)
    with pytest.raises(InvalidInputError):
        monomial_from_text("x3", 2)
    with pytest.raises(InvalidInputError):
        monomial_from_text("x1^", 2)


def test_orders_sort_descending():
    for order in (LEX, GRLEX, MonomialOrder.block(1)):
        for n in (2, 3):
            for d in (2, 3):
                ms = enumerate_monomials(n, d, order)
                keys = [order.key(M) for M in ms]
                assert keys == sorted(keys, reverse=True)
                assert len(ms) == dim_component(n, d)


def test_lex_largest_is_last_variable():
    # ascending variable convention: x_n beats everything of equal degree
    ms = enumerate_monomials(2, 2, LEX)
    assert ms[0] == Monomial((0, 2))
    assert ms[-1] == Monomial((2, 0))


def test_order_parse_round_trip():
    for name in ("lex", "grlex", "block:2"):
        assert MonomialOrder.parse(name).name == name
    with pytest.raises(InvalidInputError):
        MonomialOrder.parse("weird")
    with pytest.raises(InvalidInputError):
        MonomialOrder.parse("block:zero")


@given(monomials(), st.data())
def test_multiply_quotient_inverse(M, data):
    N = data.draw(st.sampled_from(_basis_tuples(len(M), 2)))
    M, N = Monomial(M), Monomial(N)
    P = multiply(M, N)
    assert P.degree == M.degree + N.degree
    assert divides(N, P)
    assert quotient(P, N) == M


def test_divisors_of_degree_against_brute_force():
    for t in _basis_tuples(3, 4):
        T = Monomial(t)
        for d in (0, 1, 2, 3, 4):
            got = sorted(divisors_of_degree(T, d))
            brute = sorted(
                Monomial(m) for m in _basis_tuples(3, d) if divides(Monomial(m), T)
            )
            assert got == brute
            assert count_divisors(T, d) == len(brute)


def test_exponent_classes_and_arrangements_cover_the_basis():
    for n in range(1, 6):
        for total in range(0, 8):
            classes = list(exponent_classes(n, total))
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
                assert mine == sorted(mine, key=LEX.key)  # ascending lex order
                arranged += mine
            assert sorted(arranged) == sorted(_basis_tuples(n, total))


def test_pivot_reduce_expand_relations():
    assert pivot(Monomial((3, 0, 0))) == 1
    assert pivot(Monomial((2, 0, 1))) == 3
    assert pivot(Monomial((0, 1, 1))) == 2
    with pytest.raises(InvalidInputError):
        pivot(Monomial((0, 0, 0)))
    # reduction moves the pivot variable down to x1
    assert reduce(Monomial((1, 0, 1))) == Monomial((2, 0, 0))
    assert reduce(Monomial((3, 0, 0))) == Monomial((3, 0, 0))


def test_expand_is_reduce_preimage():
    for n in (2, 3, 4):
        for d in (2, 3, 4):
            for t in _basis_tuples(n, d):
                M = Monomial(t)
                up = expand(M)
                for T in up:
                    assert reduce(Monomial(T)) == M
                # completeness: everything reducing to M is in expand(M)
                for s in _basis_tuples(n, d):
                    T = Monomial(s)
                    if reduce(T) == M:
                        assert tuple(T) in {tuple(x) for x in up}


def test_expand_sizes():
    # pure power of x1 expands to one monomial per variable
    assert len(expand(Monomial((3, 0, 0, 0)))) == 4
    # x1-divisible with pivot p expands to p - 1 monomials
    M = Monomial((2, 0, 1, 1))
    assert pivot(M) == 3
    assert len(expand(M)) == 2
    # not divisible by x1: empty
    assert expand(Monomial((0, 2, 1))) == frozenset()
