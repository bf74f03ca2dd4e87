from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stablesq.errors import InvalidInputError
from stablesq.macaulay import (
    HilbertFunction,
    PersistenceVerdict,
    gotzmann_persists,
    green_restriction_bound,
    macaulay_growth_bound,
    macaulay_rep,
    macaulay_shift,
    macaulay_value,
)
from stablesq.subspace import MonomialSubspace, ideal_hilbert_function


@given(st.integers(0, 300), st.integers(1, 6))
def test_rep_reconstructs_and_is_canonical(a, d):
    rep = macaulay_rep(a, d)
    assert macaulay_value(rep) == a
    terms = rep.terms()
    # one term per position d, d-1, ..., with strictly decreasing tops
    bottoms = [b for _, b in terms]
    assert bottoms == list(range(d, d - len(terms), -1))
    tops = [t for t, _ in terms]
    assert all(x > y for x, y in zip(tops, tops[1:]))
    # zero tail terms use the padding top j - 1
    for t, b in terms:
        assert comb(t, b) >= 0
        if comb(t, b) == 0:
            assert t == b - 1


@given(st.integers(0, 300), st.integers(1, 6))
def test_rep_is_the_unique_greedy_one(a, d):
    # greedy characterization: the top term is the largest binomial <= a
    rep = macaulay_rep(a, d)
    terms = rep.terms()
    rest = a
    for t, b in terms:
        if rest == 0:
            assert comb(t, b) == 0
            continue
        assert comb(t, b) <= rest < comb(t + 1, b)
        rest -= comb(t, b)
    assert rest == 0


def test_growth_bound_examples():
    # h = 3 at degree 1 allows at most C(4, 2) = 6 in degree 2
    assert macaulay_growth_bound(3, 1) == 6
    # a constant value k <= i grows to at most k
    for k in range(1, 6):
        for i in range(k, 8):
            assert macaulay_growth_bound(k, i) == k
    # full polynomial ring values grow maximally
    for n in (2, 3, 4):
        for i in range(1, 6):
            assert macaulay_growth_bound(comb(n - 1 + i, n - 1), i) == comb(n + i, n - 1)


def test_green_bound_examples():
    assert green_restriction_bound(3, 2) == 1
    assert green_restriction_bound(1, 2) == 0
    # restriction of the full degree-d component in n variables loses one variable
    for n in (2, 3, 4):
        for d in (1, 2, 3, 4):
            assert green_restriction_bound(comb(n - 1 + d, n - 1), d) == comb(
                n - 2 + d, n - 2
            )


def test_shift_guards():
    rep = macaulay_rep(5, 2)
    assert macaulay_shift(rep, 0, 0) == 5
    with pytest.raises(InvalidInputError):
        macaulay_rep(-1, 2)
    with pytest.raises(InvalidInputError):
        macaulay_rep(3, 0)


def test_hilbert_function_container():
    hf = HilbertFunction((1, 3, 2, 0), generated_in_degree=2)
    assert hf[0] == 1 and hf[3] == 0
    assert len(hf) == 4
    assert tuple(hf.values) == (1, 3, 2, 0)


def test_persistence_statuses():
    # the zero ideal grows maximally forever
    U = MonomialSubspace.zero(2, 2)
    hf = ideal_hilbert_function(U, 6)
    verdict = gotzmann_persists(hf, 2)
    assert isinstance(verdict, PersistenceVerdict)
    assert verdict.status == "maximal-persistent"
    assert bool(verdict)
    # a complement that dies immediately is not maximal growth
    V = MonomialSubspace(3, 2, [(1, 1, 0), (1, 0, 1)])
    hfV = ideal_hilbert_function(V, 6)
    assert ideal_hilbert_function(V, 3)[3] == 0
    assert gotzmann_persists(hfV, 2).status == "not-maximal"


def test_persistence_guards():
    U = MonomialSubspace.zero(2, 2)
    hf = ideal_hilbert_function(U, 3)
    with pytest.raises(InvalidInputError):
        gotzmann_persists(hf, 3)  # needs d + 1 < len(values)
    with pytest.raises(InvalidInputError):
        gotzmann_persists(hf, 0)
