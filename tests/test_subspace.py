from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesq.errors import BudgetExceededError, InvalidInputError
from stablesq.monomial import (
    Monomial,
    _basis_tuples,
    count_divisors,
    dim_component,
    divisors_of_degree,
)
from stablesq.search import closed_form_m
from stablesq.stable import extremal_subspace
from stablesq.subspace import (
    MonomialSubspace,
    SquareIndex,
    ideal_hilbert_function,
    is_base_point_free,
    lift,
    product_naive,
    restrict_vars,
    square,
    square_index,
    subspace_from_json,
    subspace_from_text,
    variable_quotient,
)


def complements(n, d, max_size):
    basis = _basis_tuples(n, d)
    return st.lists(
        st.sampled_from(basis), max_size=max_size, unique=True
    ).map(lambda c: MonomialSubspace(n, d, c))


def test_construction_and_validation():
    U = MonomialSubspace(2, 2, [(2, 0)])
    assert U.codim == 1
    assert U.dim == dim_component(2, 2) - 1
    assert Monomial((1, 1)) in U.members
    assert not U.is_member(Monomial((2, 0)))
    with pytest.raises(InvalidInputError):
        MonomialSubspace(2, 2, [(1, 0)])  # wrong degree
    with pytest.raises(InvalidInputError):
        MonomialSubspace(2, 2, [(2, 0, 0)])  # wrong variable count
    assert MonomialSubspace.full(2, 2).codim == 0
    assert MonomialSubspace.zero(2, 2).dim == 0


def test_from_members_inverts_complement():
    basis = [Monomial(t) for t in _basis_tuples(3, 2)]
    U = MonomialSubspace.from_members(3, 2, basis[:4])
    assert sorted(U.members) == sorted(basis[:4])


def test_serialization_round_trips():
    U = MonomialSubspace(3, 2, [(2, 0, 0), (1, 1, 0)])
    assert subspace_from_json(U.to_json()) == U
    assert subspace_from_text(U.to_text()) == U
    with pytest.raises(InvalidInputError):
        subspace_from_text("2 2\n1 1\n")  # header needs n d codim
    with pytest.raises(InvalidInputError):
        subspace_from_text("2 2 1\n1 0\n")  # row degree mismatch


def test_square_matches_naive_oracle_exhaustive():
    for n, d in ((1, 0), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        basis = _basis_tuples(n, d)
        for size in range(len(basis) + 1):
            for comp in combinations(basis, size):
                U = MonomialSubspace(n, d, comp)
                assert square(U).complement == product_naive(U, U).complement


@st.composite
def any_subspace(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, 3))
    basis = _basis_tuples(n, d)
    k = draw(st.integers(0, len(basis)))
    return MonomialSubspace(n, d, draw(st.permutations(basis))[:k])


@settings(max_examples=300, deadline=None)
@given(any_subspace())
def test_square_matches_naive_oracle_random(U):
    assert square(U).complement == product_naive(U, U).complement


@given(complements(3, 2, 6))
def test_square_index_matches_product(U):
    idx = square_index(3, 2)
    want = product_naive(U, U)
    assert idx.codim_square(U.complement) == want.codim
    assert set(idx.missing(U.complement)) == want.complement


def test_square_index_grows_on_demand():
    n, d = 4, 3
    basis = _basis_tuples(n, d)
    idx = SquareIndex(n, d)
    sizes = []
    for k in (3, 1, 10):
        comp = frozenset(basis[-k:])
        U = MonomialSubspace(n, d, comp)
        want = product_naive(U, U).complement
        assert set(idx.missing(comp)) == want
        assert set(SquareIndex(n, d).missing(comp)) == want
        sizes.append(len(idx.entries))
    assert sizes[0] == sizes[1] < sizes[2]
    with pytest.raises(InvalidInputError):
        SquareIndex(0, 2)


def ranked_square_entries(n, d, top):
    """The old SquareIndex construction, kept as an oracle: rank every
    degree-2d monomial by divisor count (a stable sort of the lex-ascending
    basis) and pair off the divisors of each T with at most `top` of them.
    Yields (count, T, set of unordered pairs)."""
    for T in sorted(_basis_tuples(n, 2 * d), key=lambda T: count_divisors(T, d)):
        count = count_divisors(T, d)
        if count > top:
            return
        pairs = {
            frozenset((M, tuple(b - a for a, b in zip(M, T))))
            for M in divisors_of_degree(T, d)
        }
        yield count, T, pairs


def unordered(entries):
    out = []
    for T, pairs in entries:
        as_sets = {frozenset(pair) for pair in pairs}
        assert len(as_sets) == len(pairs)  # no pair listed twice
        out.append((T, as_sets))
    return out


@pytest.mark.parametrize(
    "n, d", [(n, d) for n in range(1, 7) for d in range(7)] + [(6, 9)]
)
def test_square_index_matches_ranked_construction(n, d):
    # (6, 9) stops at 18 divisors, twice the largest codimension the
    # reference table asks of it; its full ranking is the slow path itself
    top = 18 if (n, d) == (6, 9) else max(
        count_divisors(T, d) for T in _basis_tuples(n, 2 * d)
    )
    oracle = list(ranked_square_entries(n, d, top))
    idx = SquareIndex(n, d)
    for count in (1, 4, 6, 12, 18, top):
        if count > top:
            continue
        want = [(T, pairs) for c, T, pairs in oracle if c <= count]
        assert unordered(idx.entries_upto(count)) == want
        assert unordered(SquareIndex(n, d).entries_upto(count)) == want


@pytest.mark.parametrize("n, d, k, want", [(7, 12, 3, 22), (8, 15, 4, 36)])
def test_square_of_large_extremal_shapes(n, d, k, want):
    # 593,775 and 10,295,472 monomials of degree 2d: only the few with
    # at most 2k divisors may be built
    assert closed_form_m(n, d, k) == want
    assert square(extremal_subspace(n, d, k)).codim == want


def test_square_edge_subspaces():
    assert square(MonomialSubspace.full(2, 2)).codim == 0
    assert square(MonomialSubspace.zero(2, 2)).codim == dim_component(2, 4)


def test_square_budget():
    # the budget bounds the degree-2d candidates, whatever U is
    for U in (MonomialSubspace.full(3, 3), MonomialSubspace.zero(3, 3)):
        size = dim_component(3, 6)
        for budget in (1, size - 1):
            with pytest.raises(BudgetExceededError) as err:
                square(U, budget=budget)
            assert err.value.seen == size
        for budget in (size, size + 1):
            assert square(U, budget=budget) == square(U)


def _ideal_complement_oracle(U, t):
    if t < U.d:
        return list(_basis_tuples(U.n, t))
    out = []
    for T in _basis_tuples(U.n, t):
        if all(M in U.complement for M in divisors_of_degree(Monomial(T), U.d)):
            out.append(T)
    return out


@given(complements(3, 2, 5))
def test_hilbert_function_against_divisor_oracle(U):
    hf = ideal_hilbert_function(U, 5)
    for t in range(0, 6):
        assert hf[t] == len(_ideal_complement_oracle(U, t))
    assert hf.generated_in_degree == U.d


def test_variable_quotient_hand_values():
    U = MonomialSubspace(2, 2, [(0, 2)])  # missing x2^2
    V = variable_quotient(U, 2)  # members x1*x2 / x2, x1^2 has no x2
    assert V.d == 1
    assert V.complement == frozenset({Monomial((0, 1))})
    W = variable_quotient(U, 1)
    assert W.codim == 0
    with pytest.raises(InvalidInputError):
        variable_quotient(U, 3)


def test_lift_pads_complement():
    U = MonomialSubspace(2, 2, [(2, 0)])
    L = lift(U, 2)
    assert L.n == 4 and L.d == 2
    assert L.complement == frozenset({Monomial((2, 0, 0, 0))})
    assert L.codim == U.codim


def test_restrict_vars():
    U = MonomialSubspace(3, 2, [(2, 0, 0), (1, 1, 0)])
    R = restrict_vars(U, 2)
    assert R.n == 2
    assert R.complement == frozenset({Monomial((2, 0)), Monomial((1, 1))})
    # complement monomials using a dropped variable restrict to zero
    W = restrict_vars(MonomialSubspace(3, 2, [(0, 0, 2)]), 2)
    assert W.codim == 0
    with pytest.raises(InvalidInputError):
        restrict_vars(U, 1)


def test_base_point_detection():
    assert is_base_point_free(MonomialSubspace(2, 2, [(1, 1)]))
    assert not is_base_point_free(MonomialSubspace(2, 2, [(2, 0)]))
    # full space has no base point, zero subspace is all base points
    assert is_base_point_free(MonomialSubspace.full(2, 2))
    assert not is_base_point_free(MonomialSubspace.zero(2, 2))


def test_square_known_codimensions():
    # missing one pure power forces codim n on the square
    for n in (2, 3, 4):
        for d in (2, 3):
            U = MonomialSubspace(n, d, [tuple(d if i == 0 else 0 for i in range(n))])
            assert square(U).codim == n
    # the extremal two-variable example in degree 2
    U = MonomialSubspace(2, 2, [(2, 0), (1, 1)])
    assert square(U).codim == 4
    assert square(U).complement == frozenset(
        Monomial(t) for t in [(4, 0), (3, 1), (2, 2), (1, 3)]
    )


def test_square_index_cache_consistency():
    a = square_index(3, 2)
    assert square_index(3, 2) is a
    assert square_index(3, 3) is not a
    assert square(MonomialSubspace(3, 2, [(2, 0, 0)])).codim == 3
    assert square_index(3, 2) is a and a.entries
