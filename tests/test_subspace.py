import random
from itertools import combinations, product
from math import comb, inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablesq import monomial, subspace
from stablesq.errors import BudgetExceededError, InvalidInputError
from stablesq.macaulay import HilbertFunction
from stablesq.monomial import (
    _basis_tuples,
    _power_free,
    count_divisors,
    dim_component,
    divisors_of_degree,
    enumerate_monomials,
    expand,
    exponents,
    multiply,
    reduce,
)
from stablesq.qlinalg import initial_subspace, monomial_span, random_subspace, span
from stablesq.search import closed_form_m, compute_m, compute_m0_monomial
from stablesq.stable import (
    enumerate_strongly_stable,
    extend_stable,
    extremal_complement,
    is_strongly_stable,
)
from stablesq.suites import _stable_family, _subsets
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

from test_stable import grow_complements


def complements(n, d, max_size):
    basis = _basis_tuples(n, d)
    return st.lists(
        st.sampled_from(basis), max_size=max_size, unique=True
    ).map(lambda c: MonomialSubspace(n, d, c))


def test_construction_and_validation():
    U = MonomialSubspace(2, 2, [(2, 0)])
    assert U.codim == 1
    assert U.dim == dim_component(2, 2) - 1
    assert (1, 1) in U.members
    assert (1, 1) not in U.complement and exponents([1, 1]) not in U.complement
    assert (2, 0) in U.complement
    # another length or degree, the empty tuple included, is no member
    assert not any(t in U.members for t in [(1, 0), (1, 1, 0), ()])
    for bad in [(3, -1), (True, 1), (1.0, 1.0), ("1", "1")]:
        with pytest.raises(InvalidInputError):
            exponents(bad)
    with pytest.raises(InvalidInputError):
        MonomialSubspace(2, 2, [(1, 0)])  # wrong degree
    with pytest.raises(InvalidInputError):
        MonomialSubspace(2, 2, [(2, 0, 0)])  # wrong variable count
    assert MonomialSubspace(2, 2, ()).codim == 0
    assert MonomialSubspace.zero(2, 2).dim == 0


@pytest.mark.parametrize(
    "bad",
    [(1.0, 1), (True, 1), (3, -1), (2, 0, 0), (1, 0), ("1", "1"), ()],
    ids=["float", "bool", "negative", "length", "degree", "str", "empty"],
)
def test_malformed_monomials_refused(bad):
    # every entry must be a nonnegative int: (1.0, 1), (True, 1) and
    # (3, -1) all have degree 2 and length 2
    with pytest.raises(InvalidInputError):
        MonomialSubspace(2, 2, [bad])
    with pytest.raises(InvalidInputError):
        MonomialSubspace.from_members(2, 2, [bad])
    with pytest.raises(InvalidInputError):
        span([{bad: 1}], 2, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MonomialSubspace.from_members(0, 2, []),
        lambda: MonomialSubspace.zero(0, 2),
        lambda: MonomialSubspace.zero(1, -1),
    ],
    ids=["from_members-n0", "zero-n0", "zero-negative-d"],
)
def test_bad_shape_refused_before_the_basis_is_built(build):
    # the basis of a shape with n < 1 used to recurse without a floor
    with pytest.raises(InvalidInputError):
        build()


def test_complement_elements_are_plain_tuples():
    U = MonomialSubspace(3, 3, extremal_complement(3, 3, 2))
    built = [
        MonomialSubspace(3, 2, [(2, 0, 0), [1, 1, 0], (0, 1, 1)]),
        MonomialSubspace.from_members(3, 2, [(2, 0, 0), [1, 1, 0]]),
        U,
        square(U),
        lift(U, 2),
        extend_stable(U),
        variable_quotient(U, 1),
        restrict_vars(U, 2),
        subspace_from_json(U.to_json()),
        subspace_from_text("3 3 2\n2 1 0\n3 0 0\n"),
    ]
    for V in built:
        assert V.complement and all(type(M) is tuple for M in V.complement)
        assert all(type(M) is tuple for M in V.members)
        assert list(V.members) == sorted(V.members, key=lambda t: t[::-1], reverse=True)
    # every monomial the public functions hand back is a plain tuple too
    R = span([{(2, 0, 0): 1, (0, 1, 1): -1}, {(1, 1, 0): 1}], 3, 2)
    returned = [
        *enumerate_monomials(3, 2),
        multiply((1, 0, 0), (0, 1, 1)),
        reduce((1, 0, 1)),
        reduce((3, 0, 0)),
        *expand((3, 0, 0)),
        *expand((2, 0, 1)),
        *extremal_complement(3, 3, 2),
        *R.columns,
        *initial_subspace(R).complement,
    ]
    assert all(type(M) is tuple for M in returned)


def test_subspace_layer_builds_no_monomial():
    U = MonomialSubspace(3, 3, [(3, 0, 0), (2, 1, 0), (2, 0, 1)])
    assert MonomialSubspace.from_members(3, 3, U.members) == U
    assert is_strongly_stable(U)
    assert ideal_hilbert_function(lift(U, 2), 7)[3] == 3
    assert extend_stable(U).codim == 2


def test_from_members_inverts_complement():
    basis = list(_basis_tuples(3, 2))
    U = MonomialSubspace.from_members(3, 2, basis[:4])
    assert sorted(U.members) == sorted(basis[:4])


def test_serialization_round_trips():
    U = MonomialSubspace(3, 2, [(2, 0, 0), (1, 1, 0)])
    assert subspace_from_json(U.to_json()) == U
    assert subspace_from_text("3 2 2\n2 0 0\n1 1 0\n") == U
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
def any_subspace(draw, max_n=4, max_d=3):
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(0, max_d))
    basis = _basis_tuples(n, d)
    k = draw(st.integers(0, len(basis)))
    return MonomialSubspace(n, d, draw(st.permutations(basis))[:k])


@settings(max_examples=300, deadline=None)
@given(any_subspace())
def test_square_matches_naive_oracle_random(U):
    assert square(U).complement == product_naive(U, U).complement


@given(any_subspace())
def test_square_equals_its_validated_rebuild(U):
    # square builds its result without checking the tuples of index.missing;
    # the public constructor checks each one again
    S = square(U)
    rebuilt = MonomialSubspace(S.n, S.d, S.complement)
    assert (S.n, S.d) == (U.n, 2 * U.d)
    assert S == rebuilt and hash(S) == hash(rebuilt)
    assert S.members == rebuilt.members


def assert_equals_checked_construction(V):
    """V, built without checking its tuples, equals the checked
    construction on its complement, whose elements are plain int tuples
    of length n and degree d."""
    rebuilt = MonomialSubspace(V.n, V.d, V.complement)
    assert V == rebuilt and hash(V) == hash(rebuilt)
    assert V.members == rebuilt.members
    for M in V.complement:
        assert type(M) is tuple and len(M) == V.n and sum(M) == V.d
        assert all(type(e) is int and e >= 0 for e in M)


def built_from(U):
    """Every subspace a private-builder producer makes from U."""
    n, d = U.n, U.d
    out = [
        lift(U, 1),
        lift(U, 3),
        MonomialSubspace.from_members(n, d, U.members),
        MonomialSubspace.zero(n, d),
    ]
    out += [variable_quotient(U, i) for i in range(1, n + 1) if d]
    out += [restrict_vars(U, m) for m in range(2, n + 1)]
    out.append(initial_subspace(monomial_span(U)))
    if U.complement and is_strongly_stable(U):
        out.append(extend_stable(U))
    return out


def test_producers_on_strongly_stable_families_equal_the_checked_construction():
    family = _stable_family(range(2, 5), range(2, 5), 6)
    assert len(family) == 81
    for U in family:
        for V in built_from(U):
            assert_equals_checked_construction(V)
    for n, d in ((2, 4), (3, 2), (3, 3), (4, 2)):
        for k in (1, 2):
            for V in compute_m0_monomial(n, d, k).witnesses:
                assert_equals_checked_construction(V)
        for V in _subsets(n, d, _power_free(n, d), (1, 2)):
            assert_equals_checked_construction(V)


@given(any_subspace(), st.integers(0, 2), st.integers(0, 10**6))
def test_producers_on_any_complement_equal_the_checked_construction(U, codim, seed):
    for V in built_from(U):
        assert_equals_checked_construction(V)
    if U.n > 1 and codim < dim_component(U.n, U.d):
        R = random_subspace(U.n, U.d, codim, random.Random(seed), bound=3)
        assert_equals_checked_construction(initial_subspace(R))


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


def sumset_selected(U):
    m, k = U.dim, U.codim
    return m * (m + 1) // 2 <= k * dim_component(U.n, 2 * U.d)


@settings(max_examples=150, deadline=None)
@given(any_subspace(max_n=6, max_d=5))
@example(MonomialSubspace(3, 0, ()))  # d = 0
@example(MonomialSubspace.zero(3, 0))
@example(MonomialSubspace(1, 4, ()))  # n = 1
@example(MonomialSubspace.zero(1, 4))
@example(MonomialSubspace(5, 3, ()))  # codim 0
@example(MonomialSubspace.zero(5, 3))  # codim q
@example(MonomialSubspace(3, 2, [(1, 1, 0)]))  # the tie m(m + 1)/2 = 15 = k dim A_4
def test_sumset_and_class_walk_agree_with_the_naive_product(U):
    # square takes one kernel or the other by size; both answer every U
    want = product_naive(U, U).complement
    idx = SquareIndex(U.n, U.d)
    assert idx.sumset_missing(U.complement) == sorted(want)
    assert sorted(idx.missing(U.complement)) == sorted(want)
    assert square(U).complement == want


def test_square_selects_its_kernel_by_size():
    basis = _basis_tuples(6, 4)
    square_index.cache_clear()
    idx = square_index(6, 4)
    # codim 42: 84 * 85 / 2 = 3,570 member pairs, under 42 * dim A_8 =
    # 54,054, so the sumset answers and the walk is not grown
    U = MonomialSubspace(6, 4, basis[:42])
    assert sumset_selected(U)
    assert square(U) == product_naive(U, U)
    assert idx.entries == [] and idx._codes
    # codim 4: 122 * 123 / 2 = 7,503 pairs, over 4 * 1,287, so the walk
    # answers, grown only to 8 divisors
    U = MonomialSubspace(6, 4, basis[:4])
    assert not sumset_selected(U)
    assert square(U) == product_naive(U, U)
    assert idx._ends[-1][0] == 8 < idx._next[0]
    # a tie goes to the sumset
    U = MonomialSubspace(3, 2, [(1, 1, 0)])
    assert U.dim * (U.dim + 1) // 2 == U.codim * dim_component(3, 4) == 15
    assert square(U) == product_naive(U, U)
    assert square_index(3, 2).entries == []


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
    count_of = {T: c for c, T, _ in oracle}
    idx = SquareIndex(n, d)
    for count in (1, 4, 6, 12, 18, top):
        if count > top:
            continue
        want = [(c, T, pairs) for c, T, pairs in oracle if c <= count]
        counts = [c for c, _, _ in want]
        listed = {(T, frozenset(pairs)) for _, T, pairs in want}
        grown = len(idx.entries)
        assert idx.size_upto(count) == len(want) and len(idx.entries) == grown
        for got in (idx.entries_upto(count), SquareIndex(n, d).entries_upto(count)):
            got = unordered(got)
            # ascending in divisor count, and each count's entries the
            # oracle's, in any order
            assert [count_of[T] for T, _ in got] == counts
            assert {(T, frozenset(pairs)) for T, pairs in got} == listed


def test_size_upto_matches_the_listing_after_mixed_queries():
    # square grows the class walk and codim_square the bit index, in
    # either order on one shared index; the count stays the listing's
    n, d = 4, 3
    basis = _basis_tuples(n, d)
    rng = random.Random(4)
    square_index.cache_clear()
    idx = square_index(n, d)
    for i, k in enumerate((2, 5, 1, 8, 3, 13)):
        U = MonomialSubspace(n, d, rng.sample(basis, k))
        want = product_naive(U, U).codim
        if i % 2:
            assert idx.codim_square(U.complement) == want == square(U).codim
        else:
            assert square(U).codim == want == idx.codim_square(U.complement)
    top = max(count_divisors(T, d) for T in _basis_tuples(n, 2 * d))
    for count in range(top + 1):
        assert idx.size_upto(count) == len(idx.entries_upto(count))


def test_size_upto_reads_the_walk_once_it_has_passed_the_count(monkeypatch):
    # the walk of (6, 6) grown past 60 divisors: every count short of where
    # it stands is read off the index, and only a count past it walks the
    # classes afresh
    square_index.cache_clear()
    idx = square_index(6, 6)
    idx.entries_upto(60)
    walks = []
    ranked = subspace.ranked_classes
    monkeypatch.setattr(subspace, "ranked_classes", lambda *a: walks.append(a) or ranked(*a))
    top = idx._next[0]
    assert top > 60
    for count in range(top):
        assert idx.size_upto(count) == len(idx.entries_upto(count))
    assert walks == []
    assert idx.size_upto(top) > len(idx.entries_upto(top - 1)) and len(walks) == 1


def test_entries_upto_infinity_returns_the_whole_walk():
    # the spent walk's sentinel count is infinite too: the whole walk of
    # (3, 2) is the 15 monomials of degree 4, and a finite count still
    # reads the prefix it read before
    idx = SquareIndex(3, 2)
    prefix = idx.entries_upto(2)
    assert len(prefix) == 9
    whole = idx.entries_upto(inf)
    assert sorted(T for T, _ in whole) == sorted(_basis_tuples(3, 4))
    assert idx.entries_upto(inf) == whole
    assert idx.entries_upto(2) == prefix
    assert idx.size_upto(inf) == 15


def test_walk_refuses_a_class_that_would_pass_the_budget(monkeypatch):
    # (3, 2): 3 + 6 + 3 monomials of degree 4 have at most 3 divisors, and
    # the class of x1*x2*x3^2 adds 3 with 4 each; 12 * 3 exponents fit in 36
    monkeypatch.setattr("stablesq.errors.DEFAULT_BUDGET", 36)
    idx = SquareIndex(3, 2)
    assert len(idx.entries_upto(3)) == 12
    with pytest.raises(BudgetExceededError, match="45 exponents"):
        idx.entries_upto(4)
    assert len(idx.entries) == 12
    assert idx.size_upto(4) == 15


def scan_missing(idx, complement):
    """The former SquareIndex.missing, kept as an oracle: scan every entry
    with at most 2|C| divisors and keep the T whose pairs all meet C."""
    out = []
    for T, pairs in idx.entries_upto(2 * len(complement)):
        for M, N in pairs:
            if M not in complement and N not in complement:
                break
        else:
            out.append(T)
    return out


def assert_missing_matches_scan(idx, complement):
    want = scan_missing(idx, complement)
    assert idx.missing(complement) == want  # same list, same order
    assert idx.codim_square(complement) == len(want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_missing_matches_scan_on_strongly_stable(n):
    # codim_square lists under balanced pairs and missing under the class
    # walk's first pairs, so the scan is an oracle for both
    for d in range(10):
        idx = SquareIndex(n, d)
        for k in range(min(9, dim_component(n, d)) + 1):
            for U in enumerate_strongly_stable(n, d, k):
                assert_missing_matches_scan(idx, U.complement)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_missing_matches_scan_on_random_complements(data):
    n = data.draw(st.integers(1, 6))
    d = data.draw(st.integers(0, 4))
    basis = _basis_tuples(n, d)
    chosen = data.draw(st.lists(st.sampled_from(basis), unique=True, max_size=8))
    assert_missing_matches_scan(square_index(n, d), frozenset(chosen))


def test_missing_when_both_members_of_the_first_pair_are_in_the_complement():
    # (2, 2, 0) pairs x1^2 with x2^2 first and x1 x2 with itself
    idx = SquareIndex(3, 2)
    first = frozenset([(2, 0, 0), (0, 2, 0)])
    assert (2, 2, 0) not in idx.missing(first)
    assert idx.missing(first | {(1, 1, 0)}).count((2, 2, 0)) == 1
    for n, d in ((3, 2), (3, 4), (4, 3)):
        idx = SquareIndex(n, d)
        for T, pairs in idx.entries_upto(6):
            C = frozenset(M for pair in pairs for M in pair)
            assert idx.missing(C).count(T) == 1
            assert_missing_matches_scan(idx, C)


def test_missing_after_a_larger_query_grew_the_index():
    n, d = 4, 3
    basis = _basis_tuples(n, d)
    idx = SquareIndex(n, d)
    assert_missing_matches_scan(idx, frozenset(basis))
    grown = len(idx.entries)
    for k in (1, 2, 3, 5):
        for C in (frozenset(basis[:k]), frozenset(basis[-k:])):
            assert_missing_matches_scan(idx, C)
            assert idx.missing(C) == SquareIndex(n, d).missing(C)
    assert len(idx.entries) == grown


def test_budgeted_square_ranks_only_the_classes_it_counts(monkeypatch):
    # 35,251 exponent classes of degree 40 in 20 variables: a query ranks
    # only those with at most 2 codim U divisors of degree 20
    square_index.cache_clear()
    assert square(MonomialSubspace(20, 20, ()), budget=10).codim == 0
    idx = square_index(20, 20)
    top = (0,) * 19 + (40,)
    assert idx._next == (1, top) and idx.entries == []
    ranked = []
    counted = monomial.count_divisors
    monkeypatch.setattr(monomial, "count_divisors", lambda T, d: ranked.append(T) or counted(T, d))
    U = MonomialSubspace(20, 20, [(20,) + (0,) * 19])
    with pytest.raises(BudgetExceededError) as err:
        square(U, budget=10)
    assert err.value.seen == 400
    # the two classes counted, x20^40 and x19 x20^39, and the neighbours
    # of the second one move on
    assert ranked == [top, top[:18] + (1, 39), top[:17] + (1, 1, 38), top[:18] + (2, 38)]
    # the refusal entered nothing and left the walk where it was
    assert idx._next == (1, top) and idx.entries == []


def test_codim_square_lists_balanced_owners_without_growing_the_index():
    # 35,251 exponent classes of degree 40 in 20 variables: the strongly
    # stable search lists only the owners of its complements' monomials,
    # found inside their supports, and grows no entry
    square_index.cache_clear()
    assert compute_m(20, 20, 3).value == closed_form_m(20, 20, 3) == 61
    assert square_index(20, 20).entries == []


@pytest.mark.parametrize(
    "c", [(2, 0, 0, 0), (0, 0, 0, 2), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 1), (0, 1, 2, 1)]
)
def test_balanced_owners_are_counted_before_they_are_built(monkeypatch, c):
    # the count is exact: a budget of n times the owners lists them, one
    # less refuses before any is built
    n = len(c)
    owners = SquareIndex(n, sum(c))._balanced_owners(c)[1]
    monkeypatch.setattr("stablesq.errors.DEFAULT_BUDGET", n * len(owners))
    assert SquareIndex(n, sum(c))._balanced_owners(c)[1] == owners
    monkeypatch.setattr("stablesq.errors.DEFAULT_BUDGET", n * len(owners) - 1)
    with pytest.raises(BudgetExceededError, match=f"at least {n * len(owners)} exponents"):
        SquareIndex(n, sum(c))._balanced_owners(c)


def test_codim_square_skips_a_member_whose_owners_all_have_too_many_divisors():
    # each owner of x1*...*x18 has over 2^18 / 37 divisors of degree 18,
    # far more than twice the codimension, so none of them is built
    idx = SquareIndex(18, 18)
    assert idx.codim_square(frozenset([(1,) * 18])) == 0
    assert idx._balanced == {}


@pytest.mark.parametrize("n", [7, 8, 9])
def test_codim_square_matches_scan_with_a_squarefree_member(n):
    # a squarefree member of full support is skipped while the complement
    # is small, and listed once it is large enough
    rng = random.Random(n)
    for d in (2, 3, n):
        idx = SquareIndex(n, d)
        basis = _basis_tuples(n, d)
        for _ in range(12):
            support = rng.sample(range(n), d)
            c = tuple(int(i in support) for i in range(n))
            C = frozenset([c, *rng.sample(basis, rng.randrange(8))])
            assert idx.codim_square(C) == len(scan_missing(idx, C))


@pytest.mark.parametrize("n, d", [(2, 5), (3, 3), (4, 3), (5, 2)])
def test_codim_square_answers_do_not_depend_on_earlier_queries(n, d):
    # codim_square gives T its bit when a query first lists it; one index
    # queried large complements first and another small ones first must
    # each answer as a fresh index and the scan do
    rng = random.Random(10 * n + d)
    basis = _basis_tuples(n, d)
    queries = [
        frozenset(rng.sample(basis, min(size, len(basis))))
        for size in (12, 9, 6, 4, 3, 2, 1)
        for _ in range(2)
    ]
    queries += [U.complement for k in (7, 5, 3, 1) for U in enumerate_strongly_stable(n, d, k)]
    queries.sort(key=len, reverse=True)
    for order in (queries, queries[::-1]):
        idx = SquareIndex(n, d)
        for C in order:
            want = len(scan_missing(SquareIndex(n, d), C))
            assert idx.codim_square(C) == SquareIndex(n, d).codim_square(C) == want, C


def test_compute_m_matches_a_scan_over_the_oracle_enumeration(monkeypatch):
    monkeypatch.setattr("stablesq.search.WITNESS_CAP", 3)
    for n, d, k in product(range(2, 5), range(2, 5), range(1, 7)):
        if k > dim_component(n, d):
            continue
        idx = SquareIndex(n, d)
        scored = [(len(scan_missing(idx, frozenset(C))), C) for C in grow_complements(n, d, k)[0]]
        best = max(c for c, _ in scored)
        tops = [frozenset(C) for c, C in scored if c == best]
        result = compute_m(n, d, k)
        assert (result.value, result.witness_count, result.searched) == (best, len(tops), len(scored))
        assert [U.complement for U in result.witnesses] == tops[:3]


@pytest.mark.parametrize("n, d, k, want", [(7, 12, 3, 22), (8, 15, 4, 36)])
def test_square_of_large_extremal_shapes(n, d, k, want):
    # 593,775 and 10,295,472 monomials of degree 2d: only the few with
    # at most 2k divisors may be built
    assert closed_form_m(n, d, k) == want
    assert square(MonomialSubspace(n, d, extremal_complement(n, d, k))).codim == want


def test_square_edge_subspaces():
    assert square(MonomialSubspace(2, 2, ())).codim == 0
    assert square(MonomialSubspace.zero(2, 2)).codim == dim_component(2, 4)


def test_square_budget():
    # the budget bounds the degree-2d monomials that can be missing from
    # U^2: those with at most 2 codim U divisors of degree d
    for U in (
        MonomialSubspace(3, 3, ()),
        MonomialSubspace.zero(3, 3),
        MonomialSubspace(3, 3, extremal_complement(3, 3, 2)),
    ):
        size = sum(count_divisors(T, 3) <= 2 * U.codim for T in _basis_tuples(3, 6))
        for budget in (1, size - 1, size, size + 1):
            if budget < 1:
                continue
            if budget < size:
                with pytest.raises(BudgetExceededError) as err:
                    square(U, budget=budget)
                assert err.value.seen == size
            else:
                assert square(U, budget=budget) == square(U)
    # 10,295,472 monomials of degree 30, but only a few with at most 8
    # divisors of degree 15
    U = MonomialSubspace(8, 15, extremal_complement(8, 15, 4))
    assert square(U, budget=10**7) == square(U)


def test_huge_degrees_are_refused_before_any_list(monkeypatch):
    # the default budget bounds the degree of a square and the length of a
    # Hilbert function, so no list sized by them is built
    monkeypatch.setattr("stablesq.errors.DEFAULT_BUDGET", 100)
    U = MonomialSubspace(3, 2, [(1, 1, 0)])
    assert len(ideal_hilbert_function(U, 100).values) == 101
    with pytest.raises(BudgetExceededError):
        ideal_hilbert_function(U, 101)
    # max_degree is weighed by the digits of the largest value below d,
    # here the 2 of dim A(3)_3 = 10; x1^2*x2^2 leaves the quotient at once
    W = MonomialSubspace(3, 4, [(2, 2, 0)])
    assert len(ideal_hilbert_function(W, 50).values) == 51
    with pytest.raises(BudgetExceededError, match="at least 102 digits"):
        ideal_hilbert_function(W, 51)
    # x1^i stays outside in every degree, so its 9 exponents a degree add
    # up: 12 degrees list 108
    with pytest.raises(BudgetExceededError, match="at least 108 exponents"):
        ideal_hilbert_function(MonomialSubspace(3, 4, [(4, 0, 0)]), 50)
    # the next degree lists n exponents for each of n moves of each monomial
    # outside the ideal, and the budget bounds their sum over the degrees:
    # 9 * 10 from degree 3, then 90 + 9 * 15 from degree 4
    Z = MonomialSubspace.zero(3, 3)
    assert ideal_hilbert_function(Z, 4).values == (1, 3, 6, 10, 15)
    with pytest.raises(BudgetExceededError, match="at least 225 exponents"):
        ideal_hilbert_function(Z, 5)
    assert SquareIndex(2, 50).d == 50
    with pytest.raises(BudgetExceededError):
        SquareIndex(2, 51)
    with pytest.raises(BudgetExceededError):
        square(MonomialSubspace(2, 51, [(51, 0)]), budget=10**6)


def _ideal_complement_oracle(U, t):
    if t < U.d:
        return list(_basis_tuples(U.n, t))
    out = []
    for T in _basis_tuples(U.n, t):
        if all(M in U.complement for M in divisors_of_degree(T, U.d)):
            out.append(T)
    return out


@given(complements(3, 2, 5))
def test_hilbert_function_against_divisor_oracle(U):
    hf = ideal_hilbert_function(U, 5)
    for t in range(0, 6):
        assert hf[t] == len(_ideal_complement_oracle(U, t))
    assert hf.generated_in_degree == U.d


def propagated_hilbert_function(U, max_degree):
    """The former ideal_hilbert_function, kept as an oracle: each degree-i
    complement monomial t proposes every t * x_j, which stays outside the
    ideal when each of its quotients by a variable is in the complement."""
    n, d = U.n, U.d
    values = [dim_component(n, i) for i in range(min(d, max_degree + 1))]
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
    return HilbertFunction(tuple(values), generated_in_degree=d)


def test_hilbert_function_matches_propagation_oracle():
    # strongly stable U lifted by up to 3 variables (n up to 7), random
    # power-free complements of the degree-2d shapes, and edge cases
    family = [
        lift(U, extra)
        for n in range(2, 5)
        for d in range(2, 5)
        for k in range(1, min(6, dim_component(n, d)) + 1)
        for U in enumerate_strongly_stable(n, d, k)
        for extra in range(4)
    ]
    rng = random.Random(11)
    for n, d in ((3, 3), (3, 4), (4, 3), (4, 4), (3, 5), (4, 2), (5, 2), (6, 2)):
        free = _power_free(n, d)
        for k in range(1, min(3 * d - 3, len(free)) + 1):
            family += [MonomialSubspace(n, d, rng.sample(free, k)) for _ in range(20)]
    for n, d in ((1, 0), (1, 3), (2, 0), (3, 0), (3, 1)):
        family += [MonomialSubspace(n, d, ()), MonomialSubspace.zero(n, d)]
    assert len(family) == 1354
    for U in family:
        for top in (0, U.d, 2 * U.d + 1):
            assert ideal_hilbert_function(U, top) == propagated_hilbert_function(U, top), U


def test_variable_quotient_hand_values():
    U = MonomialSubspace(2, 2, [(0, 2)])  # missing x2^2
    V = variable_quotient(U, 2)  # members x1*x2 / x2, x1^2 has no x2
    assert V.d == 1
    assert V.complement == frozenset({(0, 1)})
    W = variable_quotient(U, 1)
    assert W.codim == 0
    with pytest.raises(InvalidInputError):
        variable_quotient(U, 3)


def test_lift_pads_complement():
    U = MonomialSubspace(2, 2, [(2, 0)])
    L = lift(U, 2)
    assert L.n == 4 and L.d == 2
    assert L.complement == frozenset({(2, 0, 0, 0)})
    assert L.codim == U.codim


def test_restrict_vars():
    U = MonomialSubspace(3, 2, [(2, 0, 0), (1, 1, 0)])
    R = restrict_vars(U, 2)
    assert R.n == 2
    assert R.complement == frozenset({(2, 0), (1, 1)})
    # complement monomials using a dropped variable restrict to zero
    W = restrict_vars(MonomialSubspace(3, 2, [(0, 0, 2)]), 2)
    assert W.codim == 0
    with pytest.raises(InvalidInputError):
        restrict_vars(U, 1)


def test_base_point_detection():
    assert is_base_point_free(MonomialSubspace(2, 2, [(1, 1)]))
    assert not is_base_point_free(MonomialSubspace(2, 2, [(2, 0)]))
    # full space has no base point, zero subspace is all base points
    assert is_base_point_free(MonomialSubspace(2, 2, ()))
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
    assert square(U).complement == frozenset([(4, 0), (3, 1), (2, 2), (1, 3)])


def test_square_index_cache_consistency():
    a = square_index(3, 2)
    assert square_index(3, 2) is a
    assert square_index(3, 3) is not a
    assert square(MonomialSubspace(3, 2, [(2, 0, 0)])).codim == 3
    # the square read the cached index, by the class walk or the sumset
    assert square_index(3, 2) is a and (a.entries or a._codes)
