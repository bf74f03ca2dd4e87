import json
from collections import Counter
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

from stablesq.errors import BudgetExceededError, InvalidInputError
from stablesq.monomial import _basis_tuples, _power_free, dim_component
from stablesq.search import (
    closed_form_m,
    compute_m,
    compute_m0_monomial,
    main_bound,
    small_subspace_bound,
    table_cell,
    verify_table,
)
from stablesq.subspace import MonomialSubspace, square, square_index
from stablesq.tables import covered, published_value


def _brute_max_over_all_monomial(n, d, k):
    """Oracle: max codim U^2 over ALL monomial complements of size k.

    The family of all subspaces attains its maximum on a strongly stable
    one, and monomial subspaces sit between the strongly stable family
    and all subspaces, so this maximum must agree with the search value.
    """
    best = -1
    for comp in combinations(_basis_tuples(n, d), k):
        c = square(MonomialSubspace(n, d, comp)).codim
        if c > best:
            best = c
    return best


def test_compute_m_matches_unrestricted_monomial_maximum():
    grids = [(2, d, k) for d in (2, 3, 4) for k in range(1, 5)]
    grids += [(3, 2, k) for k in range(1, 4)]
    grids += [(3, 3, k) for k in range(1, 4)]
    for n, d, k in grids:
        if k > dim_component(n, d):
            continue
        assert compute_m(n, d, k).value == _brute_max_over_all_monomial(n, d, k), (
            n,
            d,
            k,
        )


def test_compute_m_reports_witnesses():
    r = compute_m(3, 2, 1)
    assert r.value == 3
    assert r.witness_count == 1
    assert r.witnesses[0].complement == frozenset({(2, 0, 0)})
    assert r.restricted_to == "strongly-stable"
    assert r.searched >= 1


@pytest.mark.parametrize("search", (compute_m, compute_m0_monomial))
def test_witness_cap_bounds_the_list_not_the_count(search, monkeypatch):
    monkeypatch.setattr("stablesq.search.WITNESS_CAP", 0)
    none = search(3, 2, 2)
    monkeypatch.setattr("stablesq.search.WITNESS_CAP", 1)
    one = search(3, 2, 2)
    monkeypatch.undo()
    assert none.witnesses == ()
    assert len(one.witnesses) == 1
    assert none.value == one.value
    assert none.witness_count == one.witness_count == search(3, 2, 2).witness_count


def test_closed_form_guards():
    assert closed_form_m(4, 4, 4) == comb(6, 3)
    assert closed_form_m(6, 3, 3) == comb(5, 3) + 9
    with pytest.raises(InvalidInputError):
        closed_form_m(2, 3, 3)
    with pytest.raises(InvalidInputError):
        closed_form_m(3, 2, 3)


def test_known_anchor_values():
    assert compute_m(2, 2, 2).value == 4
    assert compute_m(3, 3, 3).value == 10
    assert compute_m(4, 2, 2).value == 8
    assert compute_m(6, 3, 3).value == 19
    # strictly below the closed form once n < k blocks the doubling
    assert compute_m(2, 3, 3).value == 6
    assert compute_m(3, 4, 4).value == 13


def test_m0_hand_values():
    for n in (2, 3, 4):
        assert compute_m0_monomial(n, 2, 1).value == 2
    assert compute_m0_monomial(3, 3, 1).value == 1
    assert compute_m0_monomial(3, 2, 2).value == 6
    assert compute_m0_monomial(3, 3, 2).value == 4
    assert compute_m0_monomial(3, 4, 2).value == 4
    assert compute_m0_monomial(2, 5, 2).value == 2
    assert compute_m0_monomial(2, 5, 2).restricted_to == "bpf-monomial"


def test_m0_aggregation_matches_direct_search():
    # the k = 2 search must agree with scanning all pairs
    for n, d in ((2, 4), (3, 2), (3, 3), (3, 4), (4, 2)):
        free = [t for t in _basis_tuples(n, d) if max(t) < d]
        if len(free) < 2:
            continue
        brute = max(
            square(MonomialSubspace(n, d, pair)).codim
            for pair in combinations(free, 2)
        )
        assert compute_m0_monomial(n, d, 2).value == brute, (n, d)


def test_m0_general_path_matches_brute_force():
    free = [t for t in _basis_tuples(3, 2) if max(t) < 2]
    brute = max(
        square(MonomialSubspace(3, 2, c)).codim for c in combinations(free, 3)
    )
    assert compute_m0_monomial(3, 2, 3).value == brute


def _plain_m0_scan(n, d, k, witness_cap):
    """Oracle: codim U^2 of every k-subset of the non-power basis, taken in
    `combinations` order; returns (value, witness_count, witnesses)."""
    idx = square_index(n, d)
    best, count, wits = -1, 0, []
    for S in combinations(_power_free(n, d), k):
        comp = frozenset(S)
        c = idx.codim_square(comp)
        if c > best:
            best, count, wits = c, 1, [comp]
        elif c == best:
            count += 1
            if len(wits) < witness_cap:
                wits.append(comp)
    return best, count, tuple(wits)


def test_m0_search_matches_plain_scan(monkeypatch):
    cells = 0
    for n, d, k in product(range(2, 6), range(2, 6), range(1, 5)):
        N = len(_power_free(n, d))
        if k > N or comb(N, k) > 3000:
            continue
        cells += 1
        for cap in (64, 3):
            monkeypatch.setattr("stablesq.search.WITNESS_CAP", cap)
            r = compute_m0_monomial(n, d, k)
            got = (r.value, r.witness_count, tuple(w.complement for w in r.witnesses))
            assert got == _plain_m0_scan(n, d, k, cap), (n, d, k, cap)
            assert r.searched == comb(N, k)
    assert cells == 45


def test_m0_rejects_impossible_codimension():
    with pytest.raises(InvalidInputError):
        compute_m0_monomial(2, 2, 2)  # only one non-power in two variables


def test_budget_paths():
    with pytest.raises(BudgetExceededError):
        compute_m(3, 3, 3, budget=1)
    with pytest.raises(BudgetExceededError):
        compute_m0_monomial(4, 3, 3, budget=10)


def test_m0_counts_subsets_before_listing_monomials(monkeypatch):
    def listing(n, d):
        raise AssertionError("the non-powers were listed")

    monkeypatch.setattr("stablesq.search._power_free", listing)
    # C(200, 1) = 200 subsets; C(19999, 10000), with over 6,000 digits, is
    # refused before it is counted to the end
    for n, d, k in ((2, 201, 1), (2, 20000, 10000)):
        with pytest.raises(BudgetExceededError) as err:
            compute_m0_monomial(n, d, k, budget=100)
        assert len(str(err.value)) < 200
    with pytest.raises(InvalidInputError):
        compute_m0_monomial(3, 1, 1)  # at d = 1 every monomial is a power


def test_bound_helpers():
    assert main_bound(2) == 4 + 4
    assert small_subspace_bound(3, 3) == 6
    with pytest.raises(InvalidInputError):
        main_bound(0)
    with pytest.raises(InvalidInputError):
        small_subspace_bound(3, 2)


def test_table_cell_handles_untabulated():
    assert table_cell(3, 2, 6) is None  # k >= dim A(3)_2
    assert table_cell(3, 2, 1) == 3


def test_published_table_spot_values():
    assert published_value(3, 2, 1) == 3
    assert published_value(3, 2, 2) == 6
    assert published_value(6, 8, 8) == 68
    assert published_value(5, 5, 9) == 63
    # dash cells are covered and carry None, matching the untabulated marker
    assert covered(3, 2, 6)
    assert published_value(3, 2, 6) is None
    assert not covered(7, 2, 1)
    assert not covered(3, 10, 1)


def test_verify_table_small_grid():
    rep = verify_table(range(3, 5), range(2, 4), range(1, 4))
    assert rep.clean
    assert rep.compared == 12
    assert rep.compared - len(rep.mismatches) == 12
    assert rep.cells[(3, 2, 1)] == 3


def test_m_is_constant_in_degree_from_k():
    reference = compute_m(3, 2, 2).value
    assert [compute_m(3, d, 2).value for d in range(2, 6)] == [reference] * 4


def test_large_grid_matches_closed_form_bundled_table_and_pin():
    # tests/m_grid.json is a regression gate, not a proof: it pins what
    # the per-cell search computed when it was recorded
    pin = json.loads((Path(__file__).parent / "m_grid.json").read_text())["rows"]
    report = verify_table(range(3, 10), range(2, 13), range(1, 15), diff=False)
    seen = Counter()
    for (n, d, k), value in report.cells.items():
        assert value == pin[f"{n},{d}"][k - 1], (n, d, k)
        if value is None:
            continue
        if n >= k and d >= k:
            assert value == closed_form_m(n, d, k), (n, d, k)
            seen["closed form"] += 1
        if covered(n, d, k):
            assert value == published_value(n, d, k), (n, d, k)
            seen["bundled"] += 1
        seen["tabulated"] += 1
    assert seen == {"tabulated": 1059, "closed form": 378, "bundled": 284}
