from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stablesq import errors
from stablesq.errors import BudgetExceededError, capped_comb, check_size


@st.composite
def comb_cases(draw):
    """(n, k, cap) with the cap often within a few units of C(n, k), where
    the capped count turns from exact to over the cap."""
    n = draw(st.integers(0, 400))
    k = draw(st.integers(0, n + 2))
    cap = draw(st.one_of(
        st.integers(0, 10**30),
        st.integers(-2, 2).map(lambda delta: max(0, comb(n, k) + delta)),
    ))
    return n, k, cap


@given(comb_cases())
@example((0, 0, 0))
@example((5, 7, 0))
@example((10**20, 10**19, 10**6))  # stops within about log2(cap) steps
def test_capped_comb_matches_math_comb_up_to_the_cap(case):
    n, k, cap = case
    got = capped_comb(n, k, cap)
    if n <= 10**4:
        assert got == min(comb(n, k), cap + 1)
    else:
        assert got == cap + 1


def test_check_size_reads_the_default_budget_at_call_time(monkeypatch):
    check_size(10_000_000, "units")
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 5)
    check_size(5, "units")
    with pytest.raises(BudgetExceededError, match="at least 6 units, over the budget 5") as err:
        check_size(6, "units", seen=3)
    assert err.value.seen == 3
    # a budget given wins over the default
    check_size(6, "units", budget=6)
