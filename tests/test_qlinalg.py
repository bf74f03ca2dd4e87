import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import factorial, gcd, inf, isqrt, lcm, prod
from operator import add
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stablesq import qlinalg
from stablesq.errors import BudgetExceededError, InvalidInputError
from stablesq.monomial import (
    MonomialOrder,
    _basis_tuples,
    dim_component,
    enumerate_monomials,
    multiply,
)
from stablesq.qlinalg import (
    _PRIME,
    RationalSubspace,
    _as_vector,
    _at_root,
    _catalecticant,
    _coefficient,
    _column_index,
    _columns,
    _echelon,
    _fraction_row,
    _integer_row,
    _integer_rref,
    _kernel,
    _multiply,
    _product_columns,
    _rank_mod_p,
    _reduced_power,
    _restriction,
    apolar_dual,
    apolar_perp,
    eliminate_variable,
    has_base_point,
    hilbert_function_rational,
    initial_subspace,
    linear_multiples,
    monomial_span,
    power_in_span,
    product_rational,
    quotient_by_linear_form,
    random_linear_form,
    random_subspace,
    rational_subspace_from_json,
    span,
    square_rational,
)
from stablesq.search import closed_form_m
from stablesq.subspace import (
    MonomialSubspace,
    ideal_hilbert_function,
    is_base_point_free,
    square,
    subspace_from_json,
    variable_quotient,
)

def test_rref_properties():
    rng = random.Random(7)
    for _ in range(20):
        n, d = rng.choice(((2, 2), (3, 2), (2, 3)))
        q = dim_component(n, d)
        rows = [[rng.randint(-5, 5) for _ in range(q)] for _ in range(rng.randint(1, q))]
        U = span(rows, n, d)
        # every original row lies in the span
        for row in rows:
            assert U.contains(row)
        assert U.dim == len(U.rows) == len(U.pivots)
        # unit pivot columns
        for i, p in enumerate(U.pivots):
            assert U.rows[i][p] == 1
            for j in range(U.dim):
                if j != i:
                    assert U.rows[j][p] == 0


def test_span_equality_is_representation_independent():
    a = span([[1, 0, 1], [0, 1, 0]], 2, 2)
    b = span([[1, 1, 1], [2, 1, 2]], 2, 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != span([[1, 0, 0]], 2, 2)


def test_monomial_span_and_initial_round_trip():
    for n, d in ((2, 2), (3, 2), (3, 3)):
        basis = _basis_tuples(n, d)
        for size in (1, 2):
            for comp in combinations(basis, size):
                U = MonomialSubspace(n, d, comp)
                R = monomial_span(U)
                assert R.dim == U.dim
                assert initial_subspace(R) == U


def test_initial_monomial_uses_ascending_convention():
    # x2^2 beats x1^2, so it is the pivot of x1^2 - x2^2
    U = span([{(2, 0): 1, (0, 2): -1}], 2, 2)
    assert initial_subspace(U).members == ((0, 2),)


def test_apolar_perp_and_dual_are_inverse():
    rng = random.Random(3)
    for n, d in ((2, 2), (3, 2), (3, 3)):
        for codim in (1, 2):
            U = random_subspace(n, d, codim, rng, bound=7)
            dual = apolar_dual(U)
            assert len(dual) == codim
            assert apolar_perp(dual, n, d) == U


def test_apolar_perp_weights():
    # perp of x1^2 in two variables: <x1^2, x1^2> = 2, so x1^2 itself is
    # not in the perp while x1*x2 and x2^2 are
    U = apolar_perp([{(2, 0): 1}], 2, 2)
    assert U.dim == 2
    assert U.contains({(1, 1): 1})
    assert U.contains({(0, 2): 1})
    assert not U.contains({(2, 0): 1})


def test_product_rational_matches_monomial_product():
    for n, d in ((2, 2), (3, 2)):
        basis = _basis_tuples(n, d)
        for size in (1, 2):
            for comp in combinations(basis, size):
                U = MonomialSubspace(n, d, comp)
                got = product_rational(monomial_span(U), monomial_span(U))
                want = square(U)
                assert got.dim == want.dim
                assert got == monomial_span(want)


def test_quotient_matches_variable_quotient():
    for n, d in ((2, 2), (3, 2), (3, 3)):
        basis = _basis_tuples(n, d)
        for comp in combinations(basis, 2):
            U = MonomialSubspace(n, d, comp)
            for i in range(n):
                l = [1 if j == i else 0 for j in range(n)]
                got = quotient_by_linear_form(monomial_span(U), l)
                want = variable_quotient(U, i + 1)
                assert got == monomial_span(want), (comp, i)


def test_hilbert_function_rational_matches_monomial():
    for n, d in ((2, 2), (3, 2)):
        basis = _basis_tuples(n, d)
        for comp in combinations(basis, 2):
            U = MonomialSubspace(n, d, comp)
            a = hilbert_function_rational(monomial_span(U), 2 * d)
            b = ideal_hilbert_function(U, 2 * d)
            assert a.values == b.values
    # both stop once a degree is filled and pad the rest with zeros
    U = MonomialSubspace(3, 2, [(1, 1, 0)])
    a = hilbert_function_rational(monomial_span(U), 10**6)
    b = ideal_hilbert_function(U, 10**6)
    assert a.values == b.values == (1, 3, 1) + (0,) * (10**6 - 2)


def test_catalecticant_rank_detects_powers():
    # (x + y)^3 has rank 1
    binomial_cube = {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    rows = _catalecticant(_as_vector(binomial_cube, 2, 3), 2, 3)
    assert span(rows, 2, 2).dim == 1
    # x^3 + y^3 has rank 2
    rows = _catalecticant(_as_vector({(3, 0): 1, (0, 3): 1}, 2, 3), 2, 3)
    assert span(rows, 2, 2).dim == 2


def test_power_in_span_hand_cases():
    x3 = {(3, 0): 1}
    y3 = {(0, 3): 1}
    x2y = {(2, 1): 1}
    xy2 = {(1, 2): 1}
    assert power_in_span([x3, y3], 2, 3)  # contains x^3 itself
    assert power_in_span([x3, x2y], 2, 3)  # contains x^2(x + 3ty), power at t=0
    assert not power_in_span([x2y, xy2], 2, 3)  # xy(sx + ty) is never a cube
    assert not power_in_span([x2y], 2, 3)
    assert power_in_span([binomial_power(2, 3)], 2, 3)
    assert power_in_span([], 2, 3) is False
    # degree 1: everything is a power
    assert power_in_span([[1, 1]], 2, 1)
    with pytest.raises(InvalidInputError):
        power_in_span([x3, y3, x2y], 2, 3)


def binomial_power(n, d):
    # (x1 + ... + xn)^d by repeated multiplication
    from math import factorial

    out = {}
    for t in _basis_tuples(n, d):
        coef = factorial(d)
        for e in t:
            coef //= factorial(e)
        out[t] = coef
    return out


def test_power_in_span_root_at_each_end_of_the_pencil():
    # power sits at (1 : 0): first generator is itself a power
    assert power_in_span([{(4, 0): 1}, {(2, 2): 1}], 2, 4)
    # power sits at (0 : 1): second generator is the power
    assert power_in_span([{(2, 2): 1}, {(0, 4): 1}], 2, 4)
    # power sits in the middle: x^3 + y^3 and 3(x^2 y + x y^2) sum to (x+y)^3
    f = {(3, 0): 1, (0, 3): 1}
    g = {(2, 1): 3, (1, 2): 3}
    assert power_in_span([f, g], 2, 3)


def test_power_in_span_three_variables():
    f = {(2, 1, 0): 1}  # x^2 y
    g = {(0, 1, 2): 1}  # y z^2
    assert not power_in_span([f, g], 3, 3)
    h = binomial_power(3, 3)
    assert power_in_span([f, h], 3, 3)


def test_has_base_point_matches_monomial_criterion():
    # for monomial subspaces a base point forces a missing pure power
    for n, d in ((2, 2), (2, 3), (3, 2)):
        basis = _basis_tuples(n, d)
        for size in (1, 2):
            for comp in combinations(basis, size):
                U = MonomialSubspace(n, d, comp)
                assert has_base_point(monomial_span(U)) == (
                    not is_base_point_free(U)
                ), comp


@st.composite
def base_point_cases(draw):
    """U of codimension 0..3 in n = 1..4 variables, degree 1..3: dense rows,
    a monomial span, or the perp of powers of linear forms, which has a
    base point at each of them."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    q = dim_component(n, d)
    kind = draw(st.sampled_from(("dense", "monomial", "powers")))
    if kind == "dense":
        codim, seed = draw(st.integers(0, min(3, q))), draw(st.integers(0, 10**6))
        return random_subspace(n, d, codim, random.Random(seed), bound=2)
    if kind == "monomial":
        comp = draw(st.lists(st.sampled_from(_basis_tuples(n, d)), max_size=3, unique=True))
        return monomial_span(MonomialSubspace(n, d, comp))
    linear = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    Ls = draw(st.lists(linear, min_size=1, max_size=3))
    return apolar_perp([power_of(L, d) for L in Ls], n, d)


@given(base_point_cases())
def test_has_base_point_matches_power_detection_on_the_dual(U):
    dual = apolar_dual(U)
    # the dual is already reduced: the rows `_reduced_power` takes
    pivots = [next(c for c, x in enumerate(r) if x) for r in dual]
    assert _integer_rref([list(r) for r in dual]) == (dual, pivots)

    def outcome(test, *args):
        """The answer, or the refusal of a dual of dimension 3 in degree >= 2."""
        try:
            return test(*args)
        except InvalidInputError as exc:
            return str(exc)

    assert outcome(has_base_point, U) == outcome(power_in_span, dual, U.n, U.d)


def test_eliminate_variable():
    # x1^2 * x3 with x3 = -(x1 + x2) gives -x1^3 - x1^2 x2
    out = eliminate_variable({(2, 0, 1): 1}, 3, 3, [1, 1, 1])
    got = span([out], 2, 3)
    assert got == span([{(3, 0): 1, (2, 1): 1}], 2, 3)
    # monomials without the last variable pass through
    out = eliminate_variable({(2, 1, 0): 1}, 3, 3, [0, 0, 1])
    assert span([out], 2, 3) == span([{(2, 1): 1}], 2, 3)
    with pytest.raises(InvalidInputError):
        eliminate_variable({(2, 0, 1): 1}, 3, 3, [1, 1, 0])


def test_object_rows_are_refused_before_the_column_index(monkeypatch):
    # JSON keys are strings, never exponent tuples, so such a row is refused
    # without listing the C(21, 11) = 352,716 columns
    def index(n, d):
        raise AssertionError("the column index was built")

    monkeypatch.setattr("stablesq.qlinalg._column_index", index)
    with pytest.raises(InvalidInputError):
        rational_subspace_from_json({"n": 11, "d": 11, "rows": [{"x": 1}]})
    with pytest.raises(InvalidInputError):
        span([{(1, 0): 1, (1, 1): 1}], 2, 2)


@pytest.mark.parametrize("load", [rational_subspace_from_json, subspace_from_json])
@pytest.mark.parametrize("record", [[1, 2], "x", None])
def test_json_loaders_refuse_a_record_that_is_not_an_object(load, record):
    with pytest.raises(InvalidInputError):
        load(record)


@pytest.mark.parametrize("bad", ["abc", "1e3000000", 0.5, True])
def test_linear_form_coefficients_are_checked(bad):
    # an unparsable coefficient, or an exponent over MAX_EXPONENT, is invalid
    # input, refused before Fraction's parser could expand it; so are floats
    # and bools
    U = monomial_span(MonomialSubspace(3, 2, [(2, 0, 0)]))
    with pytest.raises(InvalidInputError):
        quotient_by_linear_form(U, [bad, 1, 0])
    with pytest.raises(InvalidInputError):
        eliminate_variable({(2, 0, 1): 1}, 3, 3, [bad, 1, 1])
    with pytest.raises(InvalidInputError):
        linear_multiples([bad, 1, 0], 3, 2)


@pytest.mark.parametrize(
    "l, n, d, message",
    [
        ([1, 2], 3, 2, "needs 3 coefficients, got 2"),
        ([1, 2, 3, 4], 3, 2, "needs 3 coefficients, got 4"),
        ([1, 2, 3], 3, 0, "got d=0"),
        ([1, 2, 3], 3, -2, "got d=-2"),
    ],
)
def test_linear_multiples_refuses_a_bad_shape(l, n, d, message):
    with pytest.raises(InvalidInputError, match=message):
        linear_multiples(l, n, d)


def test_float_and_bool_coefficients_are_refused():
    # a float is binary, not the decimal it was written as, and a bool is no
    # coefficient; the string "0.1" is exactly 1/10
    for bad in (0.1, 1.0, True, False):
        with pytest.raises(InvalidInputError):
            RationalSubspace(2, 1, [[bad, 1]])
        with pytest.raises(InvalidInputError):
            _coefficient(bad)
    assert RationalSubspace(2, 1, [["0.1", 1]]) == RationalSubspace(2, 1, [[1, 10]])
    assert _coefficient(Fraction(1, 10)) == _coefficient("0.1") == Fraction(1, 10)


def row_kinds(row: list[Fraction], cols) -> dict:
    """One coefficient vector as every kind of row the intake reads."""
    scale = lcm(*(x.denominator for x in row))
    return {
        "list of Fractions": list(row),
        "tuple of p/q strings": tuple(str(x) for x in row),
        "generator of Fractions": (x for x in row),
        "list of ints": [int(x * scale) for x in row],
        "monomial dict": {M: x for M, x in zip(cols, row) if x},
        "monomial dict of strings": {M: str(x) for M, x in zip(cols, row) if x},
    }


@given(st.data())
def test_every_row_kind_spans_the_same_subspace(data):
    n, d = data.draw(st.sampled_from(((1, 2), (2, 1), (2, 2), (3, 2), (2, 3))))
    cols = _columns(n, d)
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    rows = data.draw(st.lists(st.lists(entry, min_size=len(cols), max_size=len(cols)), max_size=3))
    want = RationalSubspace(n, d, rows)
    kinds = [row_kinds(r, cols) for r in rows]
    for kind in row_kinds([Fraction(0)] * len(cols), cols):
        got = RationalSubspace(n, d, [k[kind] for k in kinds])
        assert got == want and got.dim == want.dim, kind
    # each row of its own kind, in one call
    mixed = [list(k.values())[i % len(k)] for i, k in enumerate(row_kinds(r, cols) for r in rows)]
    assert span(mixed, n, d) == want


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 0, 0]], "length 3, expected 2"),
        ([(x for x in (1, 0, 0))], "length 3, expected 2"),
        ([("1/2",)], "length 1, expected 2"),
        # the first bad row reports its own error
        ([[1, 0, 0], [True, 1]], "length 3, expected 2"),
        ([[True, 1], [1, 0, 0]], "is a bool"),
        ([[1, 1], [0.5, 1], [1, 0, 0]], "is a float"),
        ([{(1, 0): 1}, {(1, 1): 1}], "does not have degree 1"),
    ],
)
def test_a_bad_row_is_refused_with_its_own_error(rows, message):
    with pytest.raises(InvalidInputError, match=message):
        RationalSubspace(2, 1, rows)


@pytest.mark.parametrize("n, d", [(0, 1), (-1, 2), (2, -1)])
@pytest.mark.parametrize("rows", [[], [[True, 0.5]], [{(1, 0): 1}], [[1, 0, 0, 0]]])
def test_a_bad_shape_is_refused_before_any_row_is_read(n, d, rows):
    with pytest.raises(InvalidInputError, match=f"got n={n}, d={d}"):
        RationalSubspace(n, d, rows)


def test_rational_serialization_round_trip():
    U = span([{(2, 0): 1, (0, 2): Fraction(1, 3)}], 2, 2)
    V = rational_subspace_from_json(U.to_json())
    assert V == U
    assert U.to_json()["order"] == "lex"


@given(st.data())
def test_a_record_under_any_order_is_read_onto_the_lex_columns(data):
    # a list row lists the coefficients of the monomials of the record's
    # order, so it spans what the monomial dicts it names span
    n, d = data.draw(st.sampled_from(((2, 2), (3, 2), (3, 3), (4, 2))))
    blocks = [f"block:{m}" for m in range(1, n)]
    name = data.draw(st.sampled_from(["lex", "grlex", *blocks]))
    cols = enumerate_monomials(n, d, MonomialOrder.parse(name))
    entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4).map(str))
    rows = data.draw(st.lists(st.lists(entry, min_size=len(cols), max_size=len(cols)), max_size=4))
    record = {"n": n, "d": d, "order": name, "rows": rows}
    U = rational_subspace_from_json(record)
    dicts = [dict(zip(cols, r)) for r in rows]
    assert U == span(dicts, n, d)
    assert rational_subspace_from_json(U.to_json()) == U
    # a dict row names its monomials, so the order leaves it as it is
    assert rational_subspace_from_json({**record, "rows": dicts}) == U


@pytest.mark.parametrize(
    "record, message",
    [
        ({"n": 2, "d": 2, "order": "block:2", "rows": []}, "block split 2 needs at least 3"),
        ({"n": 1, "d": 3, "order": "block:1", "rows": [[1]]}, "block split 1 needs at least 2"),
        ({"n": 3, "d": 2, "order": "block:1", "rows": [[1, 0]]}, "length 2, expected 6"),
        ({"n": 3, "d": 2, "order": "block:1", "rows": [[1.5] * 6]}, "is a float"),
        ({"n": 3, "d": 2, "order": "block:0", "rows": []}, "bad block split"),
        ({"n": 3, "d": 2, "order": "revlex", "rows": []}, "unknown order"),
        # a row is checked before the columns of the order are listed
        ({"n": 30, "d": 30, "order": "block:2", "rows": [[1]]}, "length 1, expected"),
    ],
)
def test_a_bad_record_under_an_order_is_refused(record, message):
    with pytest.raises(InvalidInputError, match=message):
        rational_subspace_from_json(record)


def test_random_subspace_is_seeded_and_has_requested_codim():
    a = random_subspace(3, 2, 2, random.Random(11))
    b = random_subspace(3, 2, 2, random.Random(11))
    assert a == b
    assert a.codim == 2
    l = random_linear_form(3, random.Random(11))
    assert any(x != 0 for x in l)
    with pytest.raises(InvalidInputError):
        random_linear_form(3, random.Random(11), bound=0)  # only the zero form


def test_hilbert_function_rational_stops_once_a_degree_is_filled(monkeypatch):
    import stablesq.qlinalg as q

    # a generic codim-1 quadric space fills degree 3; past that every
    # product would exceed a guard of 30 (dim A_7 = 36 in 3 variables)
    monkeypatch.setattr(q, "PRODUCT_DIM_GUARD", 30)
    U = random_subspace(3, 2, 1, random.Random(5))
    assert hilbert_function_rational(U, 9).values == (1, 3, 1) + (0,) * 7
    # with a base point no degree fills, so the guard still stops the climb
    V = monomial_span(MonomialSubspace.from_members(3, 2, [(0, 0, 2), (0, 1, 1), (1, 0, 1)]))
    with pytest.raises(BudgetExceededError):
        hilbert_function_rational(V, 9)


@pytest.mark.parametrize(
    "case, max_degree",
    [("filled", 1), ("filled", 2), ("filled", 9), ("base point", 5)],
)
def test_hilbert_function_rational_makes_one_product_per_degree_it_reports(
    monkeypatch, case, max_degree
):
    import stablesq.qlinalg as q

    # a generic codim-1 quadric space fills degree 3; a span with the base
    # point (1:0:0) fills no degree
    if case == "filled":
        U = random_subspace(3, 2, 1, random.Random(5))
    else:
        U = monomial_span(MonomialSubspace.from_members(3, 2, [(0, 0, 2), (0, 1, 1), (1, 0, 1)]))
    products = []
    product = q.product_rational
    monkeypatch.setattr(q, "product_rational", lambda A, B: products.append(A.d) or product(A, B))
    values = hilbert_function_rational(U, max_degree).values
    assert values == oracle_hilbert_values(U, max_degree)
    filled = values.index(0) if 0 in values else inf
    assert len(products) == max(0, min(max_degree, filled) - U.d)


def test_square_rational_guard():
    import stablesq.qlinalg as q

    U = random_subspace(3, 2, 1, random.Random(5))
    assert square_rational(U).d == 4
    old = q.PRODUCT_DIM_GUARD
    try:
        q.PRODUCT_DIM_GUARD = 1
        with pytest.raises(BudgetExceededError):
            square_rational(U)
    finally:
        q.PRODUCT_DIM_GUARD = old



# ---------------------------------------------------------------------------
# differential tests of the form kernel on dense inputs: every product,
# restriction and colon is checked by exact evaluation at rational points


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def evaluate(form: dict, point) -> Fraction:
    total = Fraction(0)
    for M, c in form.items():
        term = Fraction(c)
        for p, e in zip(point, M):
            term *= p**e
        total += term
    return total


def as_form(row, cols) -> dict:
    return dict(zip(cols, row))


def multiply_forms(f: dict, g: dict) -> dict:
    """Product of two forms given as {exponent tuple: coefficient} dicts:
    the oracle the column-table kernel is checked against."""
    out: dict = {}
    for M, x in f.items():
        for N, y in g.items():
            T = tuple(map(add, M, N))
            out[T] = out.get(T, 0) + x * y
    return out


def linear_form(l) -> dict:
    return {tuple(int(j == i) for j in range(len(l))): c for i, c in enumerate(l) if c != 0}


def oracle_multiples(l, n: int, d: int) -> list[dict]:
    """l * mu for mu in the degree d-1 columns, by `multiply_forms`."""
    lform = linear_form(l)
    return [multiply_forms(lform, {mu: 1}) for mu in _columns(n, d - 1)]


@st.composite
def dense_forms(draw, n: int, d: int):
    q = dim_component(n, d)
    return as_form(draw(st.lists(rationals, min_size=q, max_size=q)), _basis_tuples(n, d))


@st.composite
def form_pairs(draw):
    n = draw(st.integers(1, 4))
    f = draw(dense_forms(n, draw(st.integers(0, 3))))
    g = draw(dense_forms(n, draw(st.integers(0, 3))))
    point = draw(st.lists(rationals, min_size=n, max_size=n))
    return f, g, point


@given(form_pairs())
def test_multiply_forms_evaluates_pointwise(case):
    f, g, point = case
    assert evaluate(multiply_forms(f, g), point) == evaluate(f, point) * evaluate(g, point)


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.integers(0, 4).flatmap(lambda d: dense_forms(n, d)),
            st.lists(rationals, min_size=n - 1, max_size=n - 1),
            rationals.filter(lambda x: x != 0),
            st.lists(rationals, min_size=n - 1, max_size=n - 1),
        )
    )
)
def test_eliminate_variable_evaluates_on_the_hyperplane(case):
    f, head, last, point = case
    n, d = len(head) + 1, sum(next(iter(f)))
    l = head + [last]
    restricted = eliminate_variable(f, n, d, l)
    # the point of l = 0 over `point`
    xn = -sum(a * p for a, p in zip(head, point)) / last
    got = evaluate(as_form(restricted, enumerate_monomials(n - 1, d)), point)
    assert got == evaluate(f, point + [xn])


def fraction_eliminate_variable(vector, n: int, d: int, l):
    """The Fraction substitution that `_restriction` replaced: x_n = s with
    s = -(l' . x') / l_n, by Horner's rule over `multiply_forms`."""
    if n < 2:
        raise InvalidInputError("elimination needs at least 2 variables")
    lvec = [Fraction(_coefficient(x)) for x in l]
    if len(lvec) != n:
        raise InvalidInputError(f"linear form needs {n} coefficients, got {len(lvec)}")
    if lvec[-1] == 0:
        raise InvalidInputError("last coefficient must be nonzero to eliminate")
    parts: dict = {}
    for M, x in zip(_columns(n, d), _as_vector(vector, n, d)):
        if x != 0:
            parts.setdefault(M[-1], {})[M[:-1]] = x
    s = linear_form([-x / lvec[-1] for x in lvec[:-1]])
    g: dict = {}
    for e in range(max(parts, default=0), -1, -1):
        g = multiply_forms(g, s)
        for T, c in parts.get(e, {}).items():
            g[T] = g.get(T, 0) + c
    return [g.get(M, Fraction(0)) for M in _columns(n - 1, d)]


exact_coefficients = st.one_of(
    st.integers(-9, 9),
    rationals,
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
)


@st.composite
def restriction_cases(draw):
    """(form, n, d, l): dict or list forms, the zero form among them, and
    l with a nonzero, possibly negative or rational, l_n."""
    n, d = draw(st.integers(2, 5)), draw(st.integers(0, 5))
    cols = _columns(n, d)
    f = draw(
        st.one_of(
            st.dictionaries(st.sampled_from(cols), exact_coefficients, max_size=4),
            st.lists(exact_coefficients, min_size=len(cols), max_size=len(cols)),
            st.just([0] * len(cols)),
        )
    )
    l = draw(st.lists(exact_coefficients, min_size=n - 1, max_size=n - 1))
    l.append(draw(exact_coefficients.filter(lambda x: Fraction(x) != 0)))
    return f, n, d, l


@given(restriction_cases())
@example(({}, 2, 0, [0, -1]))
@example(({(0, 0, 3): "2/3"}, 3, 3, [Fraction(1, 2), 0, Fraction(-4, 3)]))
def test_eliminate_variable_matches_fraction_substitution(case):
    f, n, d, l = case
    want = fraction_eliminate_variable(f, n, d, l)
    got = eliminate_variable(f, n, d, l)
    assert got == want
    assert all(type(x) is Fraction for x in got)
    # the kernel's row is the restriction times den * l_n^top, l primitive
    vec = [Fraction(x) for x in _as_vector(f, n, d)]
    terms = [(M, x) for M, x in zip(_columns(n, d), vec) if x]
    den = lcm(*(x.denominator for _, x in terms))
    top = max((M[-1] for M, _ in terms), default=0)
    lint = _integer_row([Fraction(_coefficient(x)) for x in l])
    scale = den * (lint[-1] // gcd(*lint)) ** top
    row, kernel_scale = _restriction(f, n, d, l)
    assert kernel_scale == scale
    assert all(type(c) is int for c in row)
    assert row == [x * scale for x in want]


@pytest.mark.parametrize(
    "args",
    [
        ({(1, 0): 1}, 1, 1, [1]),  # one variable
        ({(1, 0): 1}, 2, 1, [1, 1, 1]),  # l of the wrong length
        ({(1, 0): 1}, 2, 1, [1, "0/5"]),  # l_n = 0
        ({(1, 0): 1}, 2, 1, [1, "x"]),  # a bad coefficient in l
        ({(1, 0): "1/0"}, 2, 1, [1, 1]),  # a bad coefficient in the form
        ({(1, 0): "1e5000", (0, 1): "y"}, 2, 1, [1, 1]),  # the first bad column is named
        ([1, "1e5000"], 2, 1, [1, 1]),
        ({(2, 0): 1}, 2, 1, [1, 1]),  # a monomial of the wrong degree
        ({(1, 0, 0): 1}, 2, 1, [1, 1]),  # in the wrong number of variables
        ({(1.0, 0): 1}, 2, 1, [1, 1]),  # with a float exponent
        ([1, 2, 3], 2, 1, [1, 1]),  # a list of the wrong length
    ],
)
def test_eliminate_variable_refuses_what_the_fraction_substitution_refused(args):
    with pytest.raises(InvalidInputError) as want:
        fraction_eliminate_variable(*args)
    with pytest.raises(InvalidInputError) as got:
        eliminate_variable(*args)
    assert str(got.value) == str(want.value)


@st.composite
def dense_subspaces(draw, n: int, d: int):
    codim = draw(st.integers(0, dim_component(n, d) - 1))
    return random_subspace(n, d, codim, random.Random(draw(st.integers(0, 10**6))), bound=9)


def non_coordinate_forms(n: int):
    return st.lists(st.integers(-9, 9), min_size=n, max_size=n).filter(
        lambda l: sum(x != 0 for x in l) >= 2
    )


@given(
    st.sampled_from(((2, 2), (2, 3), (3, 2), (3, 3))).flatmap(
        lambda nd: st.tuples(dense_subspaces(*nd), non_coordinate_forms(nd[0]))
    )
)
def test_quotient_rows_times_l_lie_in_u(case):
    U, l = case
    V = quotient_by_linear_form(U, l)
    lform = linear_form(l)
    for row in V.rows:
        assert U.contains(multiply_forms(lform, as_form(row, V.columns)))
    # multiplication by l is injective, so (U : l) has the dimension of
    # U meet l * A_(d-1)
    multiples = oracle_multiples(l, U.n, U.d)
    meet = len(multiples) + U.dim - span(list(U.rows) + multiples, U.n, U.d).dim
    assert V.dim == meet


@given(
    st.sampled_from(((2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 1), (3, 2, 2))).flatmap(
        lambda ndd: st.tuples(
            dense_subspaces(ndd[0], ndd[1]),
            dense_subspaces(ndd[0], ndd[2]),
            st.lists(rationals, min_size=ndd[0], max_size=ndd[0]),
        )
    )
)
def test_product_rational_is_span_of_checked_products(case):
    U, V, point = case
    products = []
    for a in U.rows:
        f = as_form(a, U.columns)
        for b in V.rows:
            g = as_form(b, V.columns)
            fg = multiply_forms(f, g)
            assert evaluate(fg, point) == evaluate(f, point) * evaluate(g, point)
            products.append(fg)
    assert product_rational(U, V) == span(products, U.n, U.d + V.d)


def test_linear_multiples_is_multiplication_by_l():
    l = [2, 0, -3]
    rows = linear_multiples(l, 3, 2)
    assert len(rows) == 3
    # over x3^2, x2 x3, x1 x3, x2^2, x1 x2, x1^2: l * x3, l * x2, l * x1
    assert rows[2] == [0, 0, -3, 0, 0, 2]
    assert linear_multiples(l, 3, 1) == [[-3, 0, 2]]  # over x3, x2, x1
    assert linear_multiples(["1/2", Fraction(1, 3)], 2, 1) == [[Fraction(1, 3), Fraction(1, 2)]]


@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda nd: st.tuples(
            st.just(nd),
            st.lists(st.one_of(st.just(0), exact_coefficients), min_size=nd[0], max_size=nd[0]),
        )
    )
)
def test_linear_multiples_match_the_dict_oracle(case):
    (n, d), l = case
    want = oracle_multiples([_coefficient(x) for x in l], n, d)
    assert linear_multiples(l, n, d) == [_as_vector(f, n, d) for f in want]


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction elimination it replaced


def fraction_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns the nonzero rows and pivot columns."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    m, q = len(rows), len(rows[0])
    pivots: list[int] = []
    cursor = 0
    for col in range(q):
        sel = None
        for i in range(cursor, m):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[cursor], rows[sel] = rows[sel], rows[cursor]
        inv = rows[cursor][col]
        rows[cursor] = [x / inv for x in rows[cursor]]
        lead = rows[cursor]
        for i in range(m):
            if i != cursor and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        pivots.append(col)
        cursor += 1
        if cursor == m:
            break
    return rows[:cursor], pivots


def integer_rref(rows: list[list]) -> tuple[list[list[int]], list[int]]:
    """`_integer_rref` of rows of ints or Fractions, each scaled to integers."""
    return _integer_rref([_integer_row(list(r)) for r in rows])


# multiples of the prime vanish modulo it, so they push the rank modulo
# the prime below the rank over Q
prime_multiples = st.sampled_from((_PRIME, -_PRIME, 3 * _PRIME))
entries = st.one_of(
    st.just(0), st.integers(-9, 9), rationals, st.integers(-(10**20), 10**20), prime_multiples
)


@st.composite
def matrices(draw):
    q = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entries, min_size=q, max_size=q), max_size=8))
    # zero rows and repeats of earlier rows, at random places
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        copy = draw(st.sampled_from(rows)) if rows and draw(st.booleans()) else [0] * q
        rows.insert(at, list(copy))
    return rows


@given(matrices())
@example([])
@example([[]])
@example([[0, 0, 0], [Fraction(0), 0, 0]])
@example([[2, Fraction(1, 3), 0], [4, Fraction(2, 3), 1], [2, Fraction(1, 3), 0]])
def test_rref_matches_fraction_elimination(rows):
    mat, got_pivots = integer_rref(rows)
    got_rows = [_fraction_row(r, c) for r, c in zip(mat, got_pivots)]
    want_rows, want_pivots = fraction_rref([[Fraction(x) for x in r] for r in rows])
    assert got_pivots == want_pivots
    assert got_rows == want_rows
    assert all(type(x) is Fraction for r in got_rows for x in r)


# ---------------------------------------------------------------------------
# the echelon fold with back-substitution against the fraction-free
# Gauss-Jordan loop it replaced


def gauss_jordan_rref(mat: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """`_integer_rref` by fraction-free Gauss-Jordan elimination: each pivot
    in turn clears its column from every other row by cross-multiplication,
    and each updated row is divided by the gcd of its entries."""
    mat = [row for row in mat if any(row)]
    q = len(mat[0]) if mat else 0
    pivots: list[int] = []
    cursor = 0
    for col in range(q):
        if cursor == len(mat):  # every row holds a pivot
            break
        sel = next((i for i in range(cursor, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[cursor], mat[sel] = mat[sel], mat[cursor]
        lead = mat[cursor]
        p = lead[col]
        kept = []
        for i, row in enumerate(mat):
            f = row[col]
            if i != cursor and f:
                row = [p * a - f * b for a, b in zip(row, lead)]
                g = gcd(*row)
                if g == 0:  # a dependent row below the pivots
                    continue
                if g > 1:
                    row = [a // g for a in row]
            kept.append(row)
        mat = kept
        pivots.append(col)
        cursor += 1
    out = []
    for r, c in zip(mat, pivots):
        g = gcd(*r) if r[c] > 0 else -gcd(*r)
        out.append(r if g == 1 else [a // g for a in r])
    return out, pivots


two_digits = st.integers(-99, 99)


@st.composite
def product_rows(draw):
    """(base, q): products of two sparse forms of degree 1-2 in 2-3
    variables, as `product_rational` builds its rows."""
    n, d1, d2 = draw(st.integers(2, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    table, q = _product_columns(n, d1, d2), dim_component(n, d1 + d2)

    def sparse(size: int):
        pairs = st.tuples(st.integers(0, size - 1), two_digits.filter(bool))
        return st.lists(pairs, min_size=1, max_size=3, unique_by=lambda t: t[0])

    f, g = sparse(len(table)), sparse(len(table[0]))
    base = [_multiply(draw(f), draw(g), table, q) for _ in range(draw(st.integers(1, 4)))]
    return base, q


@st.composite
def deficient_matrices(draw):
    """(rows, q): more rows than a base of dense 2-digit rows or sparse
    product rows, each row an integer combination of the base, so zero
    rows, repeated rows and multiples of rows occur; sometimes one column
    is zero throughout."""
    if draw(st.booleans()):
        base, q = draw(product_rows())
    else:
        q = draw(st.integers(1, 8))
        base = draw(st.lists(st.lists(two_digits, min_size=q, max_size=q), min_size=1, max_size=5))
    weights = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
    rows = [
        [sum(c * r[j] for c, r in zip(draw(weights), base)) for j in range(q)]
        for _ in range(len(base) + draw(st.integers(1, 4)))
    ]
    if draw(st.booleans()):
        zero = draw(st.integers(0, q - 1))
        for r in rows:
            r[zero] = 0
    return rows, q


@given(deficient_matrices())
@example(([], 3))
@example(([[0, 0], [0, 0]], 2))
# the first row is not primitive and never crossed: not in the fold, where
# it comes first, nor in back-substitution, where it is zero at the pivot below
@example(([[-2, 0, 4], [0, 3, 0], [0, 0, 0]], 3))
@example(([[0, 6, 9], [4, 2, 3], [4, 8, 12]], 3))
def test_integer_rref_matches_gauss_jordan(case):
    rows, q = case
    copy = [list(r) for r in rows]
    assert _integer_rref(copy) == gauss_jordan_rref([list(r) for r in rows])
    assert copy == rows  # the input rows are not changed
    with patch.object(qlinalg, "_integer_rref", gauss_jordan_rref):
        want = _kernel(rows, q)
    assert _kernel(rows, q) == want


def row_at_a_time_rank_mod_p(mat: list[list[int]], q: int) -> int:
    """Rank modulo _PRIME by the elimination `_rank_mod_p` replaced: rows in
    input order, each reduced from column 0 against pivots scaled to a leading 1."""
    echelon: dict[int, list[int]] = {}  # pivot column c -> row[c:], led by 1
    limit = min(len(mat), q)
    for row in mat:
        if len(echelon) == limit:
            break
        r = [a % _PRIME for a in row]
        for c in range(q):
            f = r[c]
            if not f:
                continue
            lead = echelon.get(c)
            if lead is None:
                inv = pow(f, -1, _PRIME)
                echelon[c] = [a * inv % _PRIME for a in r[c:]]
                break
            r[c:] = [(a - f * b) % _PRIME for a, b in zip(r[c:], lead)]
    return len(echelon)


def dense_rank_mod_p(mat: list[list[int]], q: int) -> int:
    """Rank modulo _PRIME by the dense elimination `_rank_mod_p` replaced.

    Each row is reduced modulo the prime once, into a new list.  The first
    row with a given leading column is a pivot with no reduction; the other
    rows wait until every row has been read, then each is reduced from its
    own leading column against the pivots it meets.  A pivot row is kept as
    it is, with the inverse of its leading entry.  The scan stops once the
    rank reaches min(rows, q).
    """
    p = _PRIME
    limit = min(len(mat), q)
    pivots: dict[int, tuple[list[int], int]] = {}  # column c -> (row[c+1:], 1/row[c])
    waiting = []
    for row in mat:
        r = [a % p for a in row]
        c = next((c for c, a in enumerate(r) if a), q)
        if c == q:
            continue
        if c in pivots:
            waiting.append((c, r))
            continue
        pivots[c] = r[c + 1:], pow(r[c], -1, p)
        if len(pivots) == limit:
            return limit
    for start, r in waiting:
        for c in range(start, q):
            f = r[c]
            if not f:
                continue
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = r[c + 1:], pow(f, -1, p)
                if len(pivots) == limit:
                    return limit
                break
            tail, inv = pivot
            f = f * inv % p
            # r[c] is now 0 and is not read again
            r[c + 1:] = [(a - f * b) % p for a, b in zip(r[c + 1:], tail)]
    return len(pivots)


nonzero_ints = st.one_of(
    st.integers(1, 9), st.integers(-9, -1), prime_multiples, st.integers(10**9, 10**20)
)


@st.composite
def tall_sparse_matrices(draw):
    """Up to 60 integer rows over up to 30 columns, about 20% nonzero, all
    leading at a few shared columns; leading entries may be multiples of
    the prime, and a row may be a combination of two earlier rows."""
    q = draw(st.integers(1, 30))
    leads = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=5))
    rows = []
    for _ in range(draw(st.integers(0, 60))):
        if rows and draw(st.integers(0, 3)) == 0:
            u, v = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([s * x + t * y for x, y in zip(u, v)])
            continue
        c = draw(st.sampled_from(leads))
        row = [0] * q
        row[c] = draw(nonzero_ints)
        if c + 1 < q:
            tail = st.dictionaries(
                st.integers(c + 1, q - 1), nonzero_ints, max_size=(q - c) * 2 // 5
            )
            for j, a in draw(tail).items():
                row[j] = a
        rows.append(row)
    return rows


@given(st.one_of(matrices(), tall_sparse_matrices()))
@example([[_PRIME, 1], [0, _PRIME]])
# repeated leading columns: three rows lead at column 0, two at column 1
@example([[1, 2, 3, 4], [2, 5, 7, 1], [0, 3, 1, 4], [3, 1, 4, 1], [0, 6, 2, 9]])
# more rows than columns: rank q is reached while reducing the second row
# that leads at column 0, before the last row is read
@example([[1, 1], [2, 3], [5, 7], [4, 4]])
# rows that are multiples of the prime, whole or in part
@example([[_PRIME, 2 * _PRIME, -_PRIME], [1, _PRIME, 3 * _PRIME], [2, 0, _PRIME], [0, 5, 1]])
# a leading entry that is a multiple of the prime is no raw pivot: the row
# waits, and the next row that leads at column 0 takes the column
@example([[_PRIME, 1, 2], [3, 4, 5], [0, 1, 1]])
# raw pivots alone reach rank q, before the last row is read
@example([[1, 2, 3], [0, 4, 5], [0, 0, 6], [7, 8, 9]])
# a repeated row meets its raw pivot, whose tail is divided by the lead
@example([[2, 1], [2, 1]])
# the second row becomes a pivot at column 1 after waiting; the third row,
# twice the second minus the first, meets that pivot and vanishes
@example([[1, 0, 0], [1, 2, 1], [1, 4, 2]])
def test_rank_mod_p_never_exceeds_the_rank(rows):
    mat = [r for r in map(_integer_row, rows) if any(r)]
    q = len(rows[0]) if rows else 0
    before = [list(r) for r in mat]
    rank = _rank_mod_p(mat, q)
    assert mat == before
    assert rank == dense_rank_mod_p(mat, q) == row_at_a_time_rank_mod_p(mat, q)
    assert rank <= len(integer_rref(rows)[1])


@st.composite
def subspace_inputs(draw):
    """(n, d, rows): full-rank, rank-deficient or tall, with zero rows."""
    n, d = draw(st.sampled_from(((1, 0), (2, 1), (2, 2), (3, 1), (2, 3), (3, 2))))
    q = dim_component(n, d)
    row = st.lists(entries, min_size=q, max_size=q)
    kind = draw(st.sampled_from(("full", "deficient", "tall")))
    if kind == "full":  # independent, barring a coincidence
        rows = draw(st.lists(row, min_size=1, max_size=q))
    elif kind == "deficient":  # integer combinations of fewer base rows
        base = draw(st.lists(row, min_size=1, max_size=max(1, q - 1)))
        coefficients = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
        rows = [
            [sum(c * b[j] for c, b in zip(cs, base)) for j in range(q)]
            for cs in draw(st.lists(coefficients, min_size=len(base) + 1, max_size=len(base) + 3))
        ]
    else:  # more rows than columns
        rows = draw(st.lists(row, min_size=q + 1, max_size=q + 3))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * q)
    return n, d, rows


@given(subspace_inputs())
@example((1, 0, [[_PRIME]]))
@example((2, 1, [[1, 0], [1, _PRIME]]))
def test_certified_dim_and_lazy_rref_match_the_exact_kernels(case):
    n, d, rows = case
    U = RationalSubspace(n, d, rows)
    want_rows, want_pivots = fraction_rref([[Fraction(x) for x in r] for r in rows])
    assert U.dim == len(integer_rref(rows)[1]) == len(want_pivots)
    assert U.codim == dim_component(n, d) - U.dim
    assert U.pivots == tuple(want_pivots)
    assert U.rows == tuple(map(tuple, want_rows))


def test_rank_zero_modulo_the_prime_falls_back_to_exact_elimination():
    assert _rank_mod_p([[_PRIME]], 1) == 0
    U = RationalSubspace(1, 0, [[_PRIME]])
    assert U._echelon is not None  # built by the fallback, not on first use
    assert U.dim == 1
    assert U.rows == ((1,),)
    # rank 1 modulo the prime, 2 over Q
    assert RationalSubspace(2, 1, [[1, 0], [1, _PRIME]]).dim == 2


@pytest.mark.parametrize("n, d", [(4, 4), (5, 3)])
def test_extremal_square_falls_back_to_exact_elimination(n, d):
    # the apolar perp of L^d and L^(d-1) M in generic coordinates has
    # codim U^2 = m(n, d, 2), so its product rows are dependent and fewer
    # than q are independent: the rank modulo the prime certifies neither
    # count, and the exact elimination decides
    rng = random.Random(f"{n}:{d}")
    L, M = ([rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n)] for _ in "LM")
    U = apolar_perp([power_of(L, d), multiply_forms(power_of(L, d - 1), linear_form(M))], n, d)
    S = square_rational(U)
    assert S._echelon is not None  # built by the fallback, not on first use
    assert S.codim == closed_form_m(n, d, 2)


def test_prime_keeps_the_modular_elimination_in_one_digit_ints():
    assert all(_PRIME % k for k in range(2, isqrt(_PRIME) + 1))
    # a - f*b with residues a, f, b below the prime: under 2^30 in magnitude
    assert (_PRIME - 1) ** 2 < 2**30


def test_reduced_form_is_built_on_first_use():
    U = RationalSubspace(2, 2, [[1, 2, 3], [0, 1, 5]])
    assert U.dim == 2
    assert U._echelon is None
    assert U.pivots == (0, 1)
    assert U._echelon is not None


@given(
    st.sampled_from(((2, 2), (2, 3), (3, 2), (3, 3))).flatmap(
        lambda nd: st.one_of(
            dense_subspaces(*nd),
            st.sets(st.sampled_from(_basis_tuples(*nd)), min_size=1).map(
                lambda members: monomial_span(
                    MonomialSubspace.from_members(nd[0], nd[1], members)
                )
            ),
        )
    )
)
def test_square_rational_is_span_of_all_products(U):
    forms = [as_form(a, U.columns) for a in U.rows]
    cols = enumerate_monomials(U.n, 2 * U.d)
    products = [multiply_forms(f, g) for f in forms for g in forms]
    rows, pivots = fraction_rref(
        [[Fraction(fg.get(M, 0)) for M in cols] for fg in products]
    )
    S = square_rational(U)
    assert S.pivots == tuple(pivots)
    assert S.rows == tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# the product through the column table against the dict scatter it replaced,
# and the certified builder against the checked constructor


def oracle_product(U: RationalSubspace, V: RationalSubspace) -> RationalSubspace:
    """product_rational as the dict scatter: each pair of reduced rows is
    multiplied as {exponent tuple: coefficient} forms by `multiply_forms`
    and placed by `_column_index`, and the rows go through the checked
    constructor."""
    def form(row, cols) -> dict:
        return {M: x for M, x in zip(cols, row) if x != 0}

    forms_U = [form(a, U.columns) for a in U._reduced()[0]]
    if V is U or V == U:
        pairs = combinations_with_replacement(forms_U, 2)
    else:
        pairs = product(forms_U, [form(b, V.columns) for b in V._reduced()[0]])
    d = U.d + V.d
    idx = _column_index(U.n, d)
    rows = []
    for f, g in pairs:
        row = [0] * dim_component(U.n, d)
        for T, x in multiply_forms(f, g).items():
            row[idx[T]] = x
        rows.append(row)
    return RationalSubspace(U.n, d, rows)


def oracle_hilbert_values(U: RationalSubspace, max_degree: int) -> tuple[int, ...]:
    """The Hilbert function by the oracle product, one degree at a time,
    with no stop once a degree is filled."""
    values = [dim_component(U.n, i) for i in range(min(U.d, max_degree + 1))]
    linear = monomial_span(MonomialSubspace(U.n, 1, ()))
    current = U
    for _ in range(U.d, max_degree + 1):
        values.append(current.codim)
        current = oracle_product(current, linear)
    return tuple(values)


@st.composite
def product_operands(draw, n: int, d: int):
    """A dense, monomial-span, zero or full subspace of degree d."""
    kind = draw(st.sampled_from(("dense", "monomial", "zero", "full")))
    if kind == "dense":
        codim = draw(st.integers(0, dim_component(n, d) - 1))
        seed = draw(st.integers(0, 10**6))
        return random_subspace(n, d, codim, random.Random(seed), bound=9)
    if kind == "monomial":
        members = draw(st.sets(st.sampled_from(_basis_tuples(n, d)), min_size=1))
        return monomial_span(MonomialSubspace.from_members(n, d, members))
    if kind == "zero":
        return RationalSubspace(n, d, [])
    return monomial_span(MonomialSubspace(n, d, ()))


@st.composite
def product_cases(draw):
    """(U, V) with V the same object, an equal copy, or any subspace of
    any degree; n = 1..4, degrees 0..3."""
    n = draw(st.integers(1, 4))
    U = draw(product_operands(n, draw(st.integers(0, 3))))
    partner = draw(st.sampled_from(("same", "copy", "other")))
    if partner == "same":
        return U, U
    if partner == "copy":
        return U, RationalSubspace(n, U.d, [list(r) for r in U.rows])
    return U, draw(product_operands(n, draw(st.integers(0, 3))))


@given(product_cases())
@example((random_subspace(3, 1, 1, random.Random(1), 9), random_subspace(3, 2, 2, random.Random(2), 9)))
@example((random_subspace(3, 3, 2, random.Random(3), 9), random_subspace(3, 1, 0, random.Random(4), 9)))
def test_product_rational_matches_the_dict_scatter(case):
    U, V = case
    got, want = product_rational(U, V), oracle_product(U, V)
    assert got == want
    assert got.codim == want.codim


@given(
    st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2)).flatmap(
        lambda ndk: st.tuples(product_operands(ndk[0], ndk[1]), st.just(ndk[1] + ndk[2]))
    )
)
def test_hilbert_function_rational_matches_the_oracle_chain(case):
    U, max_degree = case
    assert hilbert_function_rational(U, max_degree).values == oracle_hilbert_values(U, max_degree)


def test_product_columns_index_the_products_of_columns():
    for n, d1, d2 in product(range(1, 5), range(4), range(4)):
        idx = _column_index(n, d1 + d2)
        table = _product_columns(n, d1, d2)
        assert len(table) == dim_component(n, d1)
        for i, M in enumerate(enumerate_monomials(n, d1)):
            assert table[i] == tuple(idx[multiply(M, N)] for N in enumerate_monomials(n, d2))


@given(subspace_inputs())
@example((1, 0, [[_PRIME]]))
@example((2, 1, [[1, 0], [1, _PRIME]]))
def test_built_subspace_equals_the_checked_construction(case):
    n, d, rows = case
    mat = [list(_integer_row(list(r))) for r in rows]
    built = RationalSubspace._built(n, d, [list(r) for r in mat])
    checked = RationalSubspace(n, d, mat)
    assert built == checked
    assert built.dim == checked.dim
    assert built.pivots == checked.pivots


# ---------------------------------------------------------------------------
# the colon, the apolar kernels and `contains` against the paths they
# replaced: the tracker-augmented colon and the Fraction null space


def tracker_quotient(U: RationalSubspace, l) -> RationalSubspace:
    """(U : l) from U's reduced rows above the rows l*mu, each row augmented
    with an identity tracker: the reduced rows whose left part vanishes are
    the combinations of the mu with l*g in U."""
    n, d = U.n, U.d
    q_hi = dim_component(n, d)
    multiples = oracle_multiples(_integer_row([Fraction(_coefficient(x)) for x in l]), n, d)
    m = len(multiples)
    aug = [list(row) + [0] * m for row in U._reduced()[0]]
    for r, lmu in enumerate(multiples):
        aug.append(_as_vector(lmu, n, d) + [int(i == r) for i in range(m)])
    reduced, _ = _integer_rref(aug)
    kernel_rows = [row[q_hi:] for row in reduced if not any(row[:q_hi])]
    return RationalSubspace(n, d - 1, kernel_rows)


def fraction_null_space(rows: list[list], q: int) -> list[list[Fraction]]:
    """Basis of the right kernel in Fractions, one vector per free column."""
    rref, pivots = fraction_rref([[Fraction(x) for x in r] for r in rows])
    out = []
    for free in sorted(set(range(q)) - set(pivots)):
        vec = [Fraction(0)] * q
        vec[free] = Fraction(1)
        for r, p in zip(rref, pivots):
            vec[p] = -r[free]
        out.append(vec)
    return out


def fraction_span(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """The reduced echelon form that identifies the span of the rows."""
    return fraction_rref([[Fraction(x) for x in r] for r in rows])


@st.composite
def colon_cases(draw):
    """(U, l): dense or monomial-span U, the zero and the full space among
    them, and l with int, Fraction, "p/q" and zero entries, not all zero."""
    n, d = draw(st.sampled_from(((1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))))
    q = dim_component(n, d)
    if draw(st.booleans()):
        seed = draw(st.integers(0, 10**6))
        U = random_subspace(n, d, draw(st.integers(0, q)), random.Random(seed), 9)
    else:
        members = draw(st.sets(st.sampled_from(_basis_tuples(n, d))))
        U = monomial_span(MonomialSubspace.from_members(n, d, members))
    l = draw(
        st.lists(st.one_of(st.just(0), exact_coefficients), min_size=n, max_size=n).filter(
            lambda l: any(Fraction(x) for x in l)
        )
    )
    return U, l


@given(colon_cases())
@example((random_subspace(3, 3, 2, random.Random(4), 9), [Fraction(3, 2), "-2/4", 0]))
def test_quotient_matches_the_tracker_colon(case):
    U, l = case
    got = quotient_by_linear_form(U, l)
    assert got == tracker_quotient(U, l)
    assert got.rows == tracker_quotient(U, l).rows


@st.composite
def integer_matrices(draw):
    q = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**20), 10**20))
    rows = draw(st.lists(st.lists(entry, min_size=q, max_size=q), max_size=8))
    # repeats and integer combinations, so that the kernel is not zero
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.insert(draw(st.integers(0, len(rows))), [s * x + t * y for x, y in zip(a, b)])
    return rows, q


@given(integer_matrices())
@example(([], 3))
@example(([[0, 0, 0]], 3))
@example(([[2, 3, 0], [0, 5, 7]], 3))
@example(([[6, 0, 4, 0, 3], [0, 10, 0, 15, 0]], 5))
def test_kernel_matches_the_fraction_null_space(case):
    rows, q = case
    kernel = _kernel(rows, q)
    assert all(type(x) is int for v in kernel for x in v)
    assert all(sum(a * b for a, b in zip(v, r)) == 0 for v in kernel for r in rows)
    want = fraction_null_space(rows, q)
    assert len(kernel) == len(want)
    assert fraction_span(kernel) == fraction_span(want)
    # already the reduced echelon form, primitive with positive leads
    assert _integer_rref(kernel)[0] == kernel


@given(colon_cases())
def test_apolar_kernels_match_the_fraction_null_space(case):
    U, _ = case
    weights = [prod(map(factorial, M)) for M in U.columns]
    dual = apolar_dual(U)
    assert all(type(x) is int for v in dual for x in v)
    assert _integer_rref(dual)[0] == dual
    weighted = [[w * x for w, x in zip(weights, r)] for r in U.rows]
    want = fraction_null_space(weighted, len(weights))
    assert fraction_span(dual) == fraction_span(want)
    assert apolar_perp(dual, U.n, U.d) == U
    assert apolar_perp(want, U.n, U.d) == U


@given(colon_cases(), st.data())
def test_contains_exactly_when_appending_keeps_the_dimension(case, data):
    U, _ = case
    q = len(U.columns)
    if U.dim and data.draw(st.booleans()):  # a combination of the rows
        cs = data.draw(st.lists(rationals, min_size=U.dim, max_size=U.dim))
        v = [sum(c * r[j] for c, r in zip(cs, U.rows)) for j in range(q)]
    else:
        v = data.draw(st.lists(st.one_of(st.just(0), rationals), min_size=q, max_size=q))
    assert U.contains(v) == (span([*U.rows, v], U.n, U.d).dim == U.dim)


# ---------------------------------------------------------------------------
# the integer minor scan of power_in_span against the Fraction detection
# it replaced


def fraction_poly_gcd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """Monic gcd in Q[u]; coefficient lists are low degree first."""

    def trim(a):
        while a and a[-1] == 0:
            a = a[:-1]
        return a

    a, b = trim(list(p)), trim(list(q))
    while b:
        # long division remainder
        r = list(a)
        db, lb = len(b) - 1, b[-1]
        while len(r) - 1 >= db and any(x != 0 for x in r):
            dr = len(r) - 1
            f = r[-1] / lb
            for i in range(db + 1):
                r[dr - db + i] -= f * b[i]
            r = trim(r)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def catalecticant_naive(vector, n: int, d: int) -> list[list]:
    """First catalecticant built entry by entry, looking each lower column up."""
    vec = _as_vector(vector, n, d)
    cols_hi = enumerate_monomials(n, d)
    idx_lo = {M: i for i, M in enumerate(enumerate_monomials(n, d - 1))}
    rows = []
    for i in range(n):
        row = [0] * len(idx_lo)
        for c, x in enumerate(vec):
            if x == 0:
                continue
            M = cols_hi[c]
            if M[i] == 0:
                continue
            lower = tuple(e - (1 if j == i else 0) for j, e in enumerate(M))
            row[idx_lo[lower]] += x * M[i]
        rows.append(row)
    return rows


def test_catalecticant_rows_match_the_entrywise_builder():
    rng = random.Random(7)
    for n in range(1, 5):
        for d in range(1, 6):
            basis = _basis_tuples(n, d)
            ints = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in basis]
            fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in basis]
            sparse = {M: rng.randint(-9, 9) for M in rng.sample(basis, min(3, len(basis)))}
            for vector in (ints, fractions, sparse):
                got = _catalecticant(_as_vector(vector, n, d), n, d)
                want = catalecticant_naive(vector, n, d)
                assert got == want, (n, d, vector)
                # int inputs keep int entries
                assert [list(map(type, r)) for r in got] == [list(map(type, r)) for r in want]


def test_divides_agrees_with_the_gcd_fold():
    # the decisions of the elimination step in `_reduced_power` against the
    # degree of gcd(g, c) in Q[u]: a linear g divides c exactly when c
    # vanishes at its root; a quadratic g divides c exactly when
    # e = c*g2 - g*c2 is zero, and otherwise shares a root with c exactly
    # when e is linear and its root is a root of g
    small = range(-2, 3)
    gs = [g for g in map(list, product(small, repeat=2)) if g[1]]
    gs += [g for g in map(list, product(small, repeat=3)) if g[2]]
    gs = [g for g in gs if gcd(*g) == 1]
    triples = [c for c in product(small, repeat=3) if any(c)]
    for g in gs:
        for c in triples:
            common = len(fraction_poly_gcd(list(map(Fraction, g)), list(map(Fraction, c)))) - 1
            if len(g) == 2:
                assert (_at_root(g, c) == 0) == (common == 1), (g, c)
                continue
            e = (c[0] * g[2] - g[0] * c[2], c[1] * g[2] - g[1] * c[2], 0)
            assert (not any(e)) == (common == 2), (g, c)
            if any(e):
                shared = bool(e[1]) and _at_root(e, tuple(g)) == 0
                assert shared == (common == 1), (g, c)


def fraction_power_in_span(vectors, n: int, d: int) -> bool:
    """Power detection with every minor formed eagerly in Fractions."""
    mat = [[Fraction(x) for x in _as_vector(v, n, d)] for v in vectors]
    rows, _ = fraction_rref(mat)
    if not rows:
        return False
    if d == 1:
        return True
    if len(rows) == 1:
        cat, _ = fraction_rref(catalecticant_naive(rows[0], n, d))
        return len(cat) <= 1
    A = catalecticant_naive(rows[0], n, d)
    B = catalecticant_naive(rows[1], n, d)
    q_lo = len(A[0])
    minors = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(q_lo):
                for l in range(k + 1, q_lo):
                    c0 = A[i][k] * A[j][l] - A[i][l] * A[j][k]
                    c2 = B[i][k] * B[j][l] - B[i][l] * B[j][k]
                    c1 = (
                        A[i][k] * B[j][l]
                        + B[i][k] * A[j][l]
                        - A[i][l] * B[j][k]
                        - B[i][l] * A[j][k]
                    )
                    if c0 != 0 or c1 != 0 or c2 != 0:
                        minors.append((c0, c1, c2))
    if not minors:
        return True
    if all(c2 == 0 for _, _, c2 in minors):
        return True
    g = [Fraction(0)]
    for c0, c1, c2 in minors:
        g = fraction_poly_gcd(g, [c0, c1, c2])
        if len(g) == 1:
            return False
    return len(g) >= 2


coefficients = st.one_of(st.integers(-9, 9), rationals)


def combine(a, f: dict, b, g: dict) -> dict:
    return {M: a * f.get(M, 0) + b * g.get(M, 0) for M in f.keys() | g.keys()}


@st.composite
def forms(draw, n: int, d: int):
    basis = _basis_tuples(n, d)
    return draw(
        st.one_of(
            st.dictionaries(st.sampled_from(basis), coefficients, max_size=4),
            st.lists(coefficients, min_size=len(basis), max_size=len(basis)).map(
                lambda c: dict(zip(basis, c))
            ),
        )
    )


def power_of(L, d: int) -> dict:
    lform = linear_form(L)
    P = {(0,) * len(L): 1}
    for _ in range(d):
        P = multiply_forms(P, lform)
    return P


nonzero = coefficients.filter(lambda x: x != 0)
POWER_CASES = (
    "span",
    "restricted",
    "finite",
    "at (1:0)",
    "at (0:1)",
    "dependent",
    "two powers",
)


@st.composite
def power_cases(draw, kind: str):
    """(vectors, n, d, planted): planted spans contain a d-th power.

    The pencil is s*r0 + t*r1 over the reduced rows r0, r1 of the span.
    """
    n = draw(st.integers(2 if kind.startswith("at") or kind == "two powers" else 1, 4))
    d = draw(st.integers(1, 5))
    if kind == "span":  # dimension 0, 1 or 2
        return draw(st.lists(forms(n, d), max_size=2)), n, d, False
    if kind == "restricted":
        W = draw(st.lists(st.sampled_from(_basis_tuples(n + 1, d)), min_size=1, max_size=2))
        l = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) + [draw(nonzero)]
        return [eliminate_variable({M: 1}, n + 1, d, l) for M in W], n, d, False
    if kind == "two powers":
        # s*r0 + t*r1 is a power exactly where its L^d or M^d coefficient
        # vanishes, so every minor is a multiple of the product of those two
        # linear forms in (s, t): a gcd, mostly of degree 2, that no minor shrinks
        L, M = (draw(st.lists(nonzero, min_size=n, max_size=n)) for _ in range(2))
        if all(L[0] * y == M[0] * x for x, y in zip(L, M)):  # keep L and M independent
            M[0] = -M[0]
        return [power_of(L, d), power_of(M, d)], n, d, True
    L = draw(st.lists(nonzero if kind == "finite" else coefficients, min_size=n, max_size=n))
    g = draw(forms(n, d))
    # the first column, where r0 has its pivot, is x_n^d
    if kind == "at (1:0)":
        # P has an x_n^d term and no x1; every monomial of g has x1, so r1 is
        # a multiple of g and r0 one of P
        L[0], L[-1] = 0, draw(nonzero)
        g = {M: c for M, c in g.items() if M[0]}
        return [g, power_of(L, d)], n, d, True
    if kind == "at (0:1)":
        # P is free of x_n and g has an x_n^d term, so r1 is a multiple of P
        L[0], L[-1] = draw(nonzero), 0
        g[(0,) * (n - 1) + (d,)] = draw(nonzero)
        return [power_of(L, d), g], n, d, True
    if not any(L):
        L[0] = 1
    P = power_of(L, d)
    a, b, c, e = (draw(nonzero) for _ in range(4))
    if kind == "dependent":  # a dimension-1 pencil: every minor of s*a*P + t*c*P vanishes
        return [combine(a, P, 0, g), combine(c, P, 0, g)], n, d, True
    if a * e == b * c:  # keep P in the span
        e = -e
    # P has every monomial, so it is a*r0 + b*r1 with a, b != 0
    return [combine(a, P, b, g), combine(c, P, e, g)], n, d, True


@pytest.mark.parametrize("kind", POWER_CASES)
@given(data=st.data())
def test_power_in_span_matches_fraction_detection(kind, data):
    vectors, n, d, planted = data.draw(power_cases(kind))
    got = power_in_span(vectors, n, d)
    assert got == fraction_power_in_span(vectors, n, d)
    if planted:
        assert got is True


def pencil_minors(A: list[list[int]], B: list[list[int]]):
    """The nonzero 2x2 minors of s*A + t*B, generated one at a time.

    Each is the triple (c0, c1, c2) of its coefficients of s^2, s*t, t^2.
    """
    q = len(A[0])
    for i, j in combinations(range(len(A)), 2):
        Ai, Aj, Bi, Bj = A[i], A[j], B[i], B[j]
        for k, l in combinations(range(q), 2):
            c0 = Ai[k] * Aj[l] - Ai[l] * Aj[k]
            c1 = Ai[k] * Bj[l] + Bi[k] * Aj[l] - Ai[l] * Bj[k] - Bi[l] * Aj[k]
            c2 = Bi[k] * Bj[l] - Bi[l] * Bj[k]
            if c0 or c1 or c2:
                yield c0, c1, c2


def all_minors_power(rows: list[list[int]], n: int, d: int) -> bool:
    """Power detection over every 2x2 minor of the catalecticant, which
    needs no pivot and so no reduced rows.

    For a pencil s*A + t*B the minors are binary quadratics in (s, t),
    folded into one gcd in Q[u] by `fraction_poly_gcd`; a minor with a
    nonzero t^2 coefficient rules out the common root (0, 1), so a
    constant gcd then leaves no common root at all.
    """
    if not rows:
        return False
    if d == 1:
        return True
    A, *rest = (_catalecticant(r, n, d) for r in rows)
    if not rest:
        zero = [[0] * len(A[0])] * n
        return next(pencil_minors(A, zero), None) is None
    g: list[Fraction] = []
    top = False
    for c in pencil_minors(A, rest[0]):
        g = fraction_poly_gcd(g, [Fraction(x) for x in c])
        top = top or c[2] != 0
        if top and len(g) == 1:
            return False
    return True


@st.composite
def reduced_power_cases(draw):
    """(rows, n, d): the reduced integer rows of a span of every
    POWER_CASES kind, or the apolar dual of a `base_point_cases` subspace
    of codimension at most 2 or of a dense one of codimension 2 (a pencil
    that mostly holds no power)."""
    source = draw(st.sampled_from(("powers", "dual", "dense dual")))
    if source == "dual":
        U = draw(base_point_cases().filter(lambda U: U.codim <= 2))
        return apolar_dual(U), U.n, U.d
    if source == "dense dual":
        n, d, seed = draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.integers(0, 10**6))
        return apolar_dual(random_subspace(n, d, 2, random.Random(seed), 3)), n, d
    vectors, n, d, _ = draw(power_cases(draw(st.sampled_from(POWER_CASES))))
    rows, _ = _integer_rref([_integer_row(_as_vector(v, n, d)) for v in vectors])
    return rows, n, d


@given(reduced_power_cases())
# x^3 + x*y^2 + u*y^3 is a cube only at u = infinity: the second reduced row
@example(([[1, 0, 1, 0], [0, 0, 0, 1]], 2, 3))
# the reduced rows of (x + y)^3 and (x - y)^3: two powers, a gcd of degree 2
@example(([[1, 0, 3, 0], [0, 3, 0, 1]], 2, 3))
# (x1 + x2)^4 and (x1 - x2)^4 in three variables: the pivot sits at x2^4,
# off the first variable
@example((
    _integer_rref([_as_vector(power_of(L, 4), 3, 4) for L in ((1, 1, 0), (1, -1, 0))])[0], 3, 4
))
# x^2*y and x*y^2 span no cube
@example(([[0, 1, 0, 0], [0, 0, 1, 0]], 2, 3))
# single forms: every linear form is a power; (x + 2y)^2 and (x + y + z)^2
# are powers, x*y is not
@example(([[1, 2]], 2, 1))
@example(([[1, 4, 4]], 2, 2))
@example(([[0, 1, 0]], 2, 2))
@example(([[1, 2, 2, 1, 2, 1]], 3, 2))
# x^4 - y^4 and x^2*y^2 + x*y^3: the first minor 8u is linear, 12u vanishes
# at its root 0 and -16 does not
@example(([[1, 0, 0, 0, -1], [0, 0, 1, 1, 0]], 2, 4))
# x^3 - y^3 and x^2*y - x*y^2: the minors -2u(u + 3) and (u - 3)(u + 3) share
# only the root -3, where the pencil holds (x - y)^3
@example(([[1, 0, 0, -1], [0, 1, -1, 0]], 2, 3))
# minors with no common root: (4 - 3u)(4 + u) and 2u(u - 2) leave a linear
# step whose root is off the first; -2(u^2 + 3u + 9) and u(u + 3) leave a constant
@example(([[1, 0, 2, 0, 0], [0, 1, -1, 0, 0]], 2, 4))
@example(([[1, 0, -3, 0], [0, 1, -1, 0]], 2, 3))
# x^3 + 6x*y^2 and 3x^2*y + 2y^3 hold (x +- sqrt(2)*y)^3 and no rational cube:
# its one minor is 18(2 - u^2); the quartic span of (x +- sqrt(2)*y)^4 has two
# minors, each a multiple of 32 - u^2
@example(([[1, 0, 6, 0], [0, 3, 0, 2]], 2, 3))
@example(([[1, 0, 12, 0, 4], [0, 1, 0, 2, 0]], 2, 4))
def test_pivot_power_test_matches_every_minor(case):
    rows, n, d = case
    assert _reduced_power(rows, n, d) == all_minors_power(rows, n, d)


# ---------------------------------------------------------------------------
# the echelon rows of power_in_span against the reduced rows they replaced


def rref_power_in_span(vectors, n: int, d: int) -> bool:
    """`power_in_span` on the reduced integer rows of Gauss-Jordan
    elimination, as it ran before the fold: the oracle of `_echelon`."""
    rows, _ = gauss_jordan_rref([_integer_row(_as_vector(v, n, d)) for v in vectors])
    return _reduced_power(rows, n, d)


def power_outcome(test, *args):
    """The answer, or the message of the refusal of a span of dimension 3."""
    try:
        return test(*args)
    except InvalidInputError as exc:
        return str(exc)


def leading_column(row) -> int:
    return next((c for c, x in enumerate(row) if x), len(row))


@st.composite
def echelon_cases(draw):
    """(vectors, n, d): 1-4 generators, n <= 4, d <= 5, each a
    combination of a base of 1-3 forms or d-th powers of linear forms with
    some coefficients zero: zero rows, base forms, dependent rows, and
    rows sharing their leading column.  Some are written as lists of "p/q"
    strings, and the list may be put in descending order of leading
    column, so a power in the base sits at either end of the pencil."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    linear = st.lists(coefficients, min_size=n, max_size=n)
    powers = linear.map(lambda L: power_of(L, d))
    base = draw(st.lists(st.one_of(forms(n, d), powers), min_size=1, max_size=3))
    weights = st.lists(st.one_of(st.just(0), nonzero), min_size=len(base), max_size=len(base))
    vectors = []
    for _ in range(draw(st.integers(1, 4))):
        g: dict = {}
        for c, f in zip(draw(weights), base):
            g = combine(1, g, c, f)
        vectors.append(_as_vector(g, n, d))
    if draw(st.booleans()):
        vectors.sort(key=leading_column, reverse=True)
    return [[str(x) for x in v] if draw(st.booleans()) else v for v in vectors], n, d


@given(echelon_cases())
# (x = x1, y = x2; under lex the columns of degree 3 are y^3, x*y^2, x^2*y, x^3)
# a multiple of the first row: the reduction at the first row's lead drops it
@example(([[1, 0, 0, 0], [2, 0, 0, 0]], 2, 3))
# y^3 + x*y^2 and y^3, equal leads: y^3 in the span, at (0 : 1)
@example(([[1, 1, 0, 0], [1, 0, 0, 0]], 2, 3))
# a third generator in the span of the first two, each of the pair needed
@example(([[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 1, 1]], 2, 3))
# generators in descending order of lead: x^3, then x*y^2 / 2
@example(([["0", "0", "0", "1"], [0, "1/2", 0, 0]], 2, 3))
# four generators of a 2-dimensional span holding (x + y)^3, with a zero row
@example(([[1, 3, 3, 1], [0, 0, 0, 0], [1, 0, 0, 0], ["2", "3", "3", "1"]], 2, 3))
# a power at either end of the pencil: x^4 after x^2*y^2, y^4 before it
@example(([[0, 0, 1, 0, 0], [0, 0, 0, 0, 1]], 2, 4))
@example(([[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]], 2, 4))
# dimension 3 is refused in degree 3 and answered in degree 1
@example(([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0]], 2, 3))
@example(([[1, 0, 0], [0, 1, 0], [0, 0, "1/2"], [1, 1, 0]], 3, 1))
def test_echelon_pair_matches_the_reduced_rows(case):
    vectors, n, d = case
    mat = [_integer_row(_as_vector(v, n, d)) for v in vectors]
    rank = len(gauss_jordan_rref([list(r) for r in mat])[1])
    pair = _echelon([list(r) for r in mat], 3)[0]
    # at most three independent rows of the span, sorted by distinct leads,
    # each zero at the leads of the rows before it; all of it when rank <= 2
    leads = list(map(leading_column, pair))
    assert leads == sorted(set(leads)) and len(pair) == min(rank, 3)
    assert all(r[c] == 0 for i, r in enumerate(pair) for c in leads[:i])
    assert len(gauss_jordan_rref([list(r) for r in pair + mat])[1]) == rank
    got = power_outcome(power_in_span, vectors, n, d)
    assert got == power_outcome(rref_power_in_span, vectors, n, d)
    if rank > 2 and d > 1:
        assert got == "exact power detection covers spans of dimension at most 2"


def test_coefficient_passes_exact_numbers_through():
    half = Fraction(1, 2)
    assert _coefficient(half) is half
    assert type(_coefficient(7)) is int
    assert _coefficient("-3/4") == Fraction(-3, 4)
    assert _coefficient("2.5e4300") == 25 * 10**4299
    assert _coefficient("1e-0_4_3_0_0") == Fraction(1, 10**4300)
    for text in ("1e4301", "1E-4301", "1e0_0_0_0_0_3000000"):
        with pytest.raises(InvalidInputError):
            _coefficient(text)
