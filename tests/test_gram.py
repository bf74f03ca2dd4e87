from math import comb

import pytest

from stablesq.errors import MAX_DIGITS, BudgetExceededError, InvalidInputError
from stablesq.gram import (
    FaceProfile,
    face_dim,
    face_gap,
    face_profile,
    nonsingular_face_bound,
    singular_face_dim,
)
from stablesq.monomial import dim_component
from stablesq.search import closed_form_m, compute_m
from stablesq.stable import extremal_complement
from stablesq.subspace import MonomialSubspace, square


def test_face_dim_formula():
    # rank r representation with square of dimension s spans a face of
    # dimension C(r+1, 2) - s
    assert face_dim(3, 6) == 0
    assert face_dim(4, 7) == 3
    with pytest.raises(InvalidInputError):
        face_dim(0, 1)
    with pytest.raises(InvalidInputError):
        face_dim(2, 7)  # square cannot exceed C(r+1, 2)


def test_nonsingular_bound_hand_values():
    assert nonsingular_face_bound(3, 2, 1) == 2
    assert nonsingular_face_bound(3, 3, 1) == 19
    with pytest.raises(InvalidInputError):
        nonsingular_face_bound(3, 3, 3)  # needs k <= d - 1
    with pytest.raises(InvalidInputError):
        nonsingular_face_bound(3, 3, 0)


def test_face_bounds_too_long_to_print_are_refused():
    # dim A(2)_d = d + 1, and a face bound is about (dim A_d)^2 / 2: one of
    # MAX_DIGITS // 2 - 1 digits gives bounds Python prints, one digit more
    # is refused before any binomial is computed
    d = 10 ** (MAX_DIGITS // 2 - 1) - 2
    assert len(str(nonsingular_face_bound(2, d, 2))) <= MAX_DIGITS
    assert len(str(singular_face_dim(2, d, 2))) <= MAX_DIGITS
    with pytest.raises(BudgetExceededError, match="digits"):
        nonsingular_face_bound(2, d + 1, 2)
    with pytest.raises(BudgetExceededError):
        nonsingular_face_bound(10**6, 10**6, 2)
    # a corank over dim A(n)_d is refused, not handed to math.comb
    with pytest.raises(InvalidInputError):
        nonsingular_face_bound(1, 5, 3)


def test_singular_face_dim_consistency():
    for n, d, k in ((3, 3, 1), (3, 3, 2), (4, 4, 2), (3, 4, 2)):
        r = dim_component(n, d) - k
        expected = comb(r + 1, 2) - dim_component(n, 2 * d) + closed_form_m(n, d, k)
        assert singular_face_dim(n, d, k) == expected
    # small n falls back to the explicit search
    value = singular_face_dim(2, 4, 3)
    r = dim_component(2, 4) - 3
    assert value == comb(r + 1, 2) - dim_component(2, 8) + compute_m(2, 4, 3).value


def test_gap_values():
    for n in range(5, 11):
        assert face_gap(n, 4, 2) == 2 * n - 8
    # the gap formula is singular minus nonsingular
    assert face_gap(5, 4, 2) == singular_face_dim(5, 4, 2) - nonsingular_face_bound(
        5, 4, 2
    )


def test_face_profile_on_extremal_witness():
    U = MonomialSubspace(3, 3, extremal_complement(3, 3, 2))
    profile = face_profile(U)
    assert isinstance(profile, FaceProfile)
    assert profile.n == 3 and profile.d == 3 and profile.k == 2
    assert profile.r == U.dim
    assert profile.dim_U2 == dim_component(3, 6) - square(U).codim
    assert profile.face_dim == singular_face_dim(3, 3, 2)


def test_face_profile_arbitrary_subspace():
    U = MonomialSubspace(3, 2, [(1, 1, 0)])
    profile = face_profile(U)
    assert profile.face_dim == face_dim(U.dim, dim_component(3, 4) - square(U).codim)
