"""Dimension bounds for faces of the Gram spectrahedron of a form.

A sum-of-squares certificate with summands spanning a subspace U sits on
a face whose dimension is C(r+1, 2) - dim U^2 with r = dim U.  Comparing
that quantity at a base point free U against the best value a subspace
with base points can reach shows which faces force singular summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import errors
from .errors import InvalidInputError
from .monomial import capped_dim, dim_component
from .search import closed_form_m, compute_m, main_bound
from .subspace import MonomialSubspace, square


def face_dim(r: int, dim_U2: int) -> int:
    """C(r+1, 2) - dim U^2: the face dimension of a rank-r Gram point."""
    if r < 0:
        raise InvalidInputError(f"need r >= 0, got {r}")
    cap = comb(r + 1, 2)
    if not (0 <= dim_U2 <= cap):
        raise InvalidInputError(
            f"dim U^2 = {dim_U2} out of range [0, C({r}+1, 2) = {cap}]"
        )
    return cap - dim_U2


def nonsingular_face_bound(n: int, d: int, k: int) -> int:
    """Largest face dimension reachable with base point free summands.

    Valid for corank k with 1 <= k <= d - 1 and k <= dim A(n)_d.  With
    k <= n, so 2^k <= dim A(n)_d, a cell's values are below 10 (dim A(n)_d)^2:
    Python prints them if dim A(n)_d has at most MAX_DIGITS // 2 - 1 digits,
    and a longer one is refused first.  (k > n is searched under a budget.)
    """
    if not (1 <= k <= d - 1):
        raise InvalidInputError(f"need 1 <= k <= d-1 = {d - 1}, got k={k}")
    digits = errors.MAX_DIGITS // 2 - 1
    dim = capped_dim(n, d, 10**digits)
    errors.check_size(len(str(dim)), f"digits in dim A({n})_{d}", digits)
    if k > dim:
        raise InvalidInputError(f"need k <= dim A({n})_{d} = {dim}, got k={k}")
    r = dim - k
    return comb(r + 1, 2) - dim_component(n, 2 * d) + main_bound(k)


def singular_face_dim(n: int, d: int, k: int, budget: int | None = None) -> int:
    """Face dimension of the extremal corank-k witness with base points:
    the base point free bound with m(n, d, k) in place of main_bound(k)."""
    bound = nonsingular_face_bound(n, d, k)
    m = closed_form_m(n, d, k) if n >= k else compute_m(n, d, k, budget=budget).value
    return bound - main_bound(k) + m


def face_gap(n: int, d: int, k: int) -> int:
    """singular_face_dim minus nonsingular_face_bound; positive gaps mean
    the largest faces of that corank only carry certificates with base
    points."""
    return singular_face_dim(n, d, k) - nonsingular_face_bound(n, d, k)


@dataclass(frozen=True)
class FaceProfile:
    """Face data of one subspace: rank, corank, dim U^2, face dimension."""

    n: int
    d: int
    r: int
    k: int
    dim_U2: int
    face_dim: int


def face_profile(U: MonomialSubspace) -> FaceProfile:
    """Face data for the face containing Gram points with row space U."""
    sq = square(U)
    return FaceProfile(
        n=U.n,
        d=U.d,
        r=U.dim,
        k=U.codim,
        dim_U2=sq.dim,
        face_dim=face_dim(U.dim, sq.dim),
    )
