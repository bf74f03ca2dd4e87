"""Binomial expansions of integers and the growth bounds built from them.

Every a >= 0 has a unique expansion a = sum_j C(k_j, j) for j = d..1 with
k_d > k_{d-1} > ... > k_1 >= 0 once zero terms are pinned to k_j = j - 1.
Shifting the expansion up or down yields the classical bounds on Hilbert
function growth and on restriction to a general hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InvalidInputError


def binom(a: int, b: int) -> int:
    """C(a, b), zero outside the triangle 0 <= b <= a."""
    if b < 0 or a < 0 or a < b:
        return 0
    return comb(a, b)


@dataclass(frozen=True)
class MacaulayRep:
    """Expansion of an integer in binomials of descending lower index.

    coeffs[i] is k_{d-i}, so coeffs runs from the C(k_d, d) term down to
    the C(k_1, 1) term and always has length `degree`.
    """

    value: int
    degree: int
    coeffs: tuple[int, ...]

    def terms(self) -> list[tuple[int, int]]:
        """(k_j, j) pairs from j = degree down to 1."""
        return [(k, self.degree - i) for i, k in enumerate(self.coeffs)]


def macaulay_rep(a: int, d: int) -> MacaulayRep:
    """The unique expansion of a in binomials C(k_j, j), j = d..1."""
    if a < 0:
        raise InvalidInputError(f"need a >= 0, got {a}")
    if d < 1:
        raise InvalidInputError(f"need d >= 1, got {d}")
    remaining = a
    coeffs = []
    prev = None
    for j in range(d, 0, -1):
        if remaining == 0:
            coeffs.append(j - 1)
            continue
        k = j - 1
        while binom(k + 1, j) <= remaining and (prev is None or k + 1 < prev):
            k += 1
        coeffs.append(k)
        remaining -= binom(k, j)
        prev = k
    if remaining != 0:
        raise InvalidInputError(f"expansion of {a} in degree {d} did not terminate")
    return MacaulayRep(a, d, tuple(coeffs))


def macaulay_value(rep: MacaulayRep) -> int:
    return sum(binom(k, j) for k, j in rep.terms())


def macaulay_shift(rep: MacaulayRep, s: int, t: int) -> int:
    """sum of C(k_j + s, j + t) over the terms of the expansion.

    Terms with j + t < 0 or k_j + s < 0 contribute zero.
    """
    return sum(binom(k + s, j + t) for k, j in rep.terms())


def macaulay_growth_bound(h: int, i: int) -> int:
    """Largest value the next Hilbert function entry can take after h in degree i."""
    if i < 1:
        raise InvalidInputError(f"need degree i >= 1, got {i}")
    return macaulay_shift(macaulay_rep(h, i), 1, 1)


def green_restriction_bound(h: int, d: int) -> int:
    """Upper bound for the degree-d entry after restricting to a general hyperplane."""
    if d < 1:
        raise InvalidInputError(f"need degree d >= 1, got {d}")
    return macaulay_shift(macaulay_rep(h, d), -1, 0)


@dataclass(frozen=True)
class HilbertFunction:
    """Values h_0, h_1, ... of the quotient by an ideal generated in one
    degree, starting at degree 0; both subspace kinds build it through the
    one degree loop `subspace._hilbert_function`."""

    values: tuple[int, ...]
    generated_in_degree: int

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PersistenceVerdict:
    """Outcome of checking maximal growth followed by forced maximal growth.

    status is one of:
      not-maximal        growth at the checked degree is below the bound,
                         so the persistence statement does not apply;
      maximal-persistent growth is maximal there and stays maximal for
                         every later recorded degree;
      theorem-violated   growth is maximal there but drops below the bound
                         at first_failure, which no ideal can do.
    """

    status: str
    degree: int
    first_failure: int | None = None

    def __bool__(self) -> bool:
        return self.status == "maximal-persistent"


def gotzmann_persists(hf: HilbertFunction, d: int) -> PersistenceVerdict:
    """Check maximal growth at degree d and its persistence afterwards."""
    if d < 1 or d + 1 >= len(hf.values):
        raise InvalidInputError(
            f"need recorded values beyond degree d={d}, have {len(hf.values)}"
        )
    if d < hf.generated_in_degree:
        raise InvalidInputError(
            f"degree {d} is below the generating degree {hf.generated_in_degree}"
        )
    if hf.values[d + 1] != macaulay_growth_bound(hf.values[d], d):
        return PersistenceVerdict("not-maximal", d)
    for i in range(d + 1, len(hf.values) - 1):
        if hf.values[i + 1] != macaulay_growth_bound(hf.values[i], i):
            return PersistenceVerdict("theorem-violated", d, first_failure=i + 1)
    return PersistenceVerdict("maximal-persistent", d)
