"""Named verification suites for the bound and classification theorems.

Every suite turns one cluster of statements into exhaustive desk-scale
checks (plus seeded randomized ones where the statement quantifies over
generic data) and reports a CheckResult per statement.  Each check
registers itself in SUITES where it is defined, and fills a _Tally with
its instances; SUITES feeds both the command line `check` subcommand and
the acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations, product
from math import comb
from operator import mul
from typing import Callable, Iterator

from . import errors
from .errors import InvalidInputError
from .gram import face_gap, face_profile, nonsingular_face_bound, singular_face_dim
from .macaulay import gotzmann_persists, green_restriction_bound, macaulay_growth_bound
from .monomial import (
    _basis_tuples, _power_free, capped_dim, dim_component, expand, monomial_to_text, multiply, pivot
)
from .qlinalg import (
    _echelon,
    _reduced_power,
    _restriction,
    apolar_perp,
    has_base_point,
    hilbert_function_rational,
    initial_subspace,
    linear_multiples,
    product_rational,
    quotient_by_linear_form,
    random_linear_form,
    random_subspace,
    span,
    square_rational,
)
from .search import (
    closed_form_m,
    compute_m,
    compute_m0_monomial,
    main_bound,
    small_subspace_bound,
)
from .stable import (
    enumerate_strongly_stable,
    extend_stable,
    extremal_complement,
    is_strongly_stable,
)
from .subspace import (
    MonomialSubspace,
    ideal_hilbert_function,
    is_base_point_free,
    lift,
    restrict_vars,
    square,
    variable_quotient,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: instances covered, failures, samples."""

    name: str
    passed: bool
    details: str = ""
    checked: int = 0
    resamples: int = 0
    seed: int | None = None

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" [{self.details}]" if self.details else ""
        return f"{mark} {self.name}: {self.checked} instances{extra}"


@dataclass(frozen=True)
class SuiteOptions:
    seed: int = 0
    trials: int = 50


RESAMPLE_TRIES = 100


class _Tally:
    """What one run of a check covered: instances, failures, resamples
    drawn, a note, and the seed once the check draws its rng."""

    def __init__(self, opts: SuiteOptions):
        self.opts = opts
        self.checked = 0
        self.bad: list[str] = []
        self.resamples = 0
        self.note = ""
        self.seed: int | None = None

    def rng(self, name: str) -> random.Random:
        self.seed = self.opts.seed
        return random.Random(f"{self.opts.seed}:{name}")

    def case(self, failure: str | bool = "", count: int = 1) -> None:
        """Count `count` instances; a non-empty `failure` is recorded."""
        self.checked += count
        if failure:
            self.bad.append(failure)

    def fail(self, failure: str) -> None:
        self.bad.append(failure)

    def redraw(self, draw, good, what: str, tries: int = RESAMPLE_TRIES):
        """The first of up to `tries` draws that is good, or None.  Each
        rejected draw is a resample; when all are rejected, a failure
        naming `what` is recorded unless `what` is empty."""
        for _ in range(tries):
            x = draw()
            if good(x):
                return x
            self.resamples += 1
        if what:
            self.fail(f"{what}: all {tries} draws rejected")
        return None

    def result(self, name: str) -> CheckResult:
        """The CheckResult; a check that covered no instance fails."""
        if self.bad:
            details = f"{len(self.bad)} failures, first: {self.bad[0]}"
        elif not self.checked:
            details = "no instances checked"
        else:
            details = self.note
        passed = self.checked > 0 and not self.bad
        return CheckResult(
            name, passed, details, self.checked, self.resamples, self.seed
        )


class _Suite(list):
    """The checks of one suite, in the order they are defined; calling the
    suite runs them."""

    def __call__(self, opts: SuiteOptions) -> list[CheckResult]:
        return [check(opts) for check in self]


SUITES: dict[str, Callable[[SuiteOptions], list[CheckResult]]] = {}


def _check(suite: str, name: str):
    """Register the decorated body as check `name` of `suite`; a suite
    runs its checks in the order they are defined.  The body fills a
    fresh _Tally, and the callable left in its place takes the
    SuiteOptions and returns the CheckResult."""

    def register(body: Callable[[_Tally], None]):
        @wraps(body)
        def check(opts: SuiteOptions) -> CheckResult:
            t = _Tally(opts)
            body(t)
            return t.result(name)

        SUITES.setdefault(suite, _Suite()).append(check)
        return check

    return register


def _free_subspace(t: _Tally, n: int, d: int, k: int, rng: random.Random):
    """A random codimension-k subspace without base points, or None."""
    return t.redraw(
        lambda: random_subspace(n, d, k, rng, bound=9),
        lambda U: not has_base_point(U),
        f"n={n} d={d} k={k}: base point free subspace",
    )


@lru_cache(maxsize=None)
def _stable_family(n_range, d_range, k_max: int) -> tuple[MonomialSubspace, ...]:
    """The strongly stable subspaces for n, d in the ranges and codimension
    1 .. k_max, by n, then d, then codimension; shared by the checks."""
    return tuple(
        U
        for n in n_range
        for d in d_range
        for k in range(1, min(k_max, dim_component(n, d)) + 1)
        for U in enumerate_strongly_stable(n, d, k)
    )


def _subsets(n: int, d: int, pool, sizes) -> Iterator[MonomialSubspace]:
    """Every subspace whose complement is a subset of `pool` of one of the
    `sizes`, size by size, each size in `combinations` order."""
    for k in sizes:
        for comp in combinations(pool, k):
            yield MonomialSubspace._built(n, d, comp)


def _where(U: MonomialSubspace) -> str:
    return f"n={U.n} d={U.d} comp={sorted(map(monomial_to_text, U.complement))}"


# ---------------------------------------------------------------------------
# base lemmas


@_check("base", "base-point-square-codim")
def check_power_complement_square(t: _Tally) -> None:
    """A codimension-1 monomial subspace missing a pure power squares to
    codimension exactly n."""
    for n in range(2, 7):
        for d in range(2, 7):
            for i in range(n):
                power = tuple(d if j == i else 0 for j in range(n))
                c = square(MonomialSubspace(n, d, [power])).codim
                t.case(c != n and f"n={n} d={d} i={i + 1}: codim U^2 = {c}")


@_check("base", "base-point-square-codim-rational")
def check_power_complement_square_rational(t: _Tally) -> None:
    """The same codimension count for non-monomial hyperplanes: the
    orthogonal complement of a power of a generic linear form."""
    rng = t.rng("base-rational")
    for n, d in ((3, 2), (3, 3), (4, 2)):
        for _ in range(5):
            l = random_linear_form(n, rng, bound=5)
            form = [1]  # l^0
            for j in range(1, d + 1):  # l^j = l * l^(j-1)
                form = [sum(map(mul, form, c)) for c in zip(*linear_multiples(l, n, j))]
            U = apolar_perp([form], n, d)
            c = square_rational(U).codim
            t.case(
                (U.codim != 1 or c != n)
                and f"n={n} d={d} l={l}: codim={U.codim}, codim U^2={c}"
            )


@_check("base", "shift-preserves-stability")
def check_shift_stays_stable(t: _Tally) -> None:
    """Multiplying a strongly stable complement by x_1 and padding with
    every monomial using the other variables is again strongly stable."""
    for U in _stable_family(range(2, 5), range(2, 5), 6):
        x1 = (1,) + (0,) * (U.n - 1)
        V = MonomialSubspace(U.n, U.d + 1, [multiply(M, x1) for M in U.complement])
        t.case(not is_strongly_stable(V) and _where(U))


@_check("base", "small-codim-complement-shape")
def check_small_codim_shape(t: _Tally) -> None:
    """For k <= d every excluded monomial is divisible by x_1^(d-k+1);
    for k <= n every excluded monomial uses only x_1 .. x_k."""
    for U in _stable_family(range(2, 5), range(2, 6), 6):
        n, d, k = U.n, U.d, U.codim
        t.case()
        if k <= d:
            need = d - k + 1
            for M in U.complement:
                if M[0] < need:
                    t.fail(f"n={n} d={d} k={k}: {monomial_to_text(M)} lacks x1^{need}")
        if k <= n:
            for M in U.complement:
                if any(M[j] for j in range(k, n)):
                    t.fail(
                        f"n={n} d={d} k={k}: {monomial_to_text(M)} uses x_j with j > k"
                    )


@_check("base", "one-step-extension")
def check_extension_exists(t: _Tally) -> None:
    """Every strongly stable subspace sits inside a strongly stable
    subspace of one dimension more (one codimension less)."""
    for U in _stable_family(range(2, 5), range(2, 5), 6):
        V = extend_stable(U)
        ok = (
            is_strongly_stable(V)
            and V.codim == U.codim - 1
            and V.complement <= U.complement
        )
        t.case(not ok and _where(U))


# ---------------------------------------------------------------------------
# classification of base point free monomial subspaces of codimension 1, 2


@_check("classification", "codim-1-degree-2-value")
def check_codim1_quadrics(t: _Tally) -> None:
    """In degree 2 every base point free monomial subspace of
    codimension 1 squares to codimension exactly 2."""
    for n in range(2, 7):
        for M in _power_free(n, 2):
            c = square(MonomialSubspace(n, 2, [M])).codim
            t.case(c != 2 and f"n={n} M={monomial_to_text(M)}: codim = {c}")


@_check("classification", "codim-1-degree-3-plus-bound")
def check_codim1_higher(t: _Tally) -> None:
    """In degree >= 3 the square of a base point free monomial
    codimension-1 subspace has codimension at most 1."""
    top = 0
    for n in range(2, 7):
        for d in range(3, 9):
            r = compute_m0_monomial(n, d, 1)
            top = max(top, r.value)
            t.case(r.value > 1 and f"n={n} d={d}: max codim = {r.value}", r.searched)
    t.note = f"max over grid = {top}"


@_check("classification", "codim-2-thresholds")
def check_codim2_thresholds(t: _Tally) -> None:
    """Codimension-2 base point free monomial subspaces: the square has
    codimension at most 6 in degree 2, at most 4 in degrees 3 and 4, and
    at most 2 from degree 5 on, with the first two thresholds attained."""
    seen = {}
    for n in range(2, 7):
        for d in range(2, 9):
            if len(_power_free(n, d)) < 2:
                continue
            r = compute_m0_monomial(n, d, 2)
            seen[(n, d)] = r.value
            cap = 6 if d == 2 else 4 if d in (3, 4) else 2
            t.case(
                r.value > cap and f"n={n} d={d}: max codim {r.value} > {cap}", r.searched
            )
            if d == 2 and n >= 3 and r.value != 6:
                t.fail(f"n={n} d=2: threshold 6 not attained, got {r.value}")
            if d in (3, 4) and r.value != 4:
                t.fail(f"n={n} d={d}: threshold 4 not attained, got {r.value}")
    t.note = f"values d=2..8 at n=3: {[seen.get((3, d)) for d in range(2, 9)]}"


_CODIM1_RATIONAL = ((3, 2, {0, 2}), (4, 2, {0, 2}), (3, 3, {0, 1}))


@_check("classification", "codim-1-rational-values")
def check_codim1_rational(t: _Tally) -> None:
    """Random base point free codimension-1 subspaces: the square's
    codimension lies in {0, 2} for degree 2 and in {0, 1} for degree 3."""
    rng = t.rng("classification-rational")
    for n, d, allowed in _CODIM1_RATIONAL:
        for _ in range(max(5, t.opts.trials // 5)):
            U = _free_subspace(t, n, d, 1, rng)
            if U is not None:
                c = square_rational(U).codim
                t.case(
                    c not in allowed
                    and f"n={n} d={d}: codim U^2 = {c} not in {sorted(allowed)}"
                )


# ---------------------------------------------------------------------------
# Hilbert function theorems


@lru_cache(maxsize=None)
def _mixed_family() -> tuple[MonomialSubspace, ...]:
    """Strongly stable subspaces plus every monomial subspace on a tiny
    grid, so the growth checks see non-stable complements too."""
    tiny = ((2, 3, 4), (3, 2, 4), (3, 3, 4))
    return _stable_family(range(2, 5), range(2, 5), 6) + tuple(
        U
        for n, d, k_top in tiny
        for U in _subsets(n, d, _basis_tuples(n, d), range(1, k_top + 1))
    )


@_check("hilbert", "stable-small-codim-hilbert")
def check_stable_hilbert_values(t: _Tally) -> None:
    """Strongly stable with k <= d: the quotient's Hilbert function sits
    at the constant k from degree d on."""
    for U in _stable_family(range(2, 5), range(2, 5), 6):
        n, d, k = U.n, U.d, U.codim
        if k <= d:
            hf = ideal_hilbert_function(U, 2 * d + 1)
            t.case(
                any(hf[i] != k for i in range(d, 2 * d + 2))
                and f"n={n} d={d} k={k}: values {hf.values}"
            )


@_check("hilbert", "growth-bound")
def check_growth_bound(t: _Tally) -> None:
    """Each Hilbert function value bounds the next via the binomial
    shift, from degree 1 on."""
    for U in _mixed_family():
        hf = ideal_hilbert_function(U, 2 * U.d + 1)
        steps = range(1, len(hf) - 1)
        i = next((i for i in steps if hf[i + 1] > macaulay_growth_bound(hf[i], i)), None)
        t.case(i is not None and f"{_where(U)}: degree {i}")


@_check("hilbert", "decreasing-after-crossing")
def check_decreasing_after_crossing(t: _Tally) -> None:
    """Once some degree j satisfies j >= h_j, the Hilbert function never
    increases again."""
    for U in _mixed_family():
        hf = ideal_hilbert_function(U, 2 * U.d + 1)
        start = next((j for j in range(len(hf)) if j >= hf[j]), len(hf))
        tail = hf.values[start:]
        rises = any(a < b for a, b in zip(tail, tail[1:]))
        t.case(rises and f"{_where(U)}: values {hf.values}")


@_check("hilbert", "maximal-growth-persists")
def check_persistence(t: _Tally) -> None:
    """Maximal growth one degree after the generators forces maximal
    growth in every later degree."""
    witnessed = 0
    for U in _mixed_family():
        verdict = gotzmann_persists(ideal_hilbert_function(U, 2 * U.d + 2), U.d)
        t.case(verdict.status == "theorem-violated" and f"{_where(U)}: {verdict}")
        witnessed += verdict.status == "maximal-persistent"
    t.note = f"{witnessed} maximal-growth cases"


@_check("hilbert", "small-codim-next-degree")
def check_small_codim_next_degree(t: _Tally) -> None:
    """k <= d: the value after the generating degree is at most k, and
    hitting k pins the function at k forever and forces a power into the
    complement (a base point on a coordinate axis)."""
    equality_cases = 0
    cells = ((2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3))
    for n, d in cells:
        for U in _subsets(n, d, _basis_tuples(n, d), range(1, d + 1)):
            k = U.codim
            hf = ideal_hilbert_function(U, 2 * d + 2)
            t.case(hf[d + 1] > k and f"{_where(U)}: h_(d+1) = {hf[d + 1]} > {k}")
            if hf[d + 1] == k:
                equality_cases += 1
                if any(hf[i] != k for i in range(d, 2 * d + 3)):
                    t.fail(f"{_where(U)}: not constant, {hf.values}")
                if is_base_point_free(U):
                    t.fail(f"{_where(U)}: maximal yet base point free")
    t.note = f"{equality_cases} equality cases"


@_check("hilbert", "top-degree-bound")
def check_top_degree_bound(t: _Tally) -> None:
    """Base point free with k <= d: in degree 2d-1 the quotient has
    dimension at most 1, and exactly 0 when k < d."""

    def run(U: MonomialSubspace):
        d = U.d
        h = ideal_hilbert_function(U, 2 * d - 1)[2 * d - 1]
        t.case((h > 1 or (U.codim < d and h != 0)) and f"{_where(U)}: h(2d-1) = {h}")

    for n in range(2, 5):
        for d in range(2, 5):
            # (4, 4, 4) is sampled below, the exhaustive family is large
            top = 3 if (n, d) == (4, 4) else d
            for U in _subsets(n, d, _power_free(n, d), range(1, top + 1)):
                run(U)
    rng = t.rng("hilbert-top-degree")
    for n, d in ((4, 4), (3, 5), (4, 5)):
        free = _power_free(n, d)
        for k in range(1, d + 1):
            for _ in range(60):
                run(MonomialSubspace._built(n, d, rng.sample(free, k)))


@_check("hilbert", "full-degree-2d")
def check_full_degree_2d(t: _Tally) -> None:
    """Base point free subspaces reach everything in degree 2d: for
    n >= 3, d >= 3 up to codimension 3d-3, and for d = 2, n >= 4 up to
    codimension 4."""

    def run(U: MonomialSubspace):
        h = ideal_hilbert_function(U, 2 * U.d)[2 * U.d]
        t.case(h != 0 and f"{_where(U)} k={U.codim}: h(2d) = {h}")

    rng = t.rng("hilbert-degree-2d")
    for n, d in ((3, 3), (3, 4), (4, 3)):
        free = _power_free(n, d)
        for U in _subsets(n, d, free, range(1, 3 * d - 2)):
            run(U)
    for n, d in ((4, 4), (3, 5)):
        free = _power_free(n, d)
        for k in range(1, 3 * d - 2):
            for _ in range(100):
                run(MonomialSubspace._built(n, d, rng.sample(free, k)))
    for n in range(4, 7):
        for U in _subsets(n, 2, _power_free(n, 2), range(1, 5)):
            run(U)


# ---------------------------------------------------------------------------
# reduction and expansion combinatorics


def _expansion(U: MonomialSubspace) -> set:
    """The union of the M+ over the complement of U."""
    return set().union(*map(expand, U.complement))


@_check("reduction", "expansion-count")
def check_expansion_count(t: _Tally) -> None:
    """|M+| is pivot(M) - 1 when x_1 divides M and M is not its power,
    n for the pure power, and 0 when x_1 does not divide M."""
    for n in range(2, 5):
        for d in range(2, 6):
            for M in _basis_tuples(n, d):
                up = expand(M)
                if M[0] == 0:
                    ok = not up
                elif pivot(M) == 1:
                    ok = len(up) == n
                else:
                    ok = len(up) == pivot(M) - 1
                t.case(not ok and f"{monomial_to_text(M)}: |M+| = {len(up)}")
                if any(sum(T) != d for T in up):
                    t.fail(f"{monomial_to_text(M)}: degree mismatch in M+")


@_check("reduction", "expansion-union-bound")
def check_expansion_union_bound(t: _Tally) -> None:
    """For strongly stable U of codimension 2 <= k <= n the union of the
    M+ over the complement has at most C(k, 2) + n elements, with
    equality exactly for the canonical extremal complement."""
    for U in _stable_family(range(2, 5), range(2, 6), 6):
        n, d, k = U.n, U.d, U.codim
        if not 2 <= k <= n:
            continue
        size = len(_expansion(U))
        cap = comb(k, 2) + n
        t.case(size > cap and f"{_where(U)}: {size} > {cap}")
        is_extremal = U.complement == frozenset(extremal_complement(n, d, k))
        if (size == cap) != is_extremal:
            t.fail(f"{_where(U)}: union {size}, extremal={is_extremal}")


@_check("reduction", "complement-inside-union")
def check_complement_inside_union(t: _Tally) -> None:
    """The complement of a strongly stable subspace is covered by the
    expansions of its own elements."""
    for U in _stable_family(range(2, 5), range(2, 6), 6):
        t.case(not U.complement <= _expansion(U) and _where(U))


@_check("reduction", "pivot-forces-shape")
def check_pivot_forces_shape(t: _Tally) -> None:
    """A strongly stable subspace of codimension k <= n whose complement
    contains a monomial with pivot k must be the canonical extremal one."""
    for U in _stable_family(range(2, 5), range(2, 6), 6):
        n, d, k = U.n, U.d, U.codim
        if k <= n:
            t.case(
                any(pivot(M) == k for M in U.complement)
                and U.complement != frozenset(extremal_complement(n, d, k))
                and _where(U)
            )


@_check("reduction", "variable-reduction-bound")
def check_variable_reduction(t: _Tally) -> None:
    """When the complement lives in the first m variables, the square's
    codimension is at most (n - m) h'(2d-1) plus the codimension of the
    square inside m variables."""
    for U in _stable_family(range(3, 5), range(2, 4), 6):
        n, d = U.n, U.d
        for m in range(2, n):
            if any(any(M[j] for j in range(m, n)) for M in U.complement):
                continue
            Up = restrict_vars(U, m)
            h = ideal_hilbert_function(Up, 2 * d - 1)[2 * d - 1]
            lhs = square(U).codim
            rhs = (n - m) * h + square(Up).codim
            t.case(lhs > rhs and f"{_where(U)} m={m}: {lhs} > {rhs}")


@_check("reduction", "reduction-value-anchors")
def check_reduction_values(t: _Tally) -> None:
    """Numeric anchors: doubling the variables at k = d adds exactly k^2;
    one extra codimension in k variables costs strictly less than
    C(k+1, 2); the anchor values m(k, k, k) = C(k+2, 3)."""
    for k in (2, 3):
        anchor = compute_m(k, k, k).value
        double = compute_m(2 * k, k, k).value
        t.case(anchor != comb(k + 2, 3) and f"m({k},{k},{k}) = {anchor}")
        t.case(
            double != k * k + anchor and f"m({2 * k},{k},{k}) = {double}, anchor {anchor}"
        )
    for k in (2, 3):
        lhs = compute_m(k, k + 1, k + 1).value
        rhs = comb(k + 2, 3) + comb(k + 1, 2)
        t.case(not lhs < rhs and f"m({k},{k + 1},{k + 1}) = {lhs} not below {rhs}")
    value44 = compute_m(4, 4, 4).value
    t.case(value44 != comb(6, 3) and f"m(4,4,4) = {value44}")


# ---------------------------------------------------------------------------
# initial subspaces


@_check("initial", "initial-square-strict-witness")
def check_initial_strictness(t: _Tally) -> None:
    """The canonical witness where passing to initial monomials grows
    the square: U spanned by all quadratic monomials in three variables
    except x1^2, x2^2, together with x1^2 - x2^2."""
    U = apolar_perp([{(2, 0, 0): 1, (0, 2, 0): 1}], 3, 2)
    t.case(U.codim != 1 and f"codim U = {U.codim}")
    sq = square_rational(U)
    t.case(sq.codim != 2 and f"codim U^2 = {sq.codim}")
    inU = initial_subspace(U)
    t.case(
        inU.complement != {(2, 0, 0)}
        and f"in(U) complement = {sorted(map(monomial_to_text, inU.complement))}"
    )
    in_sq = square(inU)
    t.case(in_sq.codim != 3 and f"codim in(U)^2 = {in_sq.codim}")
    in_of_sq = initial_subspace(sq)
    t.case(in_of_sq.codim != 2 and f"codim in(U^2) = {in_of_sq.codim}")
    if not in_sq.complement >= in_of_sq.complement:
        t.fail("in(U)^2 not inside in(U^2)")


@_check("initial", "initial-square-containment")
def check_initial_containment(t: _Tally) -> None:
    """The square of the initial subspace always sits inside the initial
    subspace of the square."""
    rng = t.rng("initial-containment")
    for n, d in ((3, 2), (3, 3), (2, 3)):
        for codim in (1, 2):
            for _ in range(10):
                U = random_subspace(n, d, codim, rng, bound=7)
                lhs = square(initial_subspace(U))
                rhs = initial_subspace(square_rational(U))
                # containment of spans = reverse containment of complements
                t.case(
                    not lhs.complement >= rhs.complement and f"n={n} d={d} codim={codim}"
                )


@_check("initial", "mixed-basis-hilbert")
def check_mixed_basis_hilbert(t: _Tally) -> None:
    """A five-dimensional span mixing the four cubes with one tied
    binomial: its quotient has the recorded Hilbert function, and one
    lifting step raises the square's codimension by h(2d-1) = 7."""
    cubes4 = [
        {(3, 0, 0, 0): 1},
        {(0, 3, 0, 0): 1},
        {(0, 0, 3, 0): 1},
        {(0, 0, 0, 3): 1},
        {(2, 1, 0, 0): 1, (0, 0, 2, 1): 1},
    ]
    U = span(cubes4, 4, 3)
    hf = hilbert_function_rational(U, 6)
    t.case(hf.values != (1, 4, 10, 15, 15, 7, 1) and f"hilbert values {hf.values}")
    base = square_rational(U).codim
    cubes5 = [{k + (0,): v for k, v in vec.items()} for vec in cubes4]
    extra = linear_multiples([0, 0, 0, 0, 1], 5, 3)
    lifted = square_rational(span(cubes5 + extra, 5, 3)).codim
    t.case(lifted != base + 7 and f"codim went {base} -> {lifted}, expected +7")
    t.note = f"codim U^2 = {base}"


# ---------------------------------------------------------------------------
# randomized generic-linear-form checks


@_check("random", "generic-restriction-bound")
def check_generic_restriction(t: _Tally) -> None:
    """Restricting by a generic linear form obeys the binomial-shift
    bound on the degree-d value."""
    rng = t.rng("green-restriction")
    for _ in range(t.opts.trials):
        n = rng.choice((3, 4))
        d = rng.choice((2, 3))
        k = rng.randint(1, 3)
        U = random_subspace(n, d, k, rng, bound=9)
        bound = green_restriction_bound(k, d)
        t.case()
        # U + l * A_(d-1) has codimension k - codim (U : l) for nonzero l
        t.redraw(
            lambda: random_linear_form(n, rng, bound=9),
            lambda l: k - quotient_by_linear_form(U, l).codim <= bound,
            f"n={n} d={d} k={k}: restriction value at most {bound}",
            tries=6,
        )


@_check("random", "generic-colon-codim")
def check_generic_colon(t: _Tally) -> None:
    """For k <= d and generic l the subspace plus l times the previous
    degree fills the whole degree, and the colon space has codimension
    exactly k."""
    rng = t.rng("green-colon")
    n = 3
    for _ in range(t.opts.trials):
        d = rng.choice((2, 3))
        k = rng.randint(1, d)
        U = random_subspace(n, d, k, rng, bound=9)
        t.case()
        # U + l * A_(d-1) has codimension k - codim (U : l), so it fills
        # the degree exactly when the colon space has codimension k
        t.redraw(
            lambda: random_linear_form(n, rng, bound=9),
            lambda l: quotient_by_linear_form(U, l).codim == k,
            f"n={n} d={d} k={k}: generic form",
            tries=6,
        )


@_check("random", "generic-image-dimension")
def check_generic_image_dim(t: _Tally) -> None:
    """A k-dimensional span with k < n keeps dimension k after passing
    to the quotient by a generic linear form."""
    rng = t.rng("green-image")
    for _ in range(t.opts.trials):
        n = rng.choice((3, 4))
        d = rng.choice((2, 3))
        k = rng.randint(1, n - 1)
        vectors = [
            [rng.randint(-9, 9) for _ in range(dim_component(n, d))] for _ in range(k)
        ]
        W = span(vectors, n, d)
        if W.dim != k:
            t.resamples += 1
            continue
        t.case()
        # W meets l * A_(d-1) in l * (W : l)
        t.redraw(
            lambda: random_linear_form(n, rng, bound=9),
            lambda l: quotient_by_linear_form(W, l).dim == 0,
            f"n={n} d={d} k={k}: image of dimension {k}",
            tries=6,
        )


@_check("random", "colon-degree-reduction")
def check_colon_degree_reduction(t: _Tally) -> None:
    """Base point free, k <= d: the square's codimension is at most the
    codimension of U (U : l); for k <= d - 1 also at most that of
    (U : l)^2."""
    rng = t.rng("degree-reduction")
    n = 3
    for _ in range(t.opts.trials):
        d = rng.choice((3, 4))
        k = rng.randint(1, 2)
        U = _free_subspace(t, n, d, k, rng)
        if U is None:
            continue
        V = t.redraw(
            lambda: quotient_by_linear_form(U, random_linear_form(n, rng, bound=9)),
            lambda V: V.codim == k,
            f"n={n} d={d} k={k}: colon space of codim {k}",
        )
        if V is None:
            continue
        cU2 = square_rational(U).codim
        cUV = product_rational(U, V).codim
        cV2 = square_rational(V).codim
        t.case(cU2 > cUV and f"n={n} d={d} k={k}: codim U^2 = {cU2} > codim UV = {cUV}")
        if k <= d - 1 and cU2 > cV2:
            t.fail(f"n={n} d={d} k={k}: codim U^2 = {cU2} > codim V^2 = {cV2}")


@_check("random", "colon-base-point-example")
def check_colon_base_point_example(t: _Tally) -> None:
    """The colon space can pick up a base point even when the original
    subspace has none: the perp of {x^2 y, x^2 z, x y^2} in degree 3."""
    rng = t.rng("colon-example")
    W = [{(2, 1, 0): 1}, {(2, 0, 1): 1}, {(1, 2, 0): 1}]
    U = apolar_perp(W, 3, 3)
    # the annihilator is spanned by power-free monomials, so U is base
    # point free: a power of a linear form supported on r variables
    # always involves pure-power monomials
    V = t.redraw(
        lambda: quotient_by_linear_form(U, random_linear_form(3, rng, bound=9)),
        lambda V: V.dim == 3,
        "colon space of dimension 3",
    )
    if V is None:
        return
    t.case(U.codim != 3 and f"codim U = {U.codim}")
    t.case(not V.contains({(0, 1, 1): 1}) and "yz missing from the colon space")
    t.case(not V.contains({(0, 0, 2): 1}) and "z^2 missing from the colon space")
    # the forms of V that vanish on z = 0 are z * (V : z)
    rank = V.dim - quotient_by_linear_form(V, [0, 0, 1]).dim
    # rank <= 1 means the colon space restricted to the line z = 0 is a
    # single binary quadric, which always has a projective zero: a base
    # point of the colon space
    t.case(rank > 1 and f"restriction to z = 0 has rank {rank}")


@_check("random", "quadric-pencil-hilbert")
def check_quadric_pencil_hilbert(t: _Tally) -> None:
    """Base point free of codimension 2 in degree 2: the quotient's
    Hilbert function is (1, n, 2) and vanishes afterwards."""
    rng = t.rng("quadric-pencil")
    for _ in range(t.opts.trials):
        n = rng.choice((3, 4, 5))
        U = _free_subspace(t, n, 2, 2, rng)
        if U is not None:
            hf = hilbert_function_rational(U, 4)
            t.case(hf.values != (1, n, 2, 0, 0) and f"n={n}: values {hf.values}")


# ---------------------------------------------------------------------------
# lifting


@_check("lifting", "lift-hilbert-values")
def check_lift_hilbert(t: _Tally) -> None:
    """Adding l fresh variables leaves the quotient's Hilbert function
    unchanged from the generating degree on, and makes it full below."""
    for U in _stable_family(range(2, 5), range(2, 5), 6):
        n, d = U.n, U.d
        hfU = ideal_hilbert_function(U, 2 * d + 1)
        for l in range(1, 4):
            hfL = ideal_hilbert_function(lift(U, l), 2 * d + 1)
            wrong = next(
                (
                    i
                    for i in range(2 * d + 2)
                    if hfL[i] != (dim_component(n + l, i) if i < d else hfU[i])
                ),
                None,
            )
            t.case(wrong is not None and f"{_where(U)} l={l} deg={wrong}")


@_check("lifting", "lift-square-increment")
def check_lift_square_increment(t: _Tally) -> None:
    """Each fresh variable raises the square's codimension by exactly
    the degree 2d-1 value of the quotient's Hilbert function."""
    for U in _stable_family(range(2, 5), range(2, 5), 6):
        h = ideal_hilbert_function(U, 2 * U.d - 1)[2 * U.d - 1]
        base = square(U).codim
        for l in range(1, 4):
            value = square(lift(U, l)).codim
            t.case(
                value != base + l * h and f"{_where(U)} l={l}: {value} != {base} + {l}*{h}"
            )


@_check("lifting", "lift-preserves-small-codim")
def check_lift_small_codim(t: _Tally) -> None:
    """Base point free of codimension 1 or 2 keeps the codimension of
    its square under lifting."""
    for n in (2, 3):
        for d in (2, 3):
            for U in _subsets(n, d, _power_free(n, d), (1, 2)):
                base = square(U).codim
                for l in (1, 2):
                    value = square(lift(U, l)).codim
                    t.case(value != base and f"{_where(U)} l={l}: {value} != {base}")


@_check("lifting", "colon-square-monotone")
def check_colon_square_monotone(t: _Tally) -> None:
    """Strongly stable with k <= d - 1: dividing by x_1 cannot increase
    the codimension of the square."""
    for U in _stable_family(range(2, 5), range(2, 5), 6):
        if U.codim <= U.d - 1:
            V = variable_quotient(U, 1)
            t.case(square(V).codim > square(U).codim and _where(U))


@_check("lifting", "extremal-chain")
def check_extremal_chain(t: _Tally) -> None:
    """Multiplying the extremal witness by x_1 and padding keeps it the
    maximizer one degree up, so the bound is degree-independent."""
    for n in range(2, 5):
        for k in range(1, min(n, 3) + 1):
            comp = compute_m(n, k, k).witnesses[0].complement
            x1 = (1,) + (0,) * (n - 1)
            for d in (k + 1, k + 2):
                comp = frozenset(multiply(M, x1) for M in comp)
                value = square(MonomialSubspace(n, d, comp)).codim
                target = compute_m(n, d, k).value
                t.case(
                    (value != target or value != closed_form_m(n, d, k))
                    and f"n={n} k={k} d={d}: chain value {value}, max {target}"
                )


# ---------------------------------------------------------------------------
# dimension bounds for squares


@_check("bounds", "minimal-square-dimension")
def check_minimal_square_dimension(t: _Tally) -> None:
    """Base point free of dimension r: the square has dimension at least
    nr - C(n, 2), with equality for the span of the pure powers."""
    for n, d in ((3, 2), (3, 3), (2, 4)):
        free = _power_free(n, d)
        for U in _subsets(n, d, free, range(len(free) + 1)):
            dim_sq = dim_component(n, 2 * d) - square(U).codim
            low = dim_sq < small_subspace_bound(n, U.dim)
            t.case(low and f"{_where(U)}: dim U^2 = {dim_sq}")
    for n in range(2, 6):
        for d in range(2, 6):
            U = MonomialSubspace(n, d, _power_free(n, d))
            dim_sq = dim_component(n, 2 * d) - square(U).codim
            t.case(
                dim_sq != small_subspace_bound(n, n)
                and f"pure powers n={n} d={d}: dim U^2 = {dim_sq}"
            )


@_check("bounds", "m0-upper-bound")
def check_m0_upper_bound(t: _Tally) -> None:
    """The aggregate bound on the base point free maximum in terms of
    ambient dimensions."""
    for n in (3, 4):
        for d in (2, 3):
            for k in (1, 2):
                cap = (
                    dim_component(n, 2 * d)
                    + comb(n, 2)
                    + n * k
                    - n * dim_component(n, d)
                )
                value = compute_m0_monomial(n, d, k).value
                t.case(value > cap and f"n={n} d={d} k={k}: {value} > {cap}")


@_check("bounds", "independent-bound")
def check_independent_bound(t: _Tally) -> None:
    """Base point free with k <= d - 1: the square's codimension never
    exceeds k^2 + C(k+2, 3), independently of n.  For n <= 4 every
    subspace searched for the maximum counts as an instance."""
    for n in range(2, 5):
        for d in range(2, 5):
            for k in range(1, min(d - 1, 4, len(_power_free(n, d))) + 1):
                r = compute_m0_monomial(n, d, k)
                top = main_bound(k)
                t.case(r.value > top and f"n={n} d={d} k={k}: {r.value} > {top}", r.searched)
    for n in (5, 6):
        for d in range(3, 9):
            for k in (1, 2):
                value = compute_m0_monomial(n, d, k).value
                top = main_bound(k)
                t.case(value > top and f"n={n} d={d} k={k}: {value} > {top}")


@_check("bounds", "singular-beats-free")
def check_singular_beats_free(t: _Tally) -> None:
    """With base points the extremal codimension C(k+2,3) + (n-k)k grows
    linearly in n (at least kn), while the base point free bound does
    not move: the closed forms separate for every n, d >= k."""
    for k in range(1, 7):
        for n in range(k, 10):
            value = closed_form_m(n, k, k)
            t.case(value < k * n and f"n={n} k={k}: {value} < {k * n}")


# ---------------------------------------------------------------------------
# Gram face dimensions


@_check("gram", "face-bound-values")
def check_face_bound_values(t: _Tally) -> None:
    """Hand-computed corank-1 face bounds for ternary quadrics and
    cubics."""
    for (n, d, k), want in (((3, 2, 1), 2), ((3, 3, 1), 19)):
        got = nonsingular_face_bound(n, d, k)
        t.case(got != want and f"({n},{d},{k}): {got}")


@_check("gram", "face-gap-growth")
def check_face_gap_growth(t: _Tally) -> None:
    """For quartics at corank 2 the singular face gains 2n - 8 dimensions
    over any non-singular face: positive and increasing from n = 5."""
    gaps = [face_gap(n, 4, 2) for n in range(5, 11)]
    for n, g in zip(range(5, 11), gaps):
        t.case(g != 2 * n - 8 and f"n={n}: gap {g}")
    if not all(a < b for a, b in zip(gaps, gaps[1:])):
        t.fail(f"not increasing: {gaps}")
    if gaps[0] <= 0:
        t.fail(f"not positive at n=5: {gaps[0]}")
    t.note = f"gaps {gaps}"


@_check("gram", "face-profile-consistency")
def check_face_profile_consistency(t: _Tally) -> None:
    """The face dimension computed from an explicit extremal witness
    agrees with the closed-form singular face dimension."""
    for n, d, k in ((3, 3, 1), (3, 3, 2), (3, 4, 2), (4, 3, 2)):
        profile = face_profile(MonomialSubspace(n, d, extremal_complement(n, d, k)))
        want = singular_face_dim(n, d, k)
        t.case(
            profile.face_dim != want
            and f"(n,d,k)=({n},{d},{k}): profile {profile.face_dim} != formula {want}"
        )


# ---------------------------------------------------------------------------
# power-free restriction conjecture


def _shape_power_times_variables(W: tuple, n: int, d: int) -> bool:
    """Whether W is x_a^(d-1) times a set of distinct other variables.

    W holds distinct degree-d monomials, so this is whether they all have
    the exponent d - 1 at some x_a.
    """
    return any(all(M[a] == d - 1 for M in W) for a in range(n))


def _scan_size(n: int, d: int, k: int) -> int:
    """The coefficients of one try at every span of a cell: C(P, k) spans
    of the P power-free monomials, dim A_d per member."""
    q = capped_dim(n, d, errors.DEFAULT_BUDGET)
    return errors.capped_comb(q - n, k, errors.DEFAULT_BUDGET) * q


def conjecture_scan(
    n_values, d_values, k_values, trials: int = 4, seed: int = 0
) -> list[CheckResult]:
    """Restriction by a generic linear form should keep a power-free
    monomial span power-free, except for the known exceptional shape
    x_a^(d-1) * (variables) at n = k + 1.

    Exact for k <= 2 via the rank-one test of each restricted member's
    catalecticant along one pivot entry; a cell where some span violates
    this reports a failing CheckResult; a span of the exceptional shape is
    excused before its two tries.  A grid with no cell to scan is refused,
    since a scan of no cell passes nothing, and so is a cell whose `trials`
    tries hold more coefficients than the default budget.
    """
    grid = product(n_values, d_values, k_values)
    cells = [(n, d, k) for n, d, k in grid if 1 <= k <= min(d - 1, n - 1, 2) and n >= 3]
    if not cells:
        raise InvalidInputError("no cells to scan: need 1 <= k <= min(d-1, n-1, 2) and n >= 3")
    for n, d, k in cells:
        what = f"coefficients in {trials} tries at the spans of n={n}, d={d}, k={k}"
        errors.check_size(trials * _scan_size(n, d, k), what)
    out = []
    for n, d, k in cells:
        t = _Tally(SuiteOptions(seed=seed))
        rng = t.rng(f"conjecture:{n}:{d}:{k}")
        for W in combinations(_power_free(n, d), k):

            def restrict() -> list:
                l = [rng.randint(-9, 9) for _ in range(n - 1)]
                l.append(rng.choice((1, -1)) * rng.randint(1, 9))
                # echelon rows of the restricted span, built once
                return _echelon([_restriction({M: 1}, n, d, l)[0] for M in W], 3)[0]

            t.case()
            excused = n == k + 1 and _shape_power_times_variables(W, n, d)
            restricted = t.redraw(
                restrict,
                lambda rows: len(rows) == k and not _reduced_power(rows, n - 1, d),
                "",
                tries=2 if excused else max(2, trials),
            )
            if restricted is None and not excused:
                names = ",".join(map(monomial_to_text, W))
                t.fail(f"span({names}) restricted to a power every time")
        out.append(t.result(f"restriction-power-free-n{n}-d{d}-k{k}"))
    return out


_CONJECTURE_GRID = ((3, 4), (3, 4, 5), (1, 2))


def _conjecture_suite(opts: SuiteOptions) -> list[CheckResult]:
    return conjecture_scan(*_CONJECTURE_GRID, trials=max(4, opts.trials // 10), seed=opts.seed)


SUITES["conjecture"] = _conjecture_suite


def _square_size(n: int, d: int) -> int:
    """The coefficients of the C(q + 1, 2) products that span (A_d)^2, q = dim A_d."""
    q = dim_component(n, d)
    return comb(q + 1, 2) * dim_component(n, 2 * d)


# the coefficients one trial may build in each suite that reads `trials`:
# squares of A_d at the cells of codim-1-rational-values (a fifth of the
# trials) and at each random check's largest; the spans of the conjecture grid
_TRIAL_SIZE = {
    "classification": sum(_square_size(n, d) for n, d, _ in _CODIM1_RATIONAL) // 5,
    "random": sum(map(_square_size, (4, 4, 3, 3, 5), (3, 3, 3, 4, 2))),
    "conjecture": sum(_scan_size(*cell) for cell in product(*_CONJECTURE_GRID)) // 10,
}


# ---------------------------------------------------------------------------


def run_suites(names: list[str], opts: SuiteOptions | None = None) -> list[CheckResult]:
    """The results of the named suites, in order; naming none is refused,
    since a run of no check passes nothing, and so is a trial count whose
    trials of a named suite may build more coefficients than the default
    budget (`_TRIAL_SIZE`); every suite is weighed before any runs."""
    opts = opts or SuiteOptions()
    known = ", ".join(sorted(SUITES))
    if not names:
        raise InvalidInputError(f"no suite named; known: {known}")
    for name in names:
        if name not in SUITES:
            raise InvalidInputError(f"unknown suite {name!r}; known: {known}")
        size = opts.trials * _TRIAL_SIZE.get(name, 0)
        errors.check_size(size, f"coefficients in {opts.trials} trials of the {name} suite")
    return [r for name in names for r in SUITES[name](opts)]
