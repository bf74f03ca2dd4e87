"""Named verification suites for the bound and classification theorems.

Every suite turns one cluster of statements into exhaustive desk-scale
checks (plus seeded randomized ones where the statement quantifies over
generic data) and reports a CheckResult per statement.  The registry at
the bottom feeds both the command line `check` subcommand and the
acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb

from .errors import InvalidInputError
from .gram import face_gap, face_profile, nonsingular_face_bound, singular_face_dim
from .macaulay import gotzmann_persists, green_restriction_bound, macaulay_growth_bound
from .monomial import (
    Monomial, _basis_tuples, _power_free, dim_component, expand, multiply, pivot
)
from .qlinalg import (
    apolar_perp,
    eliminate_variable,
    has_base_point,
    hilbert_function_rational,
    initial_subspace,
    linear_multiples,
    multiply_forms,
    power_in_span,
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


def _done(name: str, bad: list, checked: int, note: str = "", **kw) -> CheckResult:
    """Result of a check; one that covered no instance fails."""
    if bad:
        details = f"{len(bad)} failures, first: {bad[0]}"
    elif not checked:
        details = "no instances checked"
    else:
        details = note
    return CheckResult(name, checked > 0 and not bad, details, checked, **kw)


def _rng(opts: SuiteOptions, name: str) -> random.Random:
    return random.Random(f"{opts.seed}:{name}")


RESAMPLE_TRIES = 100


def _redraw(draw, good, bad: list, what: str):
    """The first of up to RESAMPLE_TRIES draws that is good, and the number
    of draws rejected before it.  When none is, a failure naming `what`
    goes to `bad` and the draw is None."""
    for rejected in range(RESAMPLE_TRIES):
        x = draw()
        if good(x):
            return x, rejected
    bad.append(f"{what}: all {RESAMPLE_TRIES} draws rejected")
    return None, RESAMPLE_TRIES


def _free_subspace(n: int, d: int, k: int, rng: random.Random, bad: list):
    """A random codimension-k subspace without base points, via _redraw."""
    return _redraw(
        lambda: random_subspace(n, d, k, rng, bound=9),
        lambda U: not has_base_point(U),
        bad,
        f"n={n} d={d} k={k}: base point free subspace",
    )


def _stable_family(n_range, d_range, k_max: int):
    for n in n_range:
        for d in d_range:
            top = min(k_max, dim_component(n, d))
            for k in range(1, top + 1):
                for U in enumerate_strongly_stable(n, d, k):
                    yield U


# ---------------------------------------------------------------------------
# base lemmas


def check_power_complement_square() -> CheckResult:
    """A codimension-1 monomial subspace missing a pure power squares to
    codimension exactly n."""
    bad = []
    checked = 0
    for n in range(2, 7):
        for d in range(2, 7):
            for i in range(n):
                power = tuple(d if j == i else 0 for j in range(n))
                c = square(MonomialSubspace(n, d, [power])).codim
                checked += 1
                if c != n:
                    bad.append(f"n={n} d={d} i={i + 1}: codim U^2 = {c}")
    return _done("base-point-square-codim", bad, checked)


def check_power_complement_square_rational(opts: SuiteOptions) -> CheckResult:
    """The same codimension count for non-monomial hyperplanes: the
    orthogonal complement of a power of a generic linear form."""
    rng = _rng(opts, "base-rational")
    bad = []
    checked = 0
    for n, d in ((3, 2), (3, 3), (4, 2)):
        for _ in range(5):
            l = random_linear_form(n, rng, bound=5)
            form = reduce(multiply_forms, [linear_multiples(l, n, 1)[0]] * d)  # l^d
            U = apolar_perp([form], n, d)
            c = square_rational(U).codim
            checked += 1
            if U.codim != 1 or c != n:
                bad.append(f"n={n} d={d} l={l}: codim={U.codim}, codim U^2={c}")
    return _done(
        "base-point-square-codim-rational", bad, checked, seed=opts.seed
    )


def check_shift_stays_stable() -> CheckResult:
    """Multiplying a strongly stable complement by x_1 and padding with
    every monomial using the other variables is again strongly stable."""
    bad = []
    checked = 0
    for U in _stable_family(range(2, 5), range(2, 5), 6):
        x1 = (1,) + (0,) * (U.n - 1)
        V = MonomialSubspace(U.n, U.d + 1, [multiply(M, x1) for M in U.complement])
        checked += 1
        if not is_strongly_stable(V):
            bad.append(f"n={U.n} d={U.d} comp={sorted(U.complement)}")
    return _done("shift-preserves-stability", bad, checked)


def check_small_codim_shape() -> CheckResult:
    """For k <= d every excluded monomial is divisible by x_1^(d-k+1);
    for k <= n every excluded monomial uses only x_1 .. x_k."""
    bad = []
    checked = 0
    for U in _stable_family(range(2, 5), range(2, 6), 6):
        n, d, k = U.n, U.d, U.codim
        checked += 1
        if k <= d:
            need = d - k + 1
            for M in U.complement:
                if M[0] < need:
                    bad.append(f"n={n} d={d} k={k}: {Monomial(M).to_text()} lacks x1^{need}")
        if k <= n:
            for M in U.complement:
                if any(M[j] for j in range(k, n)):
                    bad.append(
                        f"n={n} d={d} k={k}: {Monomial(M).to_text()} uses x_j with j > k"
                    )
    return _done("small-codim-complement-shape", bad, checked)


def check_extension_exists() -> CheckResult:
    """Every strongly stable subspace sits inside a strongly stable
    subspace of one dimension more (one codimension less)."""
    bad = []
    checked = 0
    for U in _stable_family(range(2, 5), range(2, 5), 6):
        V = extend_stable(U)
        checked += 1
        ok = (
            is_strongly_stable(V)
            and V.codim == U.codim - 1
            and V.complement <= U.complement
        )
        if not ok:
            bad.append(f"n={U.n} d={U.d} comp={sorted(U.complement)}")
    return _done("one-step-extension", bad, checked)


def suite_base(opts: SuiteOptions) -> list[CheckResult]:
    return [
        check_power_complement_square(),
        check_power_complement_square_rational(opts),
        check_shift_stays_stable(),
        check_small_codim_shape(),
        check_extension_exists(),
    ]


# ---------------------------------------------------------------------------
# classification of base point free monomial subspaces of codimension 1, 2


def check_codim1_quadrics() -> CheckResult:
    """In degree 2 every base point free monomial subspace of
    codimension 1 squares to codimension exactly 2."""
    bad = []
    checked = 0
    for n in range(2, 7):
        for M in _power_free(n, 2):
            c = square(MonomialSubspace(n, 2, [M])).codim
            checked += 1
            if c != 2:
                bad.append(f"n={n} M={Monomial(M).to_text()}: codim = {c}")
    return _done("codim-1-degree-2-value", bad, checked)


def check_codim1_higher() -> CheckResult:
    """In degree >= 3 the square of a base point free monomial
    codimension-1 subspace has codimension at most 1."""
    bad = []
    values = {}
    checked = 0
    for n in range(2, 7):
        for d in range(3, 9):
            r = compute_m0_monomial(n, d, 1)
            values[(n, d)] = r.value
            checked += r.searched
            if r.value > 1:
                bad.append(f"n={n} d={d}: max codim = {r.value}")
    top = max(values.values())
    return _done("codim-1-degree-3-plus-bound", bad, checked, note=f"max over grid = {top}")


def check_codim2_thresholds() -> CheckResult:
    """Codimension-2 base point free monomial subspaces: the square has
    codimension at most 6 in degree 2, at most 4 in degrees 3 and 4, and
    at most 2 from degree 5 on, with the first two thresholds attained."""
    bad = []
    checked = 0
    seen = {}
    for n in range(2, 7):
        for d in range(2, 9):
            if len(_power_free(n, d)) < 2:
                continue
            r = compute_m0_monomial(n, d, 2)
            checked += r.searched
            seen[(n, d)] = r.value
            cap = 6 if d == 2 else 4 if d in (3, 4) else 2
            if r.value > cap:
                bad.append(f"n={n} d={d}: max codim {r.value} > {cap}")
            if d == 2 and n >= 3 and r.value != 6:
                bad.append(f"n={n} d=2: threshold 6 not attained, got {r.value}")
            if d in (3, 4) and r.value != 4:
                bad.append(f"n={n} d={d}: threshold 4 not attained, got {r.value}")
    return _done(
        "codim-2-thresholds",
        bad,
        checked,
        note=f"values d=2..8 at n=3: {[seen.get((3, d)) for d in range(2, 9)]}",
    )


def check_codim1_rational(opts: SuiteOptions) -> CheckResult:
    """Random base point free codimension-1 subspaces: the square's
    codimension lies in {0, 2} for degree 2 and in {0, 1} for degree 3."""
    rng = _rng(opts, "classification-rational")
    bad = []
    checked = 0
    resamples = 0
    for n, d, allowed in ((3, 2, {0, 2}), (4, 2, {0, 2}), (3, 3, {0, 1})):
        for _ in range(max(5, opts.trials // 5)):
            U, rejected = _free_subspace(n, d, 1, rng, bad)
            resamples += rejected
            if U is None:
                continue
            c = square_rational(U).codim
            checked += 1
            if c not in allowed:
                bad.append(f"n={n} d={d}: codim U^2 = {c} not in {sorted(allowed)}")
    return _done(
        "codim-1-rational-values", bad, checked, resamples=resamples, seed=opts.seed
    )


def suite_classification(opts: SuiteOptions) -> list[CheckResult]:
    return [
        check_codim1_quadrics(),
        check_codim1_higher(),
        check_codim2_thresholds(),
        check_codim1_rational(opts),
    ]


# ---------------------------------------------------------------------------
# Hilbert function theorems


def _mixed_subspace_family():
    """Strongly stable subspaces plus every monomial subspace on a tiny
    grid, so the growth checks see non-stable complements too."""
    for U in _stable_family(range(2, 5), range(2, 5), 6):
        yield U
    for n, d, k_top in ((2, 3, 4), (3, 2, 4), (3, 3, 4)):
        basis = _basis_tuples(n, d)
        for k in range(1, k_top + 1):
            for comp in combinations(basis, k):
                yield MonomialSubspace(n, d, comp)


def check_stable_hilbert_values() -> CheckResult:
    """Strongly stable with k <= d: the quotient's Hilbert function sits
    at the constant k from degree d on."""
    bad = []
    checked = 0
    for U in _stable_family(range(2, 5), range(2, 5), 6):
        n, d, k = U.n, U.d, U.codim
        if k > d:
            continue
        hf = ideal_hilbert_function(U, 2 * d + 1)
        checked += 1
        if any(hf[t] != k for t in range(d, 2 * d + 2)):
            bad.append(f"n={n} d={d} k={k}: values {hf.values}")
    return _done("stable-small-codim-hilbert", bad, checked)


def check_growth_bound() -> CheckResult:
    """Each Hilbert function value bounds the next via the binomial
    shift, from degree 1 on."""
    bad = []
    checked = 0
    for U in _mixed_subspace_family():
        hf = ideal_hilbert_function(U, 2 * U.d + 1)
        checked += 1
        for i in range(1, len(hf) - 1):
            if hf[i + 1] > macaulay_growth_bound(hf[i], i):
                bad.append(f"n={U.n} d={U.d} comp={sorted(U.complement)}: degree {i}")
                break
    return _done("growth-bound", bad, checked)


def check_decreasing_after_crossing() -> CheckResult:
    """Once some degree j satisfies j >= h_j, the Hilbert function never
    increases again."""
    bad = []
    checked = 0
    for U in _mixed_subspace_family():
        hf = ideal_hilbert_function(U, 2 * U.d + 1)
        checked += 1
        start = next((j for j in range(len(hf)) if j >= hf[j]), None)
        if start is None:
            continue
        tail = hf.values[start:]
        if any(a < b for a, b in zip(tail, tail[1:])):
            bad.append(f"n={U.n} d={U.d} comp={sorted(U.complement)}: values {hf.values}")
    return _done("decreasing-after-crossing", bad, checked)


def check_persistence() -> CheckResult:
    """Maximal growth one degree after the generators forces maximal
    growth in every later degree."""
    bad = []
    checked = 0
    witnessed = 0
    for U in _mixed_subspace_family():
        hf = ideal_hilbert_function(U, 2 * U.d + 2)
        verdict = gotzmann_persists(hf, U.d)
        checked += 1
        if verdict.status == "theorem-violated":
            bad.append(f"n={U.n} d={U.d} comp={sorted(U.complement)}: {verdict}")
        elif verdict.status == "maximal-persistent":
            witnessed += 1
    return _done(
        "maximal-growth-persists", bad, checked, note=f"{witnessed} maximal-growth cases"
    )


def check_small_codim_next_degree() -> CheckResult:
    """k <= d: the value after the generating degree is at most k, and
    hitting k pins the function at k forever and forces a power into the
    complement (a base point on a coordinate axis)."""
    bad = []
    checked = 0
    equality_cases = 0
    cells = ((2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3))
    for n, d in cells:
        basis = _basis_tuples(n, d)
        for k in range(1, d + 1):
            for comp in combinations(basis, k):
                U = MonomialSubspace(n, d, comp)
                hf = ideal_hilbert_function(U, 2 * d + 2)
                checked += 1
                if hf[d + 1] > k:
                    bad.append(f"n={n} d={d} comp={comp}: h_(d+1) = {hf[d + 1]} > {k}")
                    continue
                if hf[d + 1] == k:
                    equality_cases += 1
                    if any(hf[t] != k for t in range(d, 2 * d + 3)):
                        bad.append(f"n={n} d={d} comp={comp}: not constant, {hf.values}")
                    if is_base_point_free(U):
                        bad.append(f"n={n} d={d} comp={comp}: maximal yet base point free")
    return _done(
        "small-codim-next-degree", bad, checked, note=f"{equality_cases} equality cases"
    )


def check_top_degree_bound(opts: SuiteOptions) -> CheckResult:
    """Base point free with k <= d: in degree 2d-1 the quotient has
    dimension at most 1, and exactly 0 when k < d."""
    bad = []
    checked = 0

    def run(U: MonomialSubspace):
        nonlocal checked
        n, d, k = U.n, U.d, U.codim
        h = ideal_hilbert_function(U, 2 * d - 1)[2 * d - 1]
        checked += 1
        if h > 1 or (k < d and h != 0):
            bad.append(f"n={n} d={d} comp={sorted(U.complement)}: h(2d-1) = {h}")

    for n in range(2, 5):
        for d in range(2, 5):
            free = _power_free(n, d)
            for k in range(1, d + 1):
                if (n, d, k) == (4, 4, 4):
                    continue  # sampled below, the exhaustive family is large
                if k > len(free):
                    continue
                for comp in combinations(free, k):
                    run(MonomialSubspace(n, d, comp))
    rng = _rng(opts, "hilbert-top-degree")
    for n, d in ((4, 4), (3, 5), (4, 5)):
        free = _power_free(n, d)
        for k in range(1, d + 1):
            for _ in range(60):
                run(MonomialSubspace(n, d, rng.sample(free, k)))
    return _done("top-degree-bound", bad, checked, seed=opts.seed)


def check_full_degree_2d(opts: SuiteOptions) -> CheckResult:
    """Base point free subspaces reach everything in degree 2d: for
    n >= 3, d >= 3 up to codimension 3d-3, and for d = 2, n >= 4 up to
    codimension 4."""
    bad = []
    checked = 0

    def run(U: MonomialSubspace):
        nonlocal checked
        h = ideal_hilbert_function(U, 2 * U.d)[2 * U.d]
        checked += 1
        if h != 0:
            bad.append(
                f"n={U.n} d={U.d} k={U.codim} comp={sorted(U.complement)}: h(2d) = {h}"
            )

    rng = _rng(opts, "hilbert-degree-2d")
    for n, d in ((3, 3), (3, 4), (4, 3)):
        free = _power_free(n, d)
        for k in range(1, 3 * d - 2):
            if k > len(free):
                continue
            if comb(len(free), k) <= 20000:
                for comp in combinations(free, k):
                    run(MonomialSubspace(n, d, comp))
            else:
                for _ in range(200):
                    run(MonomialSubspace(n, d, rng.sample(free, k)))
    for n, d in ((4, 4), (3, 5)):
        free = _power_free(n, d)
        for k in range(1, 3 * d - 2):
            for _ in range(100):
                run(MonomialSubspace(n, d, rng.sample(free, k)))
    for n in range(4, 7):
        free = _power_free(n, 2)
        for k in range(1, 5):
            for comp in combinations(free, k):
                run(MonomialSubspace(n, 2, comp))
    return _done("full-degree-2d", bad, checked, seed=opts.seed)


def suite_hilbert(opts: SuiteOptions) -> list[CheckResult]:
    return [
        check_stable_hilbert_values(),
        check_growth_bound(),
        check_decreasing_after_crossing(),
        check_persistence(),
        check_small_codim_next_degree(),
        check_top_degree_bound(opts),
        check_full_degree_2d(opts),
    ]


# ---------------------------------------------------------------------------
# reduction and expansion combinatorics


def check_expansion_count() -> CheckResult:
    """|M+| is pivot(M) - 1 when x_1 divides M and M is not its power,
    n for the pure power, and 0 when x_1 does not divide M."""
    bad = []
    checked = 0
    for n in range(2, 5):
        for d in range(2, 6):
            for t in _basis_tuples(n, d):
                M = Monomial(t)
                up = expand(M)
                checked += 1
                if t[0] == 0:
                    ok = not up
                elif pivot(M) == 1:
                    ok = len(up) == n
                else:
                    ok = len(up) == pivot(M) - 1
                if not ok:
                    bad.append(f"{M.to_text()}: |M+| = {len(up)}")
                if any(Monomial(T).degree != d for T in up):
                    bad.append(f"{M.to_text()}: degree mismatch in M+")
    return _done("expansion-count", bad, checked)


def check_expansion_union_bound() -> CheckResult:
    """For strongly stable U of codimension 2 <= k <= n the union of the
    M+ over the complement has at most C(k, 2) + n elements, with
    equality exactly for the canonical extremal complement."""
    bad = []
    checked = 0
    for n in range(2, 5):
        for d in range(2, 6):
            for k in range(2, n + 1):
                target = frozenset(extremal_complement(n, d, k))
                for U in enumerate_strongly_stable(n, d, k):
                    union = set()
                    for M in U.complement:
                        union |= expand(M)
                    cap = comb(k, 2) + n
                    checked += 1
                    if len(union) > cap:
                        bad.append(f"n={n} d={d} comp={sorted(U.complement)}: {len(union)} > {cap}")
                    is_extremal = U.complement == target
                    if (len(union) == cap) != is_extremal:
                        bad.append(
                            f"n={n} d={d} comp={sorted(U.complement)}: "
                            f"union {len(union)}, extremal={is_extremal}"
                        )
    return _done("expansion-union-bound", bad, checked)


def check_complement_inside_union() -> CheckResult:
    """The complement of a strongly stable subspace is covered by the
    expansions of its own elements."""
    bad = []
    checked = 0
    for U in _stable_family(range(2, 5), range(2, 6), 6):
        union = set()
        for M in U.complement:
            union |= expand(M)
        checked += 1
        if not U.complement <= union:
            bad.append(f"n={U.n} d={U.d} comp={sorted(U.complement)}")
    return _done("complement-inside-union", bad, checked)


def check_pivot_forces_shape() -> CheckResult:
    """A strongly stable subspace of codimension k <= n whose complement
    contains a monomial with pivot k must be the canonical extremal one."""
    bad = []
    checked = 0
    for n in range(2, 5):
        for d in range(2, 6):
            for k in range(1, n + 1):
                target = frozenset(extremal_complement(n, d, k))
                for U in enumerate_strongly_stable(n, d, k):
                    checked += 1
                    if any(pivot(M) == k for M in U.complement):
                        if U.complement != target:
                            bad.append(f"n={n} d={d} comp={sorted(U.complement)}")
    return _done("pivot-forces-shape", bad, checked)


def check_variable_reduction() -> CheckResult:
    """When the complement lives in the first m variables, the square's
    codimension is at most (n - m) h'(2d-1) plus the codimension of the
    square inside m variables."""
    bad = []
    checked = 0
    for U in _stable_family(range(3, 5), range(2, 4), 6):
        n, d = U.n, U.d
        for m in range(2, n):
            if any(any(M[j] for j in range(m, n)) for M in U.complement):
                continue
            Up = restrict_vars(U, m)
            h = ideal_hilbert_function(Up, 2 * d - 1)[2 * d - 1]
            lhs = square(U).codim
            rhs = (n - m) * h + square(Up).codim
            checked += 1
            if lhs > rhs:
                bad.append(f"n={n} d={d} m={m} comp={sorted(U.complement)}: {lhs} > {rhs}")
    return _done("variable-reduction-bound", bad, checked)


def check_reduction_values() -> CheckResult:
    """Numeric anchors: doubling the variables at k = d adds exactly k^2;
    one extra codimension in k variables costs strictly less than
    C(k+1, 2); the anchor values m(k, k, k) = C(k+2, 3)."""
    bad = []
    checked = 0
    for k in (2, 3):
        anchor = compute_m(k, k, k).value
        double = compute_m(2 * k, k, k).value
        checked += 2
        if anchor != comb(k + 2, 3):
            bad.append(f"m({k},{k},{k}) = {anchor}")
        if double != k * k + anchor:
            bad.append(f"m({2 * k},{k},{k}) = {double}, anchor {anchor}")
    for k in (2, 3):
        lhs = compute_m(k, k + 1, k + 1).value
        rhs = comb(k + 2, 3) + comb(k + 1, 2)
        checked += 1
        if not lhs < rhs:
            bad.append(f"m({k},{k + 1},{k + 1}) = {lhs} not below {rhs}")
    value44 = compute_m(4, 4, 4).value
    checked += 1
    if value44 != comb(6, 3):
        bad.append(f"m(4,4,4) = {value44}")
    return _done("reduction-value-anchors", bad, checked)


def suite_reduction(opts: SuiteOptions) -> list[CheckResult]:
    return [
        check_expansion_count(),
        check_expansion_union_bound(),
        check_complement_inside_union(),
        check_pivot_forces_shape(),
        check_variable_reduction(),
        check_reduction_values(),
    ]


# ---------------------------------------------------------------------------
# initial subspaces


def check_initial_strictness() -> CheckResult:
    """The canonical witness where passing to initial monomials grows
    the square: U spanned by all quadratic monomials in three variables
    except x1^2, x2^2, together with x1^2 - x2^2."""
    bad = []
    f = {(2, 0, 0): 1, (0, 2, 0): 1}
    U = apolar_perp([f], 3, 2)
    if U.codim != 1:
        bad.append(f"codim U = {U.codim}")
    sq = square_rational(U)
    if sq.codim != 2:
        bad.append(f"codim U^2 = {sq.codim}")
    inU = initial_subspace(U)
    if inU.complement != frozenset({Monomial((2, 0, 0))}):
        bad.append(f"in(U) complement = {sorted(inU.complement)}")
    c_in_sq = square(inU).codim
    if c_in_sq != 3:
        bad.append(f"codim in(U)^2 = {c_in_sq}")
    in_of_sq = initial_subspace(sq)
    if in_of_sq.codim != 2:
        bad.append(f"codim in(U^2) = {in_of_sq.codim}")
    if not square(inU).complement >= in_of_sq.complement:
        bad.append("in(U)^2 not inside in(U^2)")
    return _done("initial-square-strict-witness", bad, checked=5)


def check_initial_containment(opts: SuiteOptions) -> CheckResult:
    """The square of the initial subspace always sits inside the initial
    subspace of the square."""
    rng = _rng(opts, "initial-containment")
    bad = []
    checked = 0
    for n, d in ((3, 2), (3, 3), (2, 3)):
        for codim in (1, 2):
            for _ in range(10):
                U = random_subspace(n, d, codim, rng, bound=7)
                lhs = square(initial_subspace(U))
                rhs = initial_subspace(square_rational(U))
                checked += 1
                # containment of spans = reverse containment of complements
                if not lhs.complement >= rhs.complement:
                    bad.append(f"n={n} d={d} codim={codim}")
    return _done("initial-square-containment", bad, checked, seed=opts.seed)


def check_mixed_basis_hilbert() -> CheckResult:
    """A five-dimensional span mixing the four cubes with one tied
    binomial: its quotient has the recorded Hilbert function, and one
    lifting step raises the square's codimension by h(2d-1) = 7."""
    bad = []
    cubes4 = [
        {(3, 0, 0, 0): 1},
        {(0, 3, 0, 0): 1},
        {(0, 0, 3, 0): 1},
        {(0, 0, 0, 3): 1},
        {(2, 1, 0, 0): 1, (0, 0, 2, 1): 1},
    ]
    U = span(cubes4, 4, 3)
    hf = hilbert_function_rational(U, 6)
    if hf.values != (1, 4, 10, 15, 15, 7, 1):
        bad.append(f"hilbert values {hf.values}")
    base = square_rational(U).codim
    cubes5 = [{k + (0,): v for k, v in vec.items()} for vec in cubes4]
    extra = linear_multiples([0, 0, 0, 0, 1], 5, 3)
    U1 = span(cubes5 + extra, 5, 3)
    lifted = square_rational(U1).codim
    if lifted != base + 7:
        bad.append(f"codim went {base} -> {lifted}, expected +7")
    return _done(
        "mixed-basis-hilbert", bad, checked=2, note=f"codim U^2 = {base}"
    )


def suite_initial(opts: SuiteOptions) -> list[CheckResult]:
    return [
        check_initial_strictness(),
        check_initial_containment(opts),
        check_mixed_basis_hilbert(),
    ]


# ---------------------------------------------------------------------------
# randomized generic-linear-form checks


def check_generic_restriction(opts: SuiteOptions) -> CheckResult:
    """Restricting by a generic linear form obeys the binomial-shift
    bound on the degree-d value."""
    rng = _rng(opts, "green-restriction")
    bad = []
    checked = 0
    resamples = 0
    for _ in range(opts.trials):
        n = rng.choice((3, 4))
        d = rng.choice((2, 3))
        k = rng.randint(1, 3)
        U = random_subspace(n, d, k, rng, bound=9)
        bound = green_restriction_bound(k, d)
        ok = False
        for _ in range(6):
            l = random_linear_form(n, rng, bound=9)
            c = span(list(U.rows) + linear_multiples(l, n, d), n, d).codim
            if c <= bound:
                ok = True
                break
            resamples += 1
        checked += 1
        if not ok:
            bad.append(f"n={n} d={d} k={k}: restriction value stayed above {bound}")
    return _done(
        "generic-restriction-bound", bad, checked, resamples=resamples, seed=opts.seed
    )


def check_generic_colon(opts: SuiteOptions) -> CheckResult:
    """For k <= d and generic l the subspace plus l times the previous
    degree fills the whole degree, and the colon space has codimension
    exactly k."""
    rng = _rng(opts, "green-colon")
    bad = []
    checked = 0
    resamples = 0
    for _ in range(opts.trials):
        n = 3
        d = rng.choice((2, 3))
        k = rng.randint(1, d)
        U = random_subspace(n, d, k, rng, bound=9)
        ok = False
        for _ in range(6):
            l = random_linear_form(n, rng, bound=9)
            filled = span(list(U.rows) + linear_multiples(l, n, d), n, d).codim == 0
            V = quotient_by_linear_form(U, l)
            if filled and V.codim == k:
                ok = True
                break
            resamples += 1
        checked += 1
        if not ok:
            bad.append(f"n={n} d={d} k={k}: no generic form found in 6 draws")
    return _done("generic-colon-codim", bad, checked, resamples=resamples, seed=opts.seed)


def check_generic_image_dim(opts: SuiteOptions) -> CheckResult:
    """A k-dimensional span with k < n keeps dimension k after passing
    to the quotient by a generic linear form."""
    rng = _rng(opts, "green-image")
    bad = []
    checked = 0
    resamples = 0
    for _ in range(opts.trials):
        n = rng.choice((3, 4))
        d = rng.choice((2, 3))
        k = rng.randint(1, n - 1)
        vectors = [
            [rng.randint(-9, 9) for _ in range(dim_component(n, d))] for _ in range(k)
        ]
        W = span(vectors, n, d)
        if W.dim != k:
            resamples += 1
            continue
        ok = False
        for _ in range(6):
            l = random_linear_form(n, rng, bound=9)
            l_rows = linear_multiples(l, n, d)
            big = span(list(W.rows) + l_rows, n, d)
            image_dim = big.dim - span(l_rows, n, d).dim
            if image_dim == k:
                ok = True
                break
            resamples += 1
        checked += 1
        if not ok:
            bad.append(f"n={n} d={d} k={k}: image dimension dropped in 6 draws")
    return _done(
        "generic-image-dimension", bad, checked, resamples=resamples, seed=opts.seed
    )


def check_colon_degree_reduction(opts: SuiteOptions) -> CheckResult:
    """Base point free, k <= d: the square's codimension is at most the
    codimension of U (U : l); for k <= d - 1 also at most that of
    (U : l)^2."""
    rng = _rng(opts, "degree-reduction")
    bad = []
    checked = 0
    resamples = 0
    for _ in range(opts.trials):
        n = 3
        d = rng.choice((3, 4))
        k = rng.randint(1, 2)
        U, rejected = _free_subspace(n, d, k, rng, bad)
        resamples += rejected
        if U is None:
            continue
        V, rejected = _redraw(
            lambda: quotient_by_linear_form(U, random_linear_form(n, rng, bound=9)),
            lambda V: V.codim == k,
            bad,
            f"n={n} d={d} k={k}: colon space of codim {k}",
        )
        resamples += rejected
        if V is None:
            continue
        cU2 = square_rational(U).codim
        cUV = product_rational(U, V).codim
        cV2 = square_rational(V).codim
        checked += 1
        if cU2 > cUV:
            bad.append(f"n={n} d={d} k={k}: codim U^2 = {cU2} > codim UV = {cUV}")
        if k <= d - 1 and cU2 > cV2:
            bad.append(f"n={n} d={d} k={k}: codim U^2 = {cU2} > codim V^2 = {cV2}")
    return _done(
        "colon-degree-reduction", bad, checked, resamples=resamples, seed=opts.seed
    )


def check_colon_base_point_example(opts: SuiteOptions) -> CheckResult:
    """The colon space can pick up a base point even when the original
    subspace has none: the perp of {x^2 y, x^2 z, x y^2} in degree 3."""
    name = "colon-base-point-example"
    rng = _rng(opts, "colon-example")
    bad = []
    W = [{(2, 1, 0): 1}, {(2, 0, 1): 1}, {(1, 2, 0): 1}]
    U = apolar_perp(W, 3, 3)
    if U.codim != 3:
        bad.append(f"codim U = {U.codim}")
    # the annihilator is spanned by power-free monomials, so U is base
    # point free: a power of a linear form supported on r variables
    # always involves pure-power monomials
    V, resamples = _redraw(
        lambda: quotient_by_linear_form(U, random_linear_form(3, rng, bound=9)),
        lambda V: V.dim == 3,
        bad,
        "colon space of dimension 3",
    )
    if V is None:
        return _done(name, bad, checked=0, resamples=resamples, seed=opts.seed)
    if not V.contains({(0, 1, 1): 1}):
        bad.append("yz missing from the colon space")
    if not V.contains({(0, 0, 2): 1}):
        bad.append("z^2 missing from the colon space")
    restricted = [eliminate_variable(row, 3, 2, [0, 0, 1]) for row in V.rows]
    rank = span(restricted, 2, 2).dim
    if rank > 1:
        bad.append(f"restriction to z = 0 has rank {rank}")
    # rank <= 1 means the colon space restricted to the line z = 0 is a
    # single binary quadric, which always has a projective zero: a base
    # point of the colon space
    return _done(name, bad, checked=4, resamples=resamples, seed=opts.seed)


def check_quadric_pencil_hilbert(opts: SuiteOptions) -> CheckResult:
    """Base point free of codimension 2 in degree 2: the quotient's
    Hilbert function is (1, n, 2) and vanishes afterwards."""
    rng = _rng(opts, "quadric-pencil")
    bad = []
    checked = 0
    resamples = 0
    for _ in range(opts.trials):
        n = rng.choice((3, 4, 5))
        U, rejected = _free_subspace(n, 2, 2, rng, bad)
        resamples += rejected
        if U is None:
            continue
        hf = hilbert_function_rational(U, 4)
        checked += 1
        if hf.values != (1, n, 2, 0, 0):
            bad.append(f"n={n}: values {hf.values}")
    return _done(
        "quadric-pencil-hilbert", bad, checked, resamples=resamples, seed=opts.seed
    )


def suite_random(opts: SuiteOptions) -> list[CheckResult]:
    return [
        check_generic_restriction(opts),
        check_generic_colon(opts),
        check_generic_image_dim(opts),
        check_colon_degree_reduction(opts),
        check_colon_base_point_example(opts),
        check_quadric_pencil_hilbert(opts),
    ]


# ---------------------------------------------------------------------------
# lifting


def check_lift_hilbert() -> CheckResult:
    """Adding l fresh variables leaves the quotient's Hilbert function
    unchanged from the generating degree on, and makes it full below."""
    bad = []
    checked = 0
    for U in _stable_family(range(2, 5), range(2, 5), 6):
        n, d = U.n, U.d
        hfU = ideal_hilbert_function(U, 2 * d + 1)
        for l in range(1, 4):
            hfL = ideal_hilbert_function(lift(U, l), 2 * d + 1)
            checked += 1
            for i in range(2 * d + 2):
                want = dim_component(n + l, i) if i < d else hfU[i]
                if hfL[i] != want:
                    bad.append(f"n={n} d={d} comp={sorted(U.complement)} l={l} deg={i}")
                    break
    return _done("lift-hilbert-values", bad, checked)


def check_lift_square_increment() -> CheckResult:
    """Each fresh variable raises the square's codimension by exactly
    the degree 2d-1 value of the quotient's Hilbert function."""
    bad = []
    checked = 0
    for U in _stable_family(range(2, 5), range(2, 5), 6):
        n, d = U.n, U.d
        h = ideal_hilbert_function(U, 2 * d - 1)[2 * d - 1]
        base = square(U).codim
        for l in range(1, 4):
            value = square(lift(U, l)).codim
            checked += 1
            if value != base + l * h:
                bad.append(
                    f"n={n} d={d} comp={sorted(U.complement)} l={l}: "
                    f"{value} != {base} + {l}*{h}"
                )
    return _done("lift-square-increment", bad, checked)


def check_lift_small_codim() -> CheckResult:
    """Base point free of codimension 1 or 2 keeps the codimension of
    its square under lifting."""
    bad = []
    checked = 0
    for n in (2, 3):
        for d in (2, 3):
            free = _power_free(n, d)
            for k in (1, 2):
                if k > len(free):
                    continue
                for comp in combinations(free, k):
                    U = MonomialSubspace(n, d, comp)
                    base = square(U).codim
                    for l in (1, 2):
                        checked += 1
                        value = square(lift(U, l)).codim
                        if value != base:
                            bad.append(f"n={n} d={d} comp={comp} l={l}: {value} != {base}")
    return _done("lift-preserves-small-codim", bad, checked)


def check_colon_square_monotone() -> CheckResult:
    """Strongly stable with k <= d - 1: dividing by x_1 cannot increase
    the codimension of the square."""
    bad = []
    checked = 0
    for U in _stable_family(range(2, 5), range(2, 5), 6):
        if U.codim > U.d - 1:
            continue
        V = variable_quotient(U, 1)
        checked += 1
        if square(V).codim > square(U).codim:
            bad.append(f"n={U.n} d={U.d} comp={sorted(U.complement)}")
    return _done("colon-square-monotone", bad, checked)


def check_extremal_chain() -> CheckResult:
    """Multiplying the extremal witness by x_1 and padding keeps it the
    maximizer one degree up, so the bound is degree-independent."""
    bad = []
    checked = 0
    for n in range(2, 5):
        for k in range(1, min(n, 3) + 1):
            result = compute_m(n, k, k)
            comp = result.witnesses[0].complement
            x1 = (1,) + (0,) * (n - 1)
            d = k
            for _ in range(2):
                comp = frozenset(multiply(M, x1) for M in comp)
                d += 1
                value = square(MonomialSubspace(n, d, comp)).codim
                target = compute_m(n, d, k).value
                checked += 1
                if value != target or value != closed_form_m(n, d, k):
                    bad.append(f"n={n} k={k} d={d}: chain value {value}, max {target}")
    return _done("extremal-chain", bad, checked)


def suite_lifting(opts: SuiteOptions) -> list[CheckResult]:
    return [
        check_lift_hilbert(),
        check_lift_square_increment(),
        check_lift_small_codim(),
        check_colon_square_monotone(),
        check_extremal_chain(),
    ]


# ---------------------------------------------------------------------------
# dimension bounds for squares


def check_minimal_square_dimension() -> CheckResult:
    """Base point free of dimension r: the square has dimension at least
    nr - C(n, 2), with equality for the span of the pure powers."""
    bad = []
    checked = 0
    for n, d in ((3, 2), (3, 3), (2, 4)):
        free = _power_free(n, d)
        for size in range(len(free) + 1):
            for extra in combinations(free, size):
                U = MonomialSubspace(n, d, extra)
                r = U.dim
                dim_sq = dim_component(n, 2 * d) - square(U).codim
                checked += 1
                if dim_sq < small_subspace_bound(n, r):
                    bad.append(f"n={n} d={d} comp={extra}: dim U^2 = {dim_sq}")
    for n in range(2, 6):
        for d in range(2, 6):
            U = MonomialSubspace(n, d, _power_free(n, d))
            dim_sq = dim_component(n, 2 * d) - square(U).codim
            checked += 1
            if dim_sq != small_subspace_bound(n, n):
                bad.append(f"pure powers n={n} d={d}: dim U^2 = {dim_sq}")
    return _done("minimal-square-dimension", bad, checked)


def check_m0_upper_bound() -> CheckResult:
    """The aggregate bound on the base point free maximum in terms of
    ambient dimensions."""
    bad = []
    checked = 0
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
                checked += 1
                if value > cap:
                    bad.append(f"n={n} d={d} k={k}: {value} > {cap}")
    return _done("m0-upper-bound", bad, checked)


def check_independent_bound() -> CheckResult:
    """Base point free with k <= d - 1: the square's codimension never
    exceeds k^2 + C(k+2, 3), independently of n."""
    bad = []
    checked = 0
    for n in range(2, 5):
        for d in range(2, 5):
            free = _power_free(n, d)
            for k in range(1, min(d - 1, 4) + 1):
                if k > len(free):
                    continue
                for comp in combinations(free, k):
                    c = square(MonomialSubspace(n, d, comp)).codim
                    checked += 1
                    if c > main_bound(k):
                        bad.append(f"n={n} d={d} comp={comp}: {c} > {main_bound(k)}")
    for n in (5, 6):
        for d in range(3, 9):
            for k in (1, 2):
                value = compute_m0_monomial(n, d, k).value
                checked += 1
                if value > main_bound(k):
                    bad.append(f"n={n} d={d} k={k}: {value} > {main_bound(k)}")
    return _done("independent-bound", bad, checked)


def check_singular_beats_free() -> CheckResult:
    """With base points the extremal codimension C(k+2,3) + (n-k)k grows
    linearly in n (at least kn), while the base point free bound does
    not move: the closed forms separate for every n, d >= k."""
    bad = []
    checked = 0
    for k in range(1, 7):
        for n in range(k, 10):
            value = closed_form_m(n, k, k)
            checked += 1
            if value < k * n:
                bad.append(f"n={n} k={k}: {value} < {k * n}")
    return _done("singular-beats-free", bad, checked)


def suite_bounds(opts: SuiteOptions) -> list[CheckResult]:
    return [
        check_minimal_square_dimension(),
        check_m0_upper_bound(),
        check_independent_bound(),
        check_singular_beats_free(),
    ]


# ---------------------------------------------------------------------------
# Gram face dimensions


def check_face_bound_values() -> CheckResult:
    """Hand-computed corank-1 face bounds for ternary quadrics and
    cubics."""
    bad = []
    if nonsingular_face_bound(3, 2, 1) != 2:
        bad.append(f"(3,2,1): {nonsingular_face_bound(3, 2, 1)}")
    if nonsingular_face_bound(3, 3, 1) != 19:
        bad.append(f"(3,3,1): {nonsingular_face_bound(3, 3, 1)}")
    return _done("face-bound-values", bad, checked=2)


def check_face_gap_growth() -> CheckResult:
    """For quartics at corank 2 the singular face gains 2n - 8 dimensions
    over any non-singular face: positive and increasing from n = 5."""
    bad = []
    gaps = [face_gap(n, 4, 2) for n in range(5, 11)]
    for n, g in zip(range(5, 11), gaps):
        if g != 2 * n - 8:
            bad.append(f"n={n}: gap {g}")
    if not all(a < b for a, b in zip(gaps, gaps[1:])):
        bad.append(f"not increasing: {gaps}")
    if gaps[0] <= 0:
        bad.append(f"not positive at n=5: {gaps[0]}")
    return _done("face-gap-growth", bad, checked=len(gaps), note=f"gaps {gaps}")


def check_face_profile_consistency() -> CheckResult:
    """The face dimension computed from an explicit extremal witness
    agrees with the closed-form singular face dimension."""
    bad = []
    checked = 0
    for n, d, k in ((3, 3, 1), (3, 3, 2), (3, 4, 2), (4, 3, 2)):
        comp = extremal_complement(n, d, k)
        profile = face_profile(MonomialSubspace(n, d, comp))
        checked += 1
        if profile.face_dim != singular_face_dim(n, d, k):
            bad.append(
                f"(n,d,k)=({n},{d},{k}): profile {profile.face_dim} "
                f"!= formula {singular_face_dim(n, d, k)}"
            )
    return _done("face-profile-consistency", bad, checked)


def suite_gram(opts: SuiteOptions) -> list[CheckResult]:
    return [
        check_face_bound_values(),
        check_face_gap_growth(),
        check_face_profile_consistency(),
    ]


# ---------------------------------------------------------------------------
# power-free restriction conjecture


def _shape_power_times_variables(W: tuple, n: int, d: int) -> bool:
    """Whether W is x_a^(d-1) times a set of distinct other variables."""
    for a in range(n):
        quotients = []
        ok = True
        for M in W:
            if M[a] < d - 1:
                ok = False
                break
            rest = list(M)
            rest[a] -= d - 1
            if sum(rest) != 1 or rest[a] != 0:
                ok = False
                break
            quotients.append(tuple(rest))
        if ok and len(set(quotients)) == len(W):
            return True
    return False


def conjecture_scan(
    n_values, d_values, k_values, trials: int = 4, seed: int = 0
) -> list[CheckResult]:
    """Restriction by a generic linear form should keep a power-free
    monomial span power-free, except for the known exceptional shape
    x_a^(d-1) * (variables) at n = k + 1.

    Exact for k <= 2 via catalecticant minors; a cell where some span
    violates this reports a failing CheckResult.
    """
    out = []
    for n in n_values:
        for d in d_values:
            for k in k_values:
                if not (1 <= k <= min(d - 1, n - 1, 2)) or n < 3:
                    continue
                rng = random.Random(f"{seed}:conjecture:{n}:{d}:{k}")
                free = _power_free(n, d)
                bad = []
                checked = 0
                resamples = 0
                for W in combinations(free, k):
                    checked += 1
                    stayed_free = False
                    for _ in range(max(2, trials)):
                        l = [rng.randint(-9, 9) for _ in range(n - 1)]
                        l.append(rng.choice((1, -1)) * rng.randint(1, 9))
                        rows = [
                            eliminate_variable({M: 1}, n, d, l) for M in W
                        ]
                        if span(rows, n - 1, d).dim != k:
                            resamples += 1
                            continue
                        if not power_in_span(rows, n - 1, d):
                            stayed_free = True
                            break
                        resamples += 1
                    if stayed_free:
                        continue
                    if n == k + 1 and _shape_power_times_variables(W, n, d):
                        continue
                    names = ",".join(Monomial(M).to_text() for M in W)
                    bad.append(f"span({names}) restricted to a power every time")
                out.append(
                    _done(
                        f"restriction-power-free-n{n}-d{d}-k{k}",
                        bad,
                        checked,
                        resamples=resamples,
                        seed=seed,
                    )
                )
    return out


def suite_conjecture(opts: SuiteOptions) -> list[CheckResult]:
    return conjecture_scan(
        (3, 4), (3, 4, 5), (1, 2), trials=max(4, opts.trials // 10), seed=opts.seed
    )


# ---------------------------------------------------------------------------


SUITES = {
    "base": suite_base,
    "classification": suite_classification,
    "hilbert": suite_hilbert,
    "reduction": suite_reduction,
    "initial": suite_initial,
    "random": suite_random,
    "lifting": suite_lifting,
    "bounds": suite_bounds,
    "gram": suite_gram,
    "conjecture": suite_conjecture,
}


def run_suites(names, opts: SuiteOptions | None = None) -> list[CheckResult]:
    opts = opts or SuiteOptions()
    results = []
    for name in names:
        if name not in SUITES:
            raise InvalidInputError(
                f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
            )
        results.extend(SUITES[name](opts))
    return results
