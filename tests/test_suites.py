import pickle
from dataclasses import astuple
from itertools import combinations

import pytest

from stablesq import suites
from stablesq.errors import BudgetExceededError, InvalidInputError
from stablesq.monomial import _power_free
from stablesq.qlinalg import span
from stablesq.suites import (
    SUITES,
    CheckResult,
    SuiteOptions,
    conjecture_scan,
    run_suites,
)


def test_registry_names():
    assert set(SUITES) == {
        "base",
        "classification",
        "hilbert",
        "reduction",
        "initial",
        "random",
        "lifting",
        "bounds",
        "gram",
        "conjecture",
    }


def test_every_suite_pickles():
    # a suite sent to a worker process pickles by reference to its module
    for name, suite in SUITES.items():
        assert pickle.loads(pickle.dumps(suite)) == suite, name


def test_check_result_line_format():
    r = CheckResult("thing", True, details="note", checked=7)
    assert r.line() == "PASS thing: 7 instances [note]"
    r = CheckResult("thing", False, checked=0)
    assert r.line() == "FAIL thing: 0 instances"


def test_run_suites_unknown_name():
    with pytest.raises(InvalidInputError):
        run_suites(["nope"])


def test_gram_and_bounds_suites_pass():
    results = run_suites(["gram", "bounds"], SuiteOptions())
    assert results
    for r in results:
        assert r.passed, r.line()
        assert r.checked > 0


def test_reduced_trials_still_pass():
    results = run_suites(["base"], SuiteOptions(seed=3, trials=10))
    for r in results:
        assert r.passed, r.line()


def test_zero_trials_fail():
    results = {r.name: r for r in run_suites(["random"], SuiteOptions(trials=0))}
    empty = [r for r in results.values() if r.checked == 0]
    assert len(empty) == 5
    for r in empty:
        assert not r.passed
        assert r.line().startswith("FAIL") and "no instances checked" in r.line()
    assert results["colon-base-point-example"].passed


def test_exhausted_resampling_fails(monkeypatch):
    # no draw is ever good: each check gives up after RESAMPLE_TRIES draws
    # and reports FAIL instead of looping
    monkeypatch.setattr(suites, "has_base_point", lambda U: True)
    opts = SuiteOptions(trials=2)
    checks = (suites.check_codim1_rational, suites.check_quadric_pencil_hilbert)
    for check in checks:
        r = check(opts)
        assert not r.passed and "all 100 draws rejected" in r.details, r.line()
        assert r.resamples >= suites.RESAMPLE_TRIES
    monkeypatch.undo()
    monkeypatch.setattr(
        suites, "quotient_by_linear_form", lambda U, l: span([], U.n, U.d - 1)
    )
    checks = (suites.check_colon_degree_reduction, suites.check_colon_base_point_example)
    for check in checks:
        r = check(opts)
        assert not r.passed and "all 100 draws rejected" in r.details, r.line()
        assert r.resamples >= suites.RESAMPLE_TRIES


def test_conjecture_scan_cell_filter():
    # k outside 1..min(d-1, n-1, 2) yields no cell, and a grid of no cell
    # is refused by the library, not read as a pass
    for grid in (([3], [3], [3]), ([2], [3], [1]), ([], [3], [1])):
        with pytest.raises(InvalidInputError, match="no cells to scan"):
            conjecture_scan(*grid)
    results = conjecture_scan([3], [3], [1, 3], trials=2, seed=1)
    assert [r.name for r in results] == ["restriction-power-free-n3-d3-k1"]
    assert results[0].passed


def test_conjecture_scan_refuses_a_cell_over_the_budget(monkeypatch):
    # (3, 3, 1): C(7, 1) spans of the 7 power-free cubics, dim A_3 = 10 each
    monkeypatch.setattr("stablesq.errors.DEFAULT_BUDGET", 69)
    with pytest.raises(BudgetExceededError, match="at least 70 coefficients"):
        conjecture_scan([3], [3], [1])
    monkeypatch.setattr("stablesq.errors.DEFAULT_BUDGET", 70)
    assert conjecture_scan([3], [3], [1])[0].passed


def _shape_oracle(W: tuple, n: int, d: int) -> bool:
    """The former test for x_a^(d-1) times distinct other variables,
    kept as an oracle: divide out x_a^(d-1) and compare the quotients."""
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


def test_exception_shape_matches_oracle():
    # every W the conjecture suite scans, and k = 3 beside it
    hits = total = 0
    for n in range(2, 5):
        for d in range(2, 6):
            for k in range(1, 4):
                for W in combinations(_power_free(n, d), k):
                    want = _shape_oracle(W, n, d)
                    assert suites._shape_power_times_variables(W, n, d) == want, W
                    hits += want
                    total += 1
    assert hits and total > 20000


def test_conjecture_suite_uses_exception_shape():
    # the cells at n = 3, k = 2 include spans of the shape
    # x_a^(d-1) * {two other variables}, which restrict to a power for
    # every linear form; the scan must still pass by recognizing them
    results = conjecture_scan([3], [3], [2], trials=3, seed=0)
    assert len(results) == 1
    assert results[0].passed
    assert results[0].checked == 21


# Every field (name, passed, details, checked, resamples, seed) of every
# CheckResult of all suites at seed 0.  A change to how checks run or
# count must leave all of them as they are.
SEED_0_RESULTS = [
    ("base-point-square-codim", True, "", 100, 0, None),
    ("base-point-square-codim-rational", True, "", 15, 0, 0),
    ("shift-preserves-stability", True, "", 81, 0, None),
    ("small-codim-complement-shape", True, "", 117, 0, None),
    ("one-step-extension", True, "", 81, 0, None),
    ("codim-1-degree-2-value", True, "", 35, 0, None),
    ("codim-1-degree-3-plus-bound", True, "max over grid = 1", 4795, 0, None),
    (
        "codim-2-thresholds", True, "values d=2..8 at n=3: [6, 4, 4, 2, 2, 2, 2]",
        1500499, 0, None,
    ),
    ("codim-1-rational-values", True, "", 30, 0, 0),
    ("stable-small-codim-hilbert", True, "", 34, 0, None),
    ("growth-bound", True, "", 537, 0, None),
    ("decreasing-after-crossing", True, "", 537, 0, None),
    ("maximal-growth-persists", True, "127 maximal-growth cases", 537, 0, None),
    ("small-codim-next-degree", True, "262 equality cases", 3585, 0, None),
    ("top-degree-bound", True, "", 7421, 0, 0),
    ("full-degree-2d", True, "", 23515, 0, 0),
    ("expansion-count", True, "", 191, 0, None),
    ("expansion-union-bound", True, "", 39, 0, None),
    ("complement-inside-union", True, "", 117, 0, None),
    ("pivot-forces-shape", True, "", 51, 0, None),
    ("variable-reduction-bound", True, "", 31, 0, None),
    ("reduction-value-anchors", True, "", 7, 0, None),
    ("initial-square-strict-witness", True, "", 5, 0, None),
    ("initial-square-containment", True, "", 60, 0, 0),
    ("mixed-basis-hilbert", True, "codim U^2 = 69", 2, 0, None),
    ("generic-restriction-bound", True, "", 50, 0, 0),
    ("generic-colon-codim", True, "", 50, 0, 0),
    ("generic-image-dimension", True, "", 50, 0, 0),
    ("colon-degree-reduction", True, "", 50, 0, 0),
    ("colon-base-point-example", True, "", 4, 0, 0),
    ("quadric-pencil-hilbert", True, "", 50, 0, 0),
    ("lift-hilbert-values", True, "", 243, 0, None),
    ("lift-square-increment", True, "", 243, 0, None),
    ("lift-preserves-small-codim", True, "", 76, 0, None),
    ("colon-square-monotone", True, "", 20, 0, None),
    ("extremal-chain", True, "", 16, 0, None),
    ("minimal-square-dimension", True, "", 160, 0, None),
    ("m0-upper-bound", True, "", 8, 0, None),
    ("independent-bound", True, "", 5497, 0, None),
    ("singular-beats-free", True, "", 39, 0, None),
    ("face-bound-values", True, "", 2, 0, None),
    ("face-gap-growth", True, "gaps [2, 4, 6, 8, 10, 12]", 6, 0, None),
    ("face-profile-consistency", True, "", 4, 0, None),
    ("restriction-power-free-n3-d3-k1", True, "", 7, 0, 0),
    ("restriction-power-free-n3-d3-k2", True, "", 21, 15, 0),
    ("restriction-power-free-n3-d4-k1", True, "", 12, 0, 0),
    ("restriction-power-free-n3-d4-k2", True, "", 66, 21, 0),
    ("restriction-power-free-n3-d5-k1", True, "", 18, 1, 0),
    ("restriction-power-free-n3-d5-k2", True, "", 153, 24, 0),
    ("restriction-power-free-n4-d3-k1", True, "", 16, 0, 0),
    ("restriction-power-free-n4-d3-k2", True, "", 120, 1, 0),
    ("restriction-power-free-n4-d4-k1", True, "", 31, 0, 0),
    ("restriction-power-free-n4-d4-k2", True, "", 465, 1, 0),
    ("restriction-power-free-n4-d5-k1", True, "", 52, 0, 0),
    ("restriction-power-free-n4-d5-k2", True, "", 1326, 3, 0),
]


def test_all_suites_pinned_at_seed_0(default_suite_results):
    assert SuiteOptions() == SuiteOptions(seed=0)
    results = [r for name in SUITES for r in default_suite_results[name]]
    assert [astuple(r) for r in results] == SEED_0_RESULTS


# The resamples of the conjecture suite's cells at seeds 1-3, in the order
# of SEED_0_RESULTS; every other field is as at seed 0, with the seed.
CONJECTURE_RESAMPLES = {
    1: [0, 18, 0, 20, 0, 28, 0, 0, 0, 2, 0, 4],
    2: [0, 20, 0, 18, 0, 22, 0, 1, 0, 1, 0, 2],
    3: [0, 18, 0, 22, 2, 17, 0, 0, 0, 1, 0, 2],
}


@pytest.mark.parametrize("seed", sorted(CONJECTURE_RESAMPLES))
def test_conjecture_suite_pinned_at_seeds_1_to_3(seed):
    cells = SEED_0_RESULTS[-len(CONJECTURE_RESAMPLES[seed]) :]
    want = [
        (name, passed, details, checked, resamples, seed)
        for (name, passed, details, checked, _, _), resamples in zip(
            cells, CONJECTURE_RESAMPLES[seed]
        )
    ]
    results = SUITES["conjecture"](SuiteOptions(seed=seed))
    assert [astuple(r) for r in results] == want
