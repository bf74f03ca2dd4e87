import pytest

from stablesq import suites
from stablesq.errors import InvalidInputError
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
    # k outside 1..min(d-1, n-1, 2) yields no cells
    assert conjecture_scan([3], [3], [3]) == []
    assert conjecture_scan([2], [3], [1]) == []
    results = conjecture_scan([3], [3], [1], trials=2, seed=1)
    assert len(results) == 1
    assert results[0].passed


def test_conjecture_suite_uses_exception_shape():
    # the cells at n = 3, k = 2 include spans of the shape
    # x_a^(d-1) * {two other variables}, which restrict to a power for
    # every linear form; the scan must still pass by recognizing them
    results = conjecture_scan([3], [3], [2], trials=3, seed=0)
    assert len(results) == 1
    assert results[0].passed
    assert results[0].checked == 21
