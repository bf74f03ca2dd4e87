"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -v -s or
in failure output) and asserts the criterion.  The first three rebuild
the published values from scratch; the rest read the named suites from
one run shared with the seed-0 pin of tests/test_suites.py.
"""

import pytest

from stablesq.search import closed_form_m, compute_m, verify_table
from stablesq.stable import extremal_complement
from stablesq.subspace import MonomialSubspace


# the regime n, d >= k: k = 1..6, n = max(2, k)..6, d = k..7
REGIME = [(n, d, k) for k in range(1, 7) for n in range(max(2, k), 7) for d in range(k, 8)]


@pytest.fixture(scope="module")
def regime_results():
    """One compute_m result per cell of REGIME, read by criteria 2 and 3."""
    return {cell: compute_m(*cell) for cell in REGIME}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {mark}: {name}{suffix}")
    assert ok, f"criterion {num:02d} failed: {name}{suffix}"


def _suite_ok(suite_results: dict, name: str):
    results = suite_results[name]
    bad = [r for r in results if not r.passed]
    detail = f"{len(results)} checks, {sum(r.checked for r in results)} instances"
    if bad:
        detail += "; failing: " + "; ".join(r.line() for r in bad)
    return not bad, detail


def test_criterion_01_published_table_reproduced():
    rep = verify_table(range(3, 7), range(2, 10), range(1, 10))
    ok = rep.clean and rep.compared == 288
    detail = f"{rep.compared - len(rep.mismatches)}/{rep.compared} cells match"
    if rep.mismatches:
        detail += f"; first mismatch {rep.mismatches[0]}"
    _report(1, "reference table reproduced on n=3..6, d=2..9, k=1..9", ok, detail)


def test_criterion_02_closed_form_with_unique_extremal_witness(regime_results):
    bad = []
    for (n, d, k), r in regime_results.items():
        extremal = MonomialSubspace(n, d, extremal_complement(n, d, k))
        if r.value != closed_form_m(n, d, k) or r.witnesses != (extremal,) or r.witness_count != 1:
            bad.append((n, d, k))
    detail = f"{len(regime_results)} cells" + (f"; failures {bad[:3]}" if bad else "")
    _report(
        2,
        "m equals C(k+2,3) + (n-k)k with a unique extremal witness for n, d >= k",
        not bad,
        detail,
    )


def test_criterion_03_value_constant_in_degree(regime_results):
    rows = {}
    for (n, d, k), r in regime_results.items():
        rows.setdefault((n, k), {})[d] = r.value
    # each row's values against its d = k anchor
    bad = [(n, k, values) for (n, k), values in rows.items() if set(values.values()) != {values[k]}]
    _report(
        3,
        "m(n, d, k) does not depend on d in the regime d >= k",
        not bad,
        f"{len(rows)} (n, k) rows" + (f"; failures {bad[:2]}" if bad else ""),
    )


def test_criterion_04_codimension_1_and_2_classification(default_suite_results):
    ok, detail = _suite_ok(default_suite_results, "classification")
    _report(4, "codimension 1 and 2 base point free classification", ok, detail)


def test_criterion_05_expansion_combinatorics(default_suite_results):
    ok, detail = _suite_ok(default_suite_results, "reduction")
    _report(5, "reduction and expansion counting statements", ok, detail)


def test_criterion_06_hilbert_function_theorems(default_suite_results):
    ok, detail = _suite_ok(default_suite_results, "hilbert")
    _report(6, "Hilbert function growth and vanishing statements", ok, detail)


def test_criterion_07_exact_linear_algebra_witnesses(default_suite_results):
    ok, detail = _suite_ok(default_suite_results, "initial")
    _report(7, "initial-subspace witnesses over the rationals", ok, detail)


def test_criterion_08_randomized_generic_form_checks(default_suite_results):
    ok, detail = _suite_ok(default_suite_results, "random")
    _report(8, "seeded randomized checks for generic linear forms", ok, detail)


def test_criterion_09_lifting_behavior(default_suite_results):
    ok, detail = _suite_ok(default_suite_results, "lifting")
    _report(9, "lifting and degree-shift behavior of squares", ok, detail)


def test_criterion_10_gram_face_dimensions(default_suite_results):
    ok, detail = _suite_ok(default_suite_results, "gram")
    _report(10, "Gram spectrahedron face dimension formulas", ok, detail)
