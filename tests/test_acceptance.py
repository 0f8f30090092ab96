"""Acceptance suite.

One test per advertised guarantee, ordered as in the project checklist.  Each
runs its own check from the `staircase_tableaux.checks` registry (the code
behind ``staircase-tableaux verify``) at ``n_max = 6``, the full contract,
then asserts on the check's ``measured`` report both the range it covered and
its numeric gate, so the contract stays written down here.  Each prints a
single [PASS]/[FAIL] line with the measured quantity so a bare
``pytest -v -s tests/test_acceptance.py`` reads as a report.
"""

from __future__ import annotations

import math

import pytest

from staircase_tableaux.asep import PARAMETER_GRID
from staircase_tableaux.checks import CheckResult, verify_suite
from staircase_tableaux.stats import STATISTICS

SEED = 20250823


def _run(name: str) -> CheckResult:
    (result,) = verify_suite(6, seed=SEED, names=[name])
    return result


def _report(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _exact(name: str, label: str, **covered: int) -> None:
    """Exact checks: the covered range is pinned and nothing may fail."""
    res = _run(name)
    m = res.measured
    ok = (
        res.passed
        and all(m[key] == value for key, value in covered.items())
        and m["failures"] == []
    )
    ranges = " ".join(f"{key}={m[key]}" for key in covered)
    _report(ok, label, f"{ranges} exact, failures={m['failures']}")


def test_c01_cardinality():
    res = _run("cardinality")
    counts = res.measured["counts"]
    ok = (
        res.passed
        and counts == {str(n): 4**n * math.factorial(n) for n in range(1, 7)}
        and counts["6"] == 2_949_120
        and res.elapsed_s < 60
    )
    _report(ok, "cardinality", f"n=6 count {counts['6']:,} in {res.elapsed_s:.2f}s")


def test_c02_r_histogram_matches_generating_polynomial():
    _exact("r-histogram", "r-histogram", max_n=5)


def test_c03_bernoulli_convolution_equals_polynomial_coefficients():
    _exact("bernoulli-convolution", "bernoulli-convolution", max_n=50)


def test_c04_r_and_delta_moments_from_pmfs():
    _exact("r-moments", "r-moments", max_n=50)


def test_c05_rows_split_between_r_and_delta():
    # Both legs read the tableaux the census keeps, n <= 4 (`kept_max_n`);
    # `max_n` is the census range.
    res = _run("row-identity")
    m = res.measured
    ok = (
        res.passed
        and m["max_n"] == 5
        and m["kept_max_n"] == 4
        and m["violations"] == 0
    )
    _report(
        ok, "row-identity",
        f"r+delta=n read off the cells of the kept tableaux "
        f"(n <= {m['kept_max_n']}), bad={m['violations']}",
    )


def test_c06_diagonal_histogram_is_the_v_row():
    _exact("diagonal-distribution", "diagonal-distribution", max_n=5)


def test_c07_diagonal_moments_to_two_hundred():
    _exact(
        "diagonal-moments", "diagonal-moments", max_n=200, irwin_hall_max_n=60
    )


def test_c08_triangle_cross_checks():
    _exact(
        "triangle-identities", "triangle-identities",
        oracle_max_n=7, identity_max_n=30,
    )


def test_c09_bivariate_series_and_pole_constants():
    res = _run("bivariate-series")
    m = res.measured
    ok = (
        res.passed
        and m["orders_checked"] == 12
        and m["first_mismatch"] is None
        and m["pole_constants"] == ["1", "-1/2", "1/6"]
    )
    _report(
        ok,
        "bivariate-series",
        f"orders={m['orders_checked']} mismatch={m['first_mismatch']} "
        f"poles={tuple(m['pole_constants'])}",
    )


def test_c10_sampler_weights_are_exactly_uniform():
    res = _run("sampler-exactness")
    m = res.measured
    census = {"1": 4, "2": 32, "3": 384, "4": 6144}
    law = m["full_law"]
    ok = (
        res.passed
        and m["max_n"] == 4
        and m["cases"] == sum(census.values())
        and m["kernel_sequences"] == m["kernel_tableaux"] == census
        and (law["n"], law["draws"]) == (3, 20_000)
        and law["p_value"] > 1e-3
        and m["failures"] == []
    )
    _report(
        ok,
        "sampler-exactness",
        f"{m['cases']} tableaux, {m['kernel_sequences']['4']} kernel sequences "
        f"giving {m['kernel_tableaux']['4']} tableaux at n=4, "
        f"full law at n=3 chi2={law['chi2']:.1f} p={law['p_value']:.4f}, "
        f"bad={m['failures']}",
    )


def test_c11_sampled_statistics_match_the_limit_laws():
    res = _run("sampler-chi-square")
    m = res.measured
    worst = min(leg["p_value"] for leg in m["legs"].values())
    ok = (
        res.passed
        and (m["n"], m["draws"]) == (5, 10**5)
        and m["p_value"] > 0.001
        and set(m["legs"]) == set(STATISTICS)
        and worst > 0.001
        and (m["ks_n"], m["ks_draws"]) == (2000, 10**5)
        and m["ks"] < 0.01
    )
    _report(
        ok,
        "sampler-statistics",
        f"chi2={m['chi2']:.3f} p={m['p_value']:.4f} (worst leg {worst:.4f}); "
        f"ks={m['ks']:.5f} "
        f"(exact {m['ks_exact']:.2e})",
    )


def test_c12_stationary_law_equals_weight_ratios():
    res = _run("asep-grid")
    m = res.measured
    ok = (
        res.passed
        and m["max_n"] == 8
        and m["settings"] == len(PARAMETER_GRID)
        and m["z_oracle_max_n"] == 4
        and m["z_mismatches"] == []
        and m["max_deviation"] < 1e-10
        and m["exact_n1_deviation"] == 0.0
    )
    _report(
        ok,
        "asep-identity",
        f"float max dev {m['max_deviation']:.2e} over {m['settings']} settings "
        f"and n <= {m['max_n']}, exact n=1 dev {m['exact_n1_deviation']}, "
        f"DP vs enumeration mismatches {m['z_mismatches']} for n <= "
        f"{m['z_oracle_max_n']}",
    )
