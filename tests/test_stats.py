"""Exact laws of the tableau statistics and the lattice CLT diagnostic."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from staircase_tableaux import stats
from staircase_tableaux.polyengine import build_V, v_row
from staircase_tableaux.stats import (
    STATISTICS,
    ExactPMF,
    chi2_sf,
    chi_square,
    dist_A,
    dist_delta,
    dist_r,
    harmonic_pair,
    kolmogorov_distance,
    moments_A,
    moments_delta,
    moments_r,
)


# ------------------------------------------------------------------- r law


def test_dist_r_weights_small_goldens():
    # Numerators over 2**n n!: (1 + z)/2, (3 + 4z + z^2)/8 and
    # (1 + z)(3 + z)(5 + z)/48.
    assert dist_r(1).weights == (1, 1)
    assert dist_r(2).weights == (3, 4, 1)
    assert dist_r(3).weights == (15, 23, 9, 1)


def test_dist_r_two_golden():
    d = dist_r(2)
    assert d.offset == 0
    assert d.probs == (Fraction(3, 8), Fraction(1, 2), Fraction(1, 8))


@given(n=st.integers(1, 40), z=st.integers(-60, 60))
@settings(max_examples=40, deadline=None)
def test_bernoulli_convolution_equals_pgf_coefficients(n, z):
    # dist_r convolves the Bernoulli factors; its weights, numerators over
    # 2**n n!, are the coefficients of prod_k (z + 2k - 1), read at z.
    d = dist_r(n)
    assert d.offset == 0 and len(d.weights) == n + 1
    assert sum(w * z**v for v, w in enumerate(d.weights)) == math.prod(
        z + 2 * k - 1 for k in range(1, n + 1)
    )
    assert d.denominator == 2**n * math.factorial(n)


def test_moments_r_golden_and_formula():
    assert moments_r(3) == (Fraction(11, 12), Fraction(83, 144))
    for n in (1, 2, 5, 20, 50):
        h1, h2 = harmonic_pair(n)
        assert moments_r(n) == (h1 / 2, h1 / 2 - h2 / 4)


def test_harmonic_pair_small_values():
    assert harmonic_pair(4) == (Fraction(25, 12), Fraction(205, 144))


@pytest.mark.parametrize("n", [0, 1, 2, 13, 50, 300])
def test_harmonic_pair_is_the_sum_of_fractions(n):
    h1 = sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))
    h2 = sum((Fraction(1, k * k) for k in range(1, n + 1)), Fraction(0))
    assert harmonic_pair(n) == (h1, h2)
    assert all(type(h) is Fraction for h in harmonic_pair(n))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 30])
def test_moments_match_pmf(n):
    d = dist_r(n)
    mean, var = moments_r(n)
    assert d.mean() == mean
    assert d.variance() == var


# --------------------------------------------------------- delta and gamma


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
def test_delta_is_r_reflected(n):
    d, r = dist_delta(n), dist_r(n)
    assert d.support() == r.support()
    for v in d.support():
        assert d.p(v) == r.p(n - v)


def test_gamma_shares_delta_law():
    for n in (1, 2, 5, 9):
        assert STATISTICS["gamma"].law(n).probs == dist_delta(n).probs


def test_moments_delta_formula():
    for n in (1, 2, 10, 50):
        mean_r, var_r = moments_r(n)
        mean_d, var_d = moments_delta(n)
        assert mean_d == n - mean_r
        assert var_d == var_r
        assert dist_delta(n).mean() == mean_d


# ------------------------------------------------------------ diagonal law


def test_dist_A_three_golden():
    assert dist_A(3).probs == (
        Fraction(1, 48),
        Fraction(23, 48),
        Fraction(23, 48),
        Fraction(1, 48),
    )


def test_dist_B_equals_dist_A():
    for n in (1, 2, 6):
        assert STATISTICS["b"].law(n).probs == dist_A(n).probs


def test_moments_A_one_is_the_exception():
    assert moments_A(1) == (Fraction(1, 2), Fraction(1, 4))
    assert dist_A(1).variance() == Fraction(1, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 25, 40])
def test_moments_A_match_pmf(n):
    d = dist_A(n)
    mean, var = moments_A(n)
    assert d.mean() == mean
    assert d.variance() == var
    if n >= 2:
        assert var == Fraction(n + 1, 12)


def _central_moment(pmf, k, mean):
    """sum_v (v - mean)**k p(v), exactly."""
    total = sum((v - mean) ** k * w for v, w in zip(pmf.support(), pmf.weights))
    return total / pmf.denominator


def test_diagonal_cumulants_are_irwin_hall_plus_sheppard():
    # kappa_2 = n/12 + 1/12 and kappa_4 = -n/120 - 1/120: the Irwin-Hall
    # cumulants plus Sheppard's corrections for rounding.  kappa_4 takes
    # this form only from n = 4 on.
    for n in range(1, 61):
        d = dist_A(n)
        m2, m4 = (_central_moment(d, k, Fraction(n, 2)) for k in (2, 4))
        if n >= 2:
            assert m2 == Fraction(n + 1, 12)
        assert (m4 - 3 * m2**2 == Fraction(-(n + 1), 120)) == (n >= 4), n


# ------------------------------------------------------------ row caches


def test_each_law_row_is_kept_for_its_last_n():
    # dist_A and dist_r wrap one cached row per kernel in a fresh ExactPMF:
    # a repeat hands out the same tuple, delta reverses r's cached row, and
    # a row evicted by n + 1 is built again, still exact.
    n = 23
    a, r = dist_A(n), dist_r(n)
    assert dist_A(n) is not a and dist_A(n).weights is a.weights
    assert dist_r(n) is not r and dist_r(n).weights is r.weights
    assert type(a.weights) is type(r.weights) is tuple
    before = stats._r_row.cache_info()
    assert dist_delta(n).weights == r.weights[::-1]
    after = stats._r_row.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    dist_A(n + 1)
    dist_r(n + 1)
    v_misses, r_misses = v_row.cache_info().misses, stats._r_row.cache_info().misses
    assert dist_A(n).weights == v_row(n) == build_V(n)[n]
    weights = dist_r(n).weights
    assert v_row.cache_info().misses == v_misses + 1
    assert stats._r_row.cache_info().misses == r_misses + 1
    # The bernoulli-convolution check's evaluation at z = 0..n.
    assert len(weights) == n + 1 and all(
        sum(w * z**v for v, w in enumerate(weights))
        == math.prod(z + 2 * k - 1 for k in range(1, n + 1))
        for z in range(n + 1)
    )


# ----------------------------------------------------------------- sampling


def test_exact_pmf_rejects_bad_mass():
    for weights, denominator in (((3, 2), 6), ((-1, 2), 1), ((0, 0), 0)):
        with pytest.raises(ValueError):
            ExactPMF(0, weights, denominator)


def test_exact_pmf_reads_weights_over_the_denominator():
    d = ExactPMF(2, (1, 3, 2), 6)
    assert d.probs == (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
    assert d.p(3) == Fraction(1, 2) and d.p(5) == 0
    assert d.mean() == Fraction(19, 6)
    assert d.variance() == Fraction(17, 36)


@pytest.mark.parametrize("weights", [[], [2, -1], [0, 0]])
def test_draw_integers_rejects_weights_without_a_distribution(weights):
    with pytest.raises(ValueError, match="weights must"):
        ExactPMF(0, tuple(weights), sum(weights))


# --------------------------------------------------------- normal distance


def test_kolmogorov_distance_accepts_a_near_normal_lattice_law():
    d = dist_A(80)
    mean = float(d.mean())
    sd = math.sqrt(float(d.variance()))
    assert kolmogorov_distance(d, mean, sd) < 0.03


def test_kolmogorov_distance_flags_a_displaced_reference():
    d = dist_A(80)
    mean = float(d.mean())
    sd = math.sqrt(float(d.variance()))
    assert kolmogorov_distance(d, mean + 2 * sd, sd) > 0.3


def _normal_limit_A(n):
    mean, var = moments_A(n)
    return float(mean), math.sqrt(var)


@pytest.mark.parametrize(
    "n, expected",
    [
        (20, 0.004787195996421634),
        (50, 0.0019415658478180303),
        (200, 0.0004904087663805401),
    ],
)
def test_kolmogorov_distance_of_the_diagonal_law_is_pinned(n, expected):
    assert kolmogorov_distance(dist_A(n), *_normal_limit_A(n)) == expected


@pytest.mark.parametrize("sd", [0.0, -1.0, float("nan")])
def test_kolmogorov_distance_refuses_a_non_positive_sd(sd):
    with pytest.raises(ValueError, match="sd must be positive"):
        kolmogorov_distance(dist_A(5), 2.5, sd)


# ------------------------------------------------------- chi-square tail

_CHI2_DFS = [*range(1, 41), 100, 383, 999]


def _chi2_grid(df):
    """400 values of x from 0 to 3 df + 30."""
    return [(3 * df + 30) * i / 399 for i in range(400)]


@pytest.mark.parametrize("df", _CHI2_DFS)
def test_chi2_sf_matches_scipy_where_the_tail_exceeds_1e_6(df):
    chi2 = pytest.importorskip("scipy.stats").chi2
    xs = _chi2_grid(df)
    for x, want in zip(xs, chi2.sf(xs, df)):
        if want > 1e-6:
            assert chi2_sf(x, df) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("df", [1500, 2000, 5000])
def test_chi2_sf_reads_a_large_df_off_logs_past_the_underflow(df):
    # From y = x/2 = 700 on, e**-y is no normal float and the first term
    # comes from logs, where rounding grows with y (2e-12 at df = 5000).
    chi2 = pytest.importorskip("scipy.stats").chi2
    xs = [x for x in _chi2_grid(df) if x >= 1400]
    for x, want in zip(xs, chi2.sf(xs, df)):
        if want > 1e-6:
            assert chi2_sf(x, df) == pytest.approx(want, rel=1e-11, abs=0)


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 7.5, 40.0, 300.0])
def test_chi2_sf_on_one_and_two_df_is_erfc_and_exp(x):
    assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-14)
    assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-14)


@pytest.mark.parametrize("df", _CHI2_DFS)
def test_chi2_sf_is_one_at_zero_and_never_increases(df):
    values = [chi2_sf(x, df) for x in _chi2_grid(df)]
    assert values[0] == 1.0
    assert all(b <= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("x, df", [(1e5, 383), (1e7, 1), (1e300, 4), (math.inf, 3)])
def test_chi2_sf_of_a_huge_statistic_is_zero(x, df):
    # A running term in linear space overflows at (1e5, 383), and a clamped
    # inf would read 1.0: a gross sampler defect would then pass c10.
    assert chi2_sf(x, df) == 0.0


@pytest.mark.parametrize("x, df", [(1.0, 0), (-1.0, 3), (math.nan, 3)])
def test_chi2_sf_refuses_df_below_one_and_x_negative_or_nan(x, df):
    with pytest.raises(ValueError, match=r"^need df >= 1 and x >= 0"):
        chi2_sf(x, df)


def test_chi_square_without_low_bins_is_the_plain_sum():
    # Terms 1/8, 16/16, 16/32 and 4/8, each exact in binary.
    bins = [(9, 8.0), (12, 16.0), (36, 32.0), (6, 8.0)]
    assert chi_square(bins) == (2.125, 3, chi2_sf(2.125, 3))


def test_chi_square_pools_the_low_bins_into_one_last_bin():
    # The bins expecting under 5 pool wherever they sit, into (6, 4.0); the
    # one expecting exactly 5 stays.  Terms 4/8, 0, 16/16 and 4/4.
    bins = [(4, 2.0), (10, 8.0), (1, 1.5), (5, 5.0), (20, 16.0), (1, 0.5)]
    assert chi_square(bins) == (2.5, 3, chi2_sf(2.5, 3))